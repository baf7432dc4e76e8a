// Chunked bump allocator for the compile/simulate hot path.
//
// SAFARA is an iterative feedback compiler: every candidate set clones,
// mutates, re-lowers and re-allocates an AST, so allocation churn is a
// first-order cost of the paper's methodology. An Arena serves many small
// allocations from large chunks with a pointer bump, and reclaims them
// wholesale with reset() — no per-node free(), no heap traffic in the
// candidate loop. Ownership rules live in docs/ALLOCATION.md; the short
// version: nothing may hold a pointer into an arena across its reset().
//
// Under AddressSanitizer every byte the arena owns is poisoned except the
// exact regions currently handed out, so a stale pointer used after
// reset() is a hard ASan error instead of silent reuse.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SAFARA_ASAN 1
#endif
#endif
#if !defined(SAFARA_ASAN) && defined(__SANITIZE_ADDRESS__)
#define SAFARA_ASAN 1
#endif
#if !defined(SAFARA_ASAN)
#define SAFARA_ASAN 0
#endif

namespace safara::support {

/// Per-arena accounting, plus the process-wide counters that feed the
/// alloc.* metrics (`safcc --alloc-stats`, alloc.arena_bytes_peak).
struct ArenaStats {
  std::size_t bytes_allocated = 0;  ///< cumulative bytes handed out (incl. re-use after reset)
  std::size_t bytes_live = 0;       ///< bytes handed out since the last reset
  std::size_t bytes_peak = 0;       ///< high-water mark of bytes_live
  std::size_t bytes_reserved = 0;   ///< sum of chunk capacities currently held
  std::size_t chunks = 0;           ///< chunks currently held
  std::size_t resets = 0;           ///< reset() calls on this arena
  std::size_t heap_fallbacks = 0;   ///< oversize requests served by a dedicated chunk
};

/// Process-wide snapshot of every arena's contribution (monotonic; arenas
/// publish on reset and destruction, heap fallbacks immediately).
struct GlobalAllocStats {
  std::uint64_t arena_bytes_peak = 0;  ///< max bytes_peak over all arenas so far
  std::uint64_t arena_resets = 0;      ///< total reset() calls process-wide
  std::uint64_t heap_fallbacks = 0;    ///< total oversize fallbacks process-wide
};

GlobalAllocStats global_alloc_stats();

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;
  /// Strongest alignment the arena guarantees without padding games; covers
  /// every AST/VIR node (16-byte: two f64 or an SSE pair).
  static constexpr std::size_t kMaxAlign = 16;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `size` bytes aligned to `align` (<= kMaxAlign).
  /// Requests larger than the chunk size get a dedicated chunk and count as
  /// a heap fallback — correct, just not what the arena is for.
  void* allocate(std::size_t size, std::size_t align = alignof(std::max_align_t));

  template <typename T>
  T* alloc_array(std::size_t n) {
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// Rewinds every chunk without releasing it: the next allocation cycle
  /// re-uses the same memory. Under ASan all reclaimed bytes are poisoned,
  /// so any pointer held across the reset faults on first use.
  void reset();

  const ArenaStats& stats() const { return stats_; }

 private:
  struct Chunk {
    std::unique_ptr<unsigned char[]> data;
    std::size_t cap = 0;
  };

  void publish_global() const;

  std::vector<Chunk> chunks_;
  std::size_t cur_ = 0;  ///< index of the chunk currently being bumped
  std::size_t off_ = 0;  ///< bump offset within chunks_[cur_]
  std::size_t chunk_bytes_;
  ArenaStats stats_;
  mutable std::uint64_t published_peak_ = 0;  ///< bytes_peak already folded globally
};

/// Installs `arena` as the thread's active allocation target for
/// ArenaAllocated types (AST nodes) for the scope's lifetime; restores the
/// previous target on destruction, so scopes nest (e.g. a per-candidate
/// arena inside a per-compile arena).
///
/// The thread's target lives in a file-local thread_local in arena.cpp, so
/// the three members below are defined there: an inline access to a
/// `static thread_local` member goes through GCC's TLS wrapper, which
/// `-fsanitize=undefined` reports as a store through a null pointer.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  static Arena* current();

 private:
  Arena* prev_;
};

/// Mixin base giving a class hierarchy tagged class-level new/delete: with
/// an ArenaScope active, nodes are bump-allocated and their delete is a
/// no-op (memory is reclaimed wholesale by the arena); without one they go
/// to the heap exactly as before. A 16-byte header in front of every node
/// records which case applies, so ownership (unique_ptr) works identically
/// either way and heap- and arena-born nodes can be mixed freely.
class ArenaAllocated {
 public:
  static void* operator new(std::size_t size);
  static void operator delete(void* p) noexcept;
  static void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

 protected:
  ~ArenaAllocated() = default;
};

}  // namespace safara::support

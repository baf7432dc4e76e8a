#include "support/arena.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <new>

#if SAFARA_ASAN
#include <sanitizer/asan_interface.h>
#define SAFARA_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define SAFARA_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define SAFARA_POISON(p, n) ((void)(p), (void)(n))
#define SAFARA_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace safara::support {

namespace {

std::atomic<std::uint64_t> g_arena_bytes_peak{0};
std::atomic<std::uint64_t> g_arena_resets{0};
std::atomic<std::uint64_t> g_heap_fallbacks{0};

thread_local Arena* t_current_arena = nullptr;  // ArenaScope's target

void fold_peak(std::uint64_t peak) {
  std::uint64_t seen = g_arena_bytes_peak.load(std::memory_order_relaxed);
  while (peak > seen &&
         !g_arena_bytes_peak.compare_exchange_weak(seen, peak, std::memory_order_relaxed)) {
  }
}

}  // namespace

GlobalAllocStats global_alloc_stats() {
  GlobalAllocStats s;
  s.arena_bytes_peak = g_arena_bytes_peak.load(std::memory_order_relaxed);
  s.arena_resets = g_arena_resets.load(std::memory_order_relaxed);
  s.heap_fallbacks = g_heap_fallbacks.load(std::memory_order_relaxed);
  return s;
}

Arena::Arena(std::size_t chunk_bytes)
    : chunk_bytes_(std::max<std::size_t>(chunk_bytes, 256)) {}

Arena::~Arena() {
  publish_global();
  // ASan tracks poisoning per shadow byte; unpoison before the chunks go
  // back to the allocator so the freed pages start clean for their next
  // owner.
  for (Chunk& c : chunks_) SAFARA_UNPOISON(c.data.get(), c.cap);
}

void Arena::publish_global() const {
  if (stats_.bytes_peak > published_peak_) {
    fold_peak(stats_.bytes_peak);
    published_peak_ = stats_.bytes_peak;
  }
}

void* Arena::allocate(std::size_t size, std::size_t align) {
  if (size == 0) size = 1;
  if (align > kMaxAlign) align = kMaxAlign;

  // Oversize request: give it a dedicated chunk so it never splits across
  // chunks, and count the fallback — callers sizing chunks too small show
  // up in alloc.heap_fallbacks instead of silently thrashing.
  if (size + align > chunk_bytes_) {
    stats_.heap_fallbacks += 1;
    g_heap_fallbacks.fetch_add(1, std::memory_order_relaxed);
    Chunk big;
    big.cap = size + align;
    big.data = std::make_unique<unsigned char[]>(big.cap);
    unsigned char* base = big.data.get();
    auto addr = reinterpret_cast<std::uintptr_t>(base);
    const std::size_t pad = (align - addr % align) % align;
    // Dedicated chunks are inserted *behind* the bump cursor so the normal
    // path never scans them; they are reclaimed on reset like any other.
    chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(cur_), std::move(big));
    ++cur_;
    ++stats_.chunks;
    stats_.bytes_reserved += size + align;
    stats_.bytes_allocated += size;
    stats_.bytes_live += size;
    stats_.bytes_peak = std::max(stats_.bytes_peak, stats_.bytes_live);
    SAFARA_POISON(base, size + align);
    SAFARA_UNPOISON(base + pad, size);
    return base + pad;
  }

  for (;;) {
    if (cur_ < chunks_.size()) {
      Chunk& c = chunks_[cur_];
      auto addr = reinterpret_cast<std::uintptr_t>(c.data.get()) + off_;
      const std::size_t pad = (align - addr % align) % align;
      if (off_ + pad + size <= c.cap) {
        unsigned char* p = c.data.get() + off_ + pad;
        off_ += pad + size;
        stats_.bytes_allocated += size;
        stats_.bytes_live += size;
        stats_.bytes_peak = std::max(stats_.bytes_peak, stats_.bytes_live);
        SAFARA_UNPOISON(p, size);
        return p;
      }
      ++cur_;
      off_ = 0;
      continue;
    }
    Chunk c;
    c.cap = chunk_bytes_;
    c.data = std::make_unique<unsigned char[]>(c.cap);
    SAFARA_POISON(c.data.get(), c.cap);
    stats_.bytes_reserved += c.cap;
    ++stats_.chunks;
    chunks_.push_back(std::move(c));
    cur_ = chunks_.size() - 1;
    off_ = 0;
  }
}

void Arena::reset() {
  for (Chunk& c : chunks_) SAFARA_POISON(c.data.get(), c.cap);
  cur_ = 0;
  off_ = 0;
  stats_.bytes_live = 0;
  stats_.resets += 1;
  g_arena_resets.fetch_add(1, std::memory_order_relaxed);
  publish_global();
}

ArenaScope::ArenaScope(Arena& arena) : prev_(t_current_arena) { t_current_arena = &arena; }

ArenaScope::~ArenaScope() { t_current_arena = prev_; }

Arena* ArenaScope::current() { return t_current_arena; }

namespace {

// Every ArenaAllocated node carries a 16-byte header (so the node itself
// stays 16-aligned) recording where it came from; delete consults the tag
// instead of assuming a single allocator.
constexpr std::size_t kHeaderBytes = 16;
constexpr std::uint64_t kHeapTag = 0x534146'48454150ull;   // "SAF HEAP"
constexpr std::uint64_t kArenaTag = 0x534146'4152454Eull;  // "SAF AREN"

}  // namespace

void* ArenaAllocated::operator new(std::size_t size) {
  const std::size_t total = size + kHeaderBytes;
  unsigned char* base;
  std::uint64_t tag;
  if (Arena* a = ArenaScope::current()) {
    base = static_cast<unsigned char*>(a->allocate(total, kHeaderBytes));
    tag = kArenaTag;
  } else {
    base = static_cast<unsigned char*>(::operator new(total));
    tag = kHeapTag;
  }
  std::memcpy(base, &tag, sizeof tag);
  return base + kHeaderBytes;
}

void ArenaAllocated::operator delete(void* p) noexcept {
  if (!p) return;
  unsigned char* base = static_cast<unsigned char*>(p) - kHeaderBytes;
  std::uint64_t tag;
  std::memcpy(&tag, base, sizeof tag);
  if (tag == kHeapTag) {
    ::operator delete(base);
  }
  // Arena-tagged nodes are reclaimed wholesale by Arena::reset()/~Arena();
  // the destructor has already run by the time we get here, so there is
  // nothing left to do.
}

}  // namespace safara::support

// support::Arena tests: alignment guarantees, chunk growth, reset-reuse
// determinism, stats/global-counter accounting, the oversize heap-fallback
// path, ArenaScope nesting, the ArenaAllocated tag header — and, under
// AddressSanitizer, the poison-after-reset contract that turns a stale
// pointer into a hard fault (the bug class docs/ALLOCATION.md legislates
// against).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "support/arena.hpp"

namespace safara::support {
namespace {

bool aligned_to(const void* p, std::size_t a) {
  return reinterpret_cast<std::uintptr_t>(p) % a == 0;
}

TEST(Arena, SixteenByteAndF64PairAlignment) {
  Arena arena;
  // Deliberately misalign the bump cursor with a 1-byte allocation between
  // every aligned request.
  for (int i = 0; i < 64; ++i) {
    arena.allocate(1, 1);
    void* p16 = arena.allocate(32, 16);
    EXPECT_TRUE(aligned_to(p16, 16)) << "iteration " << i;
    arena.allocate(1, 1);
    // An f64 pair must come back usable as double[2].
    auto* d = arena.alloc_array<double>(2);
    EXPECT_TRUE(aligned_to(d, alignof(double)));
    d[0] = 1.5;
    d[1] = -2.5;
    EXPECT_EQ(d[0] + d[1], -1.0);
  }
}

TEST(Arena, AlignmentRequestsAboveMaxAreClamped) {
  Arena arena;
  // The arena guarantees at most kMaxAlign; stronger requests degrade to it
  // rather than failing.
  void* p = arena.allocate(8, 64);
  EXPECT_TRUE(aligned_to(p, Arena::kMaxAlign));
}

TEST(Arena, ChunkGrowth) {
  Arena arena(1024);
  const ArenaStats& s = arena.stats();
  EXPECT_EQ(s.chunks, 0u);
  // Fill well past one chunk; every allocation must land in valid memory.
  std::vector<unsigned char*> ptrs;
  for (int i = 0; i < 64; ++i) {
    auto* p = static_cast<unsigned char*>(arena.allocate(100, 8));
    p[0] = static_cast<unsigned char>(i);
    p[99] = static_cast<unsigned char>(i);
    ptrs.push_back(p);
  }
  EXPECT_GE(s.chunks, 7u);  // 64 * ~104 bytes in 1 KiB chunks
  EXPECT_EQ(s.bytes_allocated, 6400u);
  EXPECT_EQ(s.bytes_live, 6400u);
  EXPECT_EQ(s.bytes_peak, 6400u);
  EXPECT_GE(s.bytes_reserved, s.bytes_live);
  // Writes are still intact: no chunk was recycled while live.
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(ptrs[static_cast<std::size_t>(i)][0], static_cast<unsigned char>(i));
  }
}

TEST(Arena, ResetReusesTheSameMemoryDeterministically) {
  Arena arena(1024);
  std::vector<void*> first;
  for (int i = 0; i < 40; ++i) first.push_back(arena.allocate(64, 16));
  const std::size_t chunks_before = arena.stats().chunks;
  arena.reset();
  EXPECT_EQ(arena.stats().chunks, chunks_before) << "reset must not release chunks";
  EXPECT_EQ(arena.stats().bytes_live, 0u);
  // The identical allocation sequence replays to the identical addresses:
  // steady-state candidate loops touch the same cache-hot memory each round.
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(arena.allocate(64, 16), first[static_cast<std::size_t>(i)])
        << "allocation " << i << " moved after reset";
  }
}

TEST(Arena, StatsAccounting) {
  Arena arena(1024);
  arena.allocate(100, 8);
  arena.allocate(50, 8);
  EXPECT_EQ(arena.stats().bytes_allocated, 150u);
  EXPECT_EQ(arena.stats().bytes_live, 150u);
  EXPECT_EQ(arena.stats().bytes_peak, 150u);
  EXPECT_EQ(arena.stats().resets, 0u);
  EXPECT_EQ(arena.stats().heap_fallbacks, 0u);
  arena.reset();
  EXPECT_EQ(arena.stats().bytes_live, 0u);
  EXPECT_EQ(arena.stats().resets, 1u);
  // Peak survives the reset; cumulative keeps counting.
  arena.allocate(10, 8);
  EXPECT_EQ(arena.stats().bytes_allocated, 160u);
  EXPECT_EQ(arena.stats().bytes_peak, 150u);
}

TEST(Arena, OversizeRequestsGetDedicatedChunks) {
  Arena arena(256);
  const std::uint64_t global_before = global_alloc_stats().heap_fallbacks;
  auto* big = static_cast<unsigned char*>(arena.allocate(10000, 16));
  EXPECT_TRUE(aligned_to(big, 16));
  big[0] = 1;
  big[9999] = 2;  // the whole region is writable (never split across chunks)
  EXPECT_EQ(arena.stats().heap_fallbacks, 1u);
  EXPECT_EQ(global_alloc_stats().heap_fallbacks, global_before + 1);
  // The bump path still works after a fallback, and small allocations do
  // not land inside the dedicated chunk.
  void* small = arena.allocate(16, 8);
  EXPECT_TRUE(small < big || small >= big + 10000);
}

TEST(Arena, GlobalCountersAccumulateOnResetAndDestruction) {
  const GlobalAllocStats before = global_alloc_stats();
  {
    Arena arena(1024);
    arena.allocate(500, 8);
    arena.reset();
    EXPECT_EQ(global_alloc_stats().arena_resets, before.arena_resets + 1);
    EXPECT_GE(global_alloc_stats().arena_bytes_peak, 500u);
    arena.allocate(100, 8);
  }  // destruction publishes any unpublished peak
  EXPECT_GE(global_alloc_stats().arena_bytes_peak, before.arena_bytes_peak);
}

TEST(ArenaScope, NestsAndRestores) {
  EXPECT_EQ(ArenaScope::current(), nullptr);
  Arena outer_arena, inner_arena;
  {
    ArenaScope outer(outer_arena);
    EXPECT_EQ(ArenaScope::current(), &outer_arena);
    {
      ArenaScope inner(inner_arena);
      EXPECT_EQ(ArenaScope::current(), &inner_arena);
    }
    EXPECT_EQ(ArenaScope::current(), &outer_arena);
  }
  EXPECT_EQ(ArenaScope::current(), nullptr);
}

struct Node : ArenaAllocated {
  explicit Node(int v) : value(v) { ++live; }
  ~Node() { --live; }
  int value;
  static int live;
};
int Node::live = 0;

TEST(ArenaAllocated, HeapWithoutScopeArenaWithin) {
  // No scope: plain heap round-trip, destructor runs.
  {
    auto heap_node = std::make_unique<Node>(7);
    EXPECT_EQ(Node::live, 1);
  }
  EXPECT_EQ(Node::live, 0);

  Arena arena;
  {
    ArenaScope scope(arena);
    auto arena_node = std::make_unique<Node>(9);
    EXPECT_GT(arena.stats().bytes_live, 0u) << "node should have come from the arena";
    EXPECT_EQ(arena_node->value, 9);
  }  // unique_ptr delete: destructor runs, memory stays in the arena
  EXPECT_EQ(Node::live, 0);
  EXPECT_GT(arena.stats().bytes_live, 0u) << "arena memory is reclaimed by reset, not delete";
}

TEST(ArenaAllocated, HeapNodeOutlivesTheScopeItWasNotAllocatedIn) {
  // A node allocated before a scope opened must delete correctly while a
  // scope is active (the tag header, not the TLS state at delete time,
  // decides): mixing heap- and arena-born nodes in one tree is legal.
  auto heap_node = std::make_unique<Node>(1);
  Arena arena;
  {
    ArenaScope scope(arena);
    heap_node.reset();  // heap-tagged delete under an active arena scope
    EXPECT_EQ(Node::live, 0);
  }
}

TEST(ArenaDeath, PoisonAfterResetFaultsUnderAsan) {
#if SAFARA_ASAN
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Arena arena;
        auto* p = static_cast<volatile int*>(arena.allocate(sizeof(int), alignof(int)));
        *p = 42;
        arena.reset();
        // Use-after-reset: the arena re-poisoned its chunks, so this read
        // must be an ASan hard error, not a silently recycled value.
        int v = *p;
        (void)v;
      },
      "use-after-poison");
#else
  GTEST_SKIP() << "poison-after-reset is only observable under ASan "
                  "(configure with -fsanitize=address)";
#endif
}

}  // namespace
}  // namespace safara::support

// Blocks, block liveness and live extents of VIR kernels: the one block
// partition the back end reads. The pass pipeline (GVN, SSA construction
// and destruction, pressure scheduling), both register allocators and the
// simulator's entry-live set all take their blocks from an `Analyses`.
//
// Every label position is a block leader, so reconvergence labels are block
// boundaries. That matters for SSA: phis are placed at label-led joins and
// the SIMT interpreter can transfer control to any label, so labels must
// start blocks. Liveness consumers read only per-point liveness, which any
// partition of the code yields identically, so the extra boundaries change
// none of their results.
#pragma once

#include <cstdint>
#include <vector>

#include "vir/vir.hpp"

namespace safara::vir {

struct BasicBlock {
  std::int32_t begin = 0;  // first instruction index
  std::int32_t end = 0;    // one past the last instruction
  std::vector<std::int32_t> succs;
};

struct Cfg {
  std::vector<BasicBlock> blocks;
  /// Per block: predecessor block indices, ascending, deduplicated.
  std::vector<std::vector<std::int32_t>> preds;
  /// Per block: reachable from the entry block.
  std::vector<char> reachable;
  /// Immediate dominator block index (-1 for the entry and unreachable
  /// blocks).
  std::vector<std::int32_t> idom;
  /// Dominator-tree children, ascending.
  std::vector<std::vector<std::int32_t>> dom_children;
  /// Dominance frontier per block, ascending.
  std::vector<std::vector<std::int32_t>> dom_frontier;
  /// Instruction index -> block index.
  std::vector<std::int32_t> block_of;
};

/// Per-block liveness bitsets: the one backward dataflow in the compiler,
/// behind live extents and intervals, max_live_pressure, SSA pruning, copy
/// coalescing, the coloring allocator and the simulator's entry-live set.
/// Each array holds one `words`-long bitset per block, block b's at
/// [b * words, (b + 1) * words).
struct BlockLiveness {
  std::size_t words = 0;  // 64-bit words per bitset
  std::vector<std::uint64_t> live_in;
  std::vector<std::uint64_t> live_out;

  const std::uint64_t* in(std::size_t block) const { return live_in.data() + block * words; }
  const std::uint64_t* out(std::size_t block) const { return live_out.data() + block * words; }
  bool live_in_at(std::size_t block, std::uint32_t vreg) const {
    return (in(block)[vreg / 64] >> (vreg % 64)) & 1;
  }
};

/// The analyses of one kernel: the label-led blocks and their edges, the
/// dominator tree and frontiers, and block liveness. Each is built on first
/// use and kept until the code changes. Blocks are never empty, so a kernel
/// without code has no blocks.
///
/// The bundle is bound to one kernel. Whoever changes that kernel's code
/// calls `invalidate()`; the next read re-derives the block boundaries and
/// recomputes liveness. The dominator tree is rebuilt only when the new
/// blocks or their successor lists differ from the old ones (a pass emptied
/// a block), because the same graph has the same dominators. Reordering
/// instructions inside their blocks changes neither the boundaries nor the
/// block live-in and live-out sets, so it needs no invalidation.
class Analyses {
 public:
  explicit Analyses(const Kernel& k) : k_(k) {}

  void invalidate() { blocks_fresh_ = live_fresh_ = false; }

  /// Blocks, edges and dominator tree of the current code.
  const Cfg& cfg();
  /// The blocks alone (no dominator tree is built for them).
  const std::vector<BasicBlock>& blocks();
  const BlockLiveness& liveness();

  /// Dominator-tree builds and liveness dataflows run so far.
  int dom_builds() const { return dom_builds_; }
  int liveness_runs() const { return liveness_runs_; }

 private:
  void sync_blocks();

  const Kernel& k_;
  Cfg cfg_;
  BlockLiveness live_;
  bool blocks_fresh_ = false;
  bool dom_fresh_ = false;
  bool live_fresh_ = false;
  int dom_builds_ = 0;
  int liveness_runs_ = 0;
};

/// Hole-free live extent of every vreg (registers live across a backedge
/// span the whole loop): vreg r is occupied on [start[r], end[r]], and
/// start[r] == -1 when it is never used or defined. `a` is bound to `k`.
struct LiveExtents {
  std::vector<std::int32_t> start;
  std::vector<std::int32_t> end;
};
LiveExtents compute_live_extents(const Kernel& k, Analyses& a);

/// Conservative (hole-free) live interval of a virtual register, in
/// instruction indices: the register is considered occupied on [start, end].
struct LiveInterval {
  std::uint32_t vreg = 0;
  std::int32_t start = 0;
  std::int32_t end = 0;
};

/// One interval per vreg with an extent, ordered by start: the input of the
/// linear-scan allocator. Never-used vregs get no interval.
std::vector<LiveInterval> compute_live_intervals(const Kernel& k);

}  // namespace safara::vir

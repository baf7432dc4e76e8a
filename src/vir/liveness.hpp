// CFG construction and live-interval computation over VIR kernels, feeding
// the ptxas-sim linear-scan allocator.
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

/// Partitions the kernel into basic blocks and records successor edges.
std::vector<BasicBlock> build_cfg(const Kernel& k);

/// Conservative (hole-free) live interval of a virtual register, in
/// instruction indices: the register is considered occupied on [start, end].
struct LiveInterval {
  std::uint32_t vreg = 0;
  std::int32_t start = 0;
  std::int32_t end = 0;
};

/// Hole-free live extent of every vreg over build_cfg's blocks, from
/// compute_block_liveness (registers live across a backedge span the whole
/// loop): vreg r is occupied on [start[r], end[r]], and start[r] == -1 when
/// it is never used or defined.
struct LiveExtents {
  std::vector<std::int32_t> start;
  std::vector<std::int32_t> end;
};
LiveExtents compute_live_extents(const Kernel& k);

struct BlockLiveness;
/// The same extents over any partition of the code into blocks and that
/// partition's liveness: a block boundary only marks points the value is
/// live at anyway, so every partition yields the same extents.
LiveExtents compute_live_extents(const Kernel& k, const std::vector<BasicBlock>& blocks,
                                 const BlockLiveness& lv);

/// One interval per vreg with an extent, ordered by start. Never-used vregs
/// get no interval.
std::vector<LiveInterval> compute_live_intervals(const Kernel& k);

/// Invokes `fn(vreg)` for every register the instruction reads.
template <typename Fn>
void for_each_use(const Instr& in, Fn&& fn) {
  if (in.a != kNoReg) fn(in.a);
  if (in.b != kNoReg) fn(in.b);
  if (in.c != kNoReg) fn(in.c);
}

}  // namespace safara::vir

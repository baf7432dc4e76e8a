#include "vir/liveness.hpp"

#include <algorithm>

#include "vir/cfg.hpp"

namespace safara::vir {

std::vector<BasicBlock> build_cfg(const Kernel& k) {
  const std::int32_t n = static_cast<std::int32_t>(k.code.size());
  // Leader positions as a flat boolean array: emitting blocks by scanning it
  // ascending yields the same order a sorted set would, without the
  // node-per-leader churn on every compile.
  std::vector<char> leader(static_cast<std::size_t>(n) + 1, 0);
  if (n > 0) leader[0] = 1;
  for (std::int32_t i = 0; i < n; ++i) {
    const Instr& in = k.code[i];
    if (in.op == Opcode::kBra || in.op == Opcode::kCbr) {
      std::int32_t t = k.target(static_cast<std::int32_t>(in.imm));
      if (t >= 0 && t < n) leader[static_cast<std::size_t>(t)] = 1;
      if (i + 1 < n) leader[static_cast<std::size_t>(i) + 1] = 1;
    } else if (in.op == Opcode::kExit && i + 1 < n) {
      leader[static_cast<std::size_t>(i) + 1] = 1;
    }
  }

  std::vector<BasicBlock> blocks;
  if (n == 0) {
    // An empty kernel still has its one (empty) entry block.
    blocks.push_back(BasicBlock{});
    return blocks;
  }
  for (std::int32_t i = 0; i < n; ++i) {
    if (!leader[static_cast<std::size_t>(i)]) continue;
    BasicBlock bb;
    bb.begin = i;
    std::int32_t next = i + 1;
    while (next < n && !leader[static_cast<std::size_t>(next)]) ++next;
    bb.end = next;
    blocks.push_back(bb);
  }

  // Index -> block lookup as a direct array instead of a per-query scan.
  std::vector<std::int32_t> block_index(static_cast<std::size_t>(n), -1);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (std::int32_t i = blocks[b].begin; i < blocks[b].end; ++i) {
      block_index[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(b);
    }
  }
  auto block_of = [&](std::int32_t index) -> std::int32_t {
    if (index < 0 || index >= n) return -1;
    return block_index[static_cast<std::size_t>(index)];
  };

  for (std::size_t b = 0; b < blocks.size(); ++b) {
    BasicBlock& bb = blocks[b];
    if (bb.begin == bb.end) continue;
    const Instr& last = k.code[bb.end - 1];
    if (last.op == Opcode::kBra) {
      std::int32_t t = block_of(k.target(static_cast<std::int32_t>(last.imm)));
      if (t >= 0) bb.succs.push_back(t);
    } else if (last.op == Opcode::kCbr) {
      std::int32_t t = block_of(k.target(static_cast<std::int32_t>(last.imm)));
      if (t >= 0) bb.succs.push_back(t);
      if (b + 1 < blocks.size()) bb.succs.push_back(static_cast<std::int32_t>(b + 1));
    } else if (last.op != Opcode::kExit) {
      if (b + 1 < blocks.size()) bb.succs.push_back(static_cast<std::int32_t>(b + 1));
    }
  }
  return blocks;
}

LiveExtents compute_live_extents(const Kernel& k) {
  const std::vector<BasicBlock> blocks = build_cfg(k);
  return compute_live_extents(k, blocks, compute_block_liveness(k, blocks));
}

LiveExtents compute_live_extents(const Kernel& k, const std::vector<BasicBlock>& blocks,
                                 const BlockLiveness& lv) {
  const std::uint32_t nregs = k.num_vregs();
  constexpr std::int32_t kUnset = -1;
  LiveExtents x;
  x.start.assign(nregs, kUnset);
  x.end.assign(nregs, kUnset);
  auto extend = [&](std::uint32_t r, std::int32_t pos) {
    if (x.start[r] == kUnset || pos < x.start[r]) x.start[r] = pos;
    if (x.end[r] == kUnset || pos > x.end[r]) x.end[r] = pos;
  };
  auto extend_bits = [&](const std::uint64_t* bs, std::int32_t pos) {
    for (std::size_t w = 0; w < lv.words; ++w) {
      std::uint64_t bits = bs[w];
      while (bits) {
        const std::uint32_t r = static_cast<std::uint32_t>(
            w * 64 + static_cast<std::uint32_t>(__builtin_ctzll(bits)));
        bits &= bits - 1;
        extend(r, pos);
      }
    }
  };
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    extend_bits(lv.in(b), blocks[b].begin);
    extend_bits(lv.out(b), blocks[b].end - 1);
    for (std::int32_t i = blocks[b].begin; i < blocks[b].end; ++i) {
      const Instr& in = k.code[i];
      for_each_use(in, [&](std::uint32_t r) { extend(r, i); });
      if (has_dst(in.op) && in.dst != kNoReg) extend(in.dst, i);
    }
  }
  return x;
}

std::vector<LiveInterval> compute_live_intervals(const Kernel& k) {
  const LiveExtents x = compute_live_extents(k);
  std::vector<LiveInterval> intervals;
  for (std::uint32_t r = 0; r < k.num_vregs(); ++r) {
    if (x.start[r] >= 0) intervals.push_back({r, x.start[r], x.end[r]});
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const LiveInterval& a, const LiveInterval& b) {
              return a.start < b.start;
            });
  return intervals;
}

}  // namespace safara::vir

#include "vir/cfg.hpp"

#include <algorithm>

namespace safara::vir {

namespace {

/// Leaders are instruction 0, every label position, every branch target and
/// every instruction after a branch or exit, so no instruction range spans a
/// point the SIMT interpreter can transfer control to. Blocks are never
/// empty: each leader is a real instruction index and a block runs to the
/// next leader. A branch to a target outside the code (an unplaced label or
/// the end) adds no edge. Fills the blocks, their successor edges and
/// `block_of`.
void build_label_blocks(const Kernel& k, Cfg& cfg) {
  const std::int32_t n = static_cast<std::int32_t>(k.code.size());
  std::vector<char> leader(static_cast<std::size_t>(n), 0);
  if (n > 0) leader[0] = 1;
  auto mark = [&](std::int32_t i) {
    if (i >= 0 && i < n) leader[static_cast<std::size_t>(i)] = 1;
  };
  for (std::int32_t t : k.labels) mark(t);
  for (std::int32_t i = 0; i < n; ++i) {
    const Instr& in = k.code[i];
    if (in.op == Opcode::kBra || in.op == Opcode::kCbr) {
      mark(k.target(static_cast<std::int32_t>(in.imm)));
      mark(i + 1);
    } else if (in.op == Opcode::kExit) {
      mark(i + 1);
    }
  }

  cfg.blocks.clear();
  for (std::int32_t i = 0; i < n; ++i) {
    if (leader[static_cast<std::size_t>(i)]) {
      if (!cfg.blocks.empty()) cfg.blocks.back().end = i;
      cfg.blocks.push_back({i, n, {}});
    }
  }
  const std::size_t nb = cfg.blocks.size();

  cfg.block_of.assign(static_cast<std::size_t>(n), -1);
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::int32_t i = cfg.blocks[b].begin; i < cfg.blocks[b].end; ++i) {
      cfg.block_of[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(b);
    }
  }

  for (std::size_t b = 0; b < nb; ++b) {
    BasicBlock& bb = cfg.blocks[b];
    const Instr& last = k.code[bb.end - 1];
    if (last.op == Opcode::kBra || last.op == Opcode::kCbr) {
      const std::int32_t t = k.target(static_cast<std::int32_t>(last.imm));
      if (t >= 0 && t < n) bb.succs.push_back(cfg.block_of[static_cast<std::size_t>(t)]);
    }
    if (last.op != Opcode::kBra && last.op != Opcode::kExit && b + 1 < nb) {
      bb.succs.push_back(static_cast<std::int32_t>(b + 1));
    }
  }
}

/// Predecessors, reachability, the dominator tree (iterative bitset
/// dataflow — the CFGs are tiny) and dominance frontiers of `cfg.blocks`.
void build_dominators(Cfg& cfg) {
  const std::size_t nb = cfg.blocks.size();
  cfg.preds.assign(nb, {});
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::int32_t s : cfg.blocks[b].succs) {
      cfg.preds[static_cast<std::size_t>(s)].push_back(static_cast<std::int32_t>(b));
    }
  }
  for (auto& p : cfg.preds) {
    std::sort(p.begin(), p.end());
    p.erase(std::unique(p.begin(), p.end()), p.end());
  }

  cfg.reachable.assign(nb, 0);
  if (nb > 0) {
    std::vector<std::int32_t> work{0};
    cfg.reachable[0] = 1;
    while (!work.empty()) {
      const std::int32_t b = work.back();
      work.pop_back();
      for (std::int32_t s : cfg.blocks[static_cast<std::size_t>(b)].succs) {
        if (!cfg.reachable[static_cast<std::size_t>(s)]) {
          cfg.reachable[static_cast<std::size_t>(s)] = 1;
          work.push_back(s);
        }
      }
    }
  }

  // Iterative dominator sets over block bitsets (the CFGs are tiny), one
  // `words`-long row per block in a single array.
  cfg.idom.assign(nb, -1);
  cfg.dom_children.assign(nb, {});
  cfg.dom_frontier.assign(nb, {});
  if (nb == 0) return;

  const std::size_t words = (nb + 63) / 64;
  std::vector<std::uint64_t> dom(nb * words, ~0ull);
  auto dom_of = [&](std::size_t b) { return dom.data() + b * words; };
  std::fill(dom_of(0), dom_of(0) + words, 0);
  dom[0] = 1;
  std::vector<std::uint64_t> next(words);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t b = 1; b < nb; ++b) {
      if (!cfg.reachable[b]) continue;
      std::fill(next.begin(), next.end(), ~0ull);
      bool any_pred = false;
      for (std::int32_t p : cfg.preds[b]) {
        if (!cfg.reachable[static_cast<std::size_t>(p)]) continue;
        any_pred = true;
        const std::uint64_t* dp = dom_of(static_cast<std::size_t>(p));
        for (std::size_t w = 0; w < words; ++w) next[w] &= dp[w];
      }
      if (!any_pred) std::fill(next.begin(), next.end(), 0);
      next[b / 64] |= std::uint64_t{1} << (b % 64);
      if (!std::equal(next.begin(), next.end(), dom_of(b))) {
        std::copy(next.begin(), next.end(), dom_of(b));
        changed = true;
      }
    }
  }

  // Dominator-set sizes, computed once: the idom scan below reads them
  // O(nb^2) times and the sets are frozen at this point.
  std::vector<int> dom_size(nb, 0);
  for (std::size_t d = 0; d < nb; ++d) {
    for (std::size_t w = 0; w < words; ++w) dom_size[d] += __builtin_popcountll(dom_of(d)[w]);
  }

  // idom(b) is the strict dominator with the largest dominator set.
  for (std::size_t b = 1; b < nb; ++b) {
    if (!cfg.reachable[b]) continue;
    std::int32_t idom = -1;
    int best = -1;
    const std::uint64_t* db = dom_of(b);
    for (std::size_t d = 0; d < nb; ++d) {
      if (d == b || !((db[d / 64] >> (d % 64)) & 1)) continue;
      const int size = dom_size[d];
      if (size > best) {
        best = size;
        idom = static_cast<std::int32_t>(d);
      }
    }
    cfg.idom[b] = idom;
    if (idom >= 0) {
      cfg.dom_children[static_cast<std::size_t>(idom)].push_back(static_cast<std::int32_t>(b));
    }
  }

  // Dominance frontiers (Cooper–Harvey–Kennedy): walk from each join's
  // predecessors up the dominator tree until the join's idom.
  for (std::size_t b = 0; b < nb; ++b) {
    if (!cfg.reachable[b]) continue;
    std::vector<std::int32_t> rpreds;
    for (std::int32_t p : cfg.preds[b]) {
      if (cfg.reachable[static_cast<std::size_t>(p)]) rpreds.push_back(p);
    }
    if (rpreds.size() < 2) continue;
    for (std::int32_t p : rpreds) {
      std::int32_t runner = p;
      while (runner >= 0 && runner != cfg.idom[b]) {
        cfg.dom_frontier[static_cast<std::size_t>(runner)].push_back(
            static_cast<std::int32_t>(b));
        runner = cfg.idom[static_cast<std::size_t>(runner)];
      }
    }
  }
  for (auto& df : cfg.dom_frontier) {
    std::sort(df.begin(), df.end());
    df.erase(std::unique(df.begin(), df.end()), df.end());
  }
}

/// Block live-in and live-out sets over `blocks`, iterated to the least
/// fixpoint.
BlockLiveness compute_block_liveness(const Kernel& k,
                                     const std::vector<BasicBlock>& blocks) {
  const std::size_t nblocks = blocks.size();
  BlockLiveness lv;
  lv.words = (k.num_vregs() + 63) / 64;
  const std::size_t words = lv.words;
  lv.live_in.assign(nblocks * words, 0);
  lv.live_out.assign(nblocks * words, 0);

  // Per-block upward-exposed uses and defs, in the same layout.
  std::vector<std::uint64_t> use(nblocks * words, 0), def(nblocks * words, 0);
  for (std::size_t b = 0; b < nblocks; ++b) {
    std::uint64_t* ub = use.data() + b * words;
    std::uint64_t* db = def.data() + b * words;
    for (std::int32_t i = blocks[b].begin; i < blocks[b].end; ++i) {
      const Instr& in = k.code[i];
      for_each_use(in, [&](std::uint32_t r) {
        if (!((db[r / 64] >> (r % 64)) & 1)) ub[r / 64] |= std::uint64_t{1} << (r % 64);
      });
      if (has_dst(in.op) && in.dst != kNoReg) db[in.dst / 64] |= std::uint64_t{1} << (in.dst % 64);
    }
  }

  // Iterate to the fixpoint; sweeping blocks in reverse converges fast on
  // the reducible CFGs codegen emits.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t bi = nblocks; bi-- > 0;) {
      std::uint64_t* in = lv.live_in.data() + bi * words;
      std::uint64_t* out = lv.live_out.data() + bi * words;
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t o = 0;
        for (std::int32_t s : blocks[bi].succs) {
          o |= lv.live_in[static_cast<std::size_t>(s) * words + w];
        }
        const std::uint64_t i = use[bi * words + w] | (o & ~def[bi * words + w]);
        if (o != out[w] || i != in[w]) {
          out[w] = o;
          in[w] = i;
          changed = true;
        }
      }
    }
  }
  return lv;
}

}  // namespace

void Analyses::sync_blocks() {
  if (blocks_fresh_) return;
  Cfg next;
  build_label_blocks(k_, next);
  // The same blocks with the same successor lists are the same graph, so
  // its dominator tree carries over; only the boundaries moved.
  bool same = dom_fresh_ && next.blocks.size() == cfg_.blocks.size();
  for (std::size_t b = 0; same && b < next.blocks.size(); ++b) {
    same = next.blocks[b].succs == cfg_.blocks[b].succs;
  }
  dom_fresh_ = same;
  cfg_.blocks = std::move(next.blocks);
  cfg_.block_of = std::move(next.block_of);
  blocks_fresh_ = true;
}

const Cfg& Analyses::cfg() {
  sync_blocks();
  if (!dom_fresh_) {
    build_dominators(cfg_);
    dom_fresh_ = true;
    ++dom_builds_;
  }
  return cfg_;
}

const std::vector<BasicBlock>& Analyses::blocks() {
  sync_blocks();
  return cfg_.blocks;
}

const BlockLiveness& Analyses::liveness() {
  sync_blocks();
  if (!live_fresh_) {
    live_ = compute_block_liveness(k_, cfg_.blocks);
    live_fresh_ = true;
    ++liveness_runs_;
  }
  return live_;
}

LiveExtents compute_live_extents(const Kernel& k, Analyses& a) {
  const std::vector<BasicBlock>& blocks = a.blocks();
  const BlockLiveness& lv = a.liveness();
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
  // A block boundary only marks points the value is live at anyway, so the
  // extents do not depend on where the blocks split.
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
  Analyses a(k);
  const LiveExtents x = compute_live_extents(k, a);
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

// Chaitin–Briggs graph-coloring register allocator: the default ptxas-sim
// strategy (`--regalloc color`).
//
// Differences from the linear-scan reference in regalloc.cpp:
//   - Liveness is per instruction, not hole-free per vreg: each maximal
//     contiguous run of live positions becomes its own interference node, so
//     a value that dies and is redefined later (or is dead through one arm of
//     a branch) releases its register in between — this is the live-range
//     splitting. The split is purely a modeling decision: like the linear
//     allocator, this stage never rewrites VIR (the simulator executes on
//     vregs and only charges the allocation's spill/occupancy consequences),
//     so no shuffle copies are materialized at segment boundaries.
//   - Interference is built Chaitin-style (a definition interferes with
//     everything live after it, minus the source of a `mov`), then copy
//     related nodes are conservatively coalesced so both sides of a `mov`
//     share a register whenever the merged node stays trivially colorable.
//   - When coloring fails, the cheapest-to-spill vreg is demoted and the
//     whole graph is rebuilt (one vreg per round, deterministically: cost is
//     access count weighted by 10^loop-depth, divided by interference
//     degree, ties broken by lowest vreg index). Values whose every
//     definition is a cheap pure constant (mov-immediate / special-register
//     read) are preferred spill victims: they are flagged `remat` and the
//     simulator recomputes them at ALU latency instead of reloading from
//     local memory. A rematerialized vreg still counts as spilled everywhere
//     else (slot bytes, static load/store counts), keeping the accounting
//     identical across strategies.
#include "regalloc/regalloc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "vir/cfg.hpp"
#include "vir/liveness.hpp"

namespace safara::regalloc {

using vir::Instr;
using vir::Kernel;
using vir::Opcode;
using vir::VType;

namespace {

/// One maximal contiguous run of instruction positions where a vreg is live
/// (or defined): the unit of interference and coloring.
struct Seg {
  std::uint32_t vreg = 0;
  std::int32_t start = 0;
  std::int32_t end = 0;  // inclusive
};

/// Flags every vreg whose definitions are all cheap pure constants
/// (mov-immediate / special-register read) in one pass over the code.
std::vector<char> remat_eligible_all(const Kernel& k, std::uint32_t nv) {
  std::vector<char> any_def(nv, 0), expensive(nv, 0);
  for (const Instr& in : k.code) {
    if (!vir::has_dst(in.op) || in.dst == vir::kNoReg || in.dst >= nv) continue;
    any_def[in.dst] = 1;
    if (in.op != Opcode::kMovImmI && in.op != Opcode::kMovImmF &&
        in.op != Opcode::kMovSpecial) {
      expensive[in.dst] = 1;
    }
  }
  std::vector<char> ok(nv, 0);
  for (std::uint32_t v = 0; v < nv; ++v) ok[v] = any_def[v] && !expensive[v];
  return ok;
}

}  // namespace

std::vector<int> instruction_loop_depth(const Kernel& k) {
  const std::int32_t n = static_cast<std::int32_t>(k.code.size());
  std::vector<int> depth(static_cast<std::size_t>(n), 0);
  auto deepen = [&](std::int32_t target, std::int32_t branch) {
    if (target < 0 || target > branch) return;
    for (std::int32_t i = target; i <= branch; ++i) {
      depth[static_cast<std::size_t>(i)] =
          std::min(6, depth[static_cast<std::size_t>(i)] + 1);
    }
  };
  for (std::int32_t i = 0; i < n; ++i) {
    const Instr& in = k.code[static_cast<std::size_t>(i)];
    if (in.op == Opcode::kBra || in.op == Opcode::kCbr) {
      deepen(k.target(static_cast<std::int32_t>(in.imm)), i);
    }
  }
  return depth;
}

AllocationResult allocate_color(const Kernel& kernel, const AllocatorOptions& opts) {
  AllocationResult result;
  const std::uint32_t nv = kernel.num_vregs();
  const std::int32_t n = static_cast<std::int32_t>(kernel.code.size());
  result.spilled.assign(nv, false);
  result.remat.assign(nv, false);
  result.iterations = 1;
  if (n == 0 || nv == 0) return result;

  const int cap = std::max(1, opts.max_registers);
  const std::vector<vir::BasicBlock> blocks = vir::build_cfg(kernel);
  const vir::BlockLiveness bl = vir::compute_block_liveness(kernel, blocks);
  const std::size_t words = (static_cast<std::size_t>(nv) + 63) / 64;

  std::vector<std::int32_t> block_of(static_cast<std::size_t>(n), 0);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (std::int32_t i = blocks[b].begin; i < blocks[b].end; ++i) {
      block_of[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(b);
    }
  }

  // Per-instruction liveness: live_before[i] = use(i) | (live_after(i) - def(i)),
  // seeded from the block-level dataflow.
  std::vector<std::uint64_t> live_before(static_cast<std::size_t>(n) * words, 0);
  auto before = [&](std::int32_t i) {
    return live_before.data() + static_cast<std::size_t>(i) * words;
  };
  std::vector<std::uint64_t> running(words, 0);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    running.assign(bl.out(b), bl.out(b) + words);
    for (std::int32_t i = blocks[b].end - 1; i >= blocks[b].begin; --i) {
      const Instr& in = kernel.code[static_cast<std::size_t>(i)];
      if (vir::has_dst(in.op) && in.dst != vir::kNoReg) {
        running[in.dst / 64] &= ~(std::uint64_t{1} << (in.dst % 64));
      }
      vir::for_each_use(in, [&](std::uint32_t r) {
        running[r / 64] |= std::uint64_t{1} << (r % 64);
      });
      std::copy(running.begin(), running.end(), before(i));
    }
  }

  std::vector<std::uint32_t> def_at(static_cast<std::size_t>(n), vir::kNoReg);
  for (std::int32_t i = 0; i < n; ++i) {
    const Instr& in = kernel.code[static_cast<std::size_t>(i)];
    if (vir::has_dst(in.op) && in.dst != vir::kNoReg) def_at[static_cast<std::size_t>(i)] = in.dst;
  }
  // "Occupied at i" throughout this file means: live before i, or defined
  // at i. The loops below evaluate it with word scans over live_before plus
  // a def_at check instead of a per-(vreg, position) predicate.
  // live_after(i) as a bitset pointer: the next instruction's live_before
  // inside a block, the block's live_out at its last instruction.
  auto after = [&](std::int32_t i) -> const std::uint64_t* {
    const std::int32_t b = block_of[static_cast<std::size_t>(i)];
    if (i + 1 < blocks[static_cast<std::size_t>(b)].end) return before(i + 1);
    return bl.out(static_cast<std::size_t>(b));
  };

  std::vector<std::uint64_t> pred_mask(words, 0);
  for (std::uint32_t v = 0; v < nv; ++v) {
    if (kernel.vreg_types[v] == VType::kPred) {
      pred_mask[v / 64] |= std::uint64_t{1} << (v % 64);
    }
  }

  // Predicates live in their own file: peak concurrency only. occupied() is
  // "live-before bit OR defined here", so count the masked live bits and add
  // the definition when it isn't already live.
  {
    int peak = 0;
    for (std::int32_t i = 0; i < n; ++i) {
      const std::uint64_t* lb = before(i);
      int live = 0;
      for (std::size_t wi = 0; wi < words; ++wi) {
        live += __builtin_popcountll(lb[wi] & pred_mask[wi]);
      }
      const std::uint32_t d = def_at[static_cast<std::size_t>(i)];
      if (d != vir::kNoReg && kernel.vreg_types[d] == VType::kPred &&
          ((lb[d / 64] >> (d % 64)) & 1) == 0) {
        ++live;
      }
      peak = std::max(peak, live);
    }
    result.pred_regs_used = peak;
  }

  // First/last occupied position per vreg (for spilled-range provenance) and
  // the static spill-cost numerator: accesses weighted by loop depth.
  const std::vector<int> depth = instruction_loop_depth(kernel);
  std::vector<std::int32_t> first_pos(nv, -1), last_pos(nv, -1);
  std::vector<double> access_cost(nv, 0.0);
  std::vector<char> remat_ok = remat_eligible_all(kernel, nv);
  for (std::uint32_t v = 0; v < nv; ++v) {
    if (kernel.vreg_types[v] == VType::kPred) remat_ok[v] = 0;
  }
  for (std::int32_t i = 0; i < n; ++i) {
    const Instr& in = kernel.code[static_cast<std::size_t>(i)];
    const double mult = std::pow(10.0, depth[static_cast<std::size_t>(i)]);
    auto touch = [&](std::uint32_t v) {
      if (kernel.vreg_types[v] == VType::kPred) return;
      access_cost[v] += mult;
    };
    if (vir::has_dst(in.op) && in.dst != vir::kNoReg) touch(in.dst);
    vir::for_each_use(in, touch);
    const std::uint64_t* lb = before(i);
    auto extend = [&](std::uint32_t v) {
      if (first_pos[v] < 0) first_pos[v] = i;
      last_pos[v] = i;
    };
    for (std::size_t wi = 0; wi < words; ++wi) {
      std::uint64_t bits = lb[wi] & ~pred_mask[wi];
      while (bits) {
        extend(static_cast<std::uint32_t>(wi * 64 +
                                          static_cast<std::uint32_t>(__builtin_ctzll(bits))));
        bits &= bits - 1;
      }
    }
    const std::uint32_t d = def_at[static_cast<std::size_t>(i)];
    if (d != vir::kNoReg && kernel.vreg_types[d] != VType::kPred &&
        ((lb[d / 64] >> (d % 64)) & 1) == 0) {
      extend(d);
    }
  }

  // -- build / coalesce / simplify / select rounds -----------------------------
  std::vector<char> spilled(nv, 0);
  std::vector<Seg> segs;                       // final round's segments
  std::vector<std::vector<std::int32_t>> vsegs(nv);  // vreg -> seg indices
  std::vector<int> color;                      // per union rep: first unit
  std::vector<std::int32_t> parent;            // union-find over segs
  int iterations = 0;
  int coalesced = 0;

  auto find = [&](std::int32_t x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };

  // Per-round scratch, hoisted so each rebuild re-uses the same capacity.
  std::vector<std::uint64_t> tracked_mask(words, 0);
  std::vector<std::uint64_t> occ_cur(words, 0), occ_prev(words, 0);
  std::vector<std::int32_t> run_start(nv, -1);
  std::vector<std::vector<std::pair<std::int32_t, std::int32_t>>> runs(nv);
  std::vector<char> taken;

  for (;;) {
    ++iterations;
    segs.clear();
    for (auto& s : vsegs) s.clear();
    // One occupancy sweep over the code finds every maximal run of every
    // tracked (non-pred, non-spilled) vreg: a position is occupied when the
    // value is live before it or defined at it, exactly as occupied() says.
    // Runs are collected per vreg (in ascending start order, since i only
    // grows) and emitted grouped by vreg index, preserving the segment
    // numbering the rest of the round keys its tie-breaking off.
    for (std::size_t wi = 0; wi < words; ++wi) tracked_mask[wi] = ~pred_mask[wi];
    for (std::uint32_t v = 0; v < nv; ++v) {
      if (spilled[v]) tracked_mask[v / 64] &= ~(std::uint64_t{1} << (v % 64));
    }
    std::fill(occ_prev.begin(), occ_prev.end(), 0);
    for (auto& r : runs) r.clear();
    for (std::int32_t i = 0; i <= n; ++i) {
      if (i < n) {
        const std::uint64_t* lb = before(i);
        for (std::size_t wi = 0; wi < words; ++wi) occ_cur[wi] = lb[wi] & tracked_mask[wi];
        const std::uint32_t d = def_at[static_cast<std::size_t>(i)];
        if (d != vir::kNoReg &&
            ((tracked_mask[d / 64] >> (d % 64)) & 1) != 0) {
          occ_cur[d / 64] |= std::uint64_t{1} << (d % 64);
        }
      } else {
        std::fill(occ_cur.begin(), occ_cur.end(), 0);
      }
      for (std::size_t wi = 0; wi < words; ++wi) {
        std::uint64_t opened = occ_cur[wi] & ~occ_prev[wi];
        while (opened) {
          const std::uint32_t v = static_cast<std::uint32_t>(
              wi * 64 + static_cast<std::uint32_t>(__builtin_ctzll(opened)));
          opened &= opened - 1;
          run_start[v] = i;
        }
        std::uint64_t closed = occ_prev[wi] & ~occ_cur[wi];
        while (closed) {
          const std::uint32_t v = static_cast<std::uint32_t>(
              wi * 64 + static_cast<std::uint32_t>(__builtin_ctzll(closed)));
          closed &= closed - 1;
          runs[v].emplace_back(run_start[v], i - 1);
        }
      }
      std::swap(occ_cur, occ_prev);
    }
    for (std::uint32_t v = 0; v < nv; ++v) {
      for (const auto& [start, end] : runs[v]) {
        vsegs[v].push_back(static_cast<std::int32_t>(segs.size()));
        segs.push_back(Seg{v, start, end});
      }
    }
    const std::size_t N = segs.size();
    auto seg_at = [&](std::uint32_t v, std::int32_t pos) -> std::int32_t {
      for (std::int32_t s : vsegs[v]) {
        if (segs[static_cast<std::size_t>(s)].start <= pos &&
            pos <= segs[static_cast<std::size_t>(s)].end) {
          return s;
        }
      }
      return -1;
    };
    const std::size_t nw = (N + 63) / 64;
    std::vector<std::uint64_t> adj(N * nw, 0);
    auto add_edge = [&](std::int32_t x, std::int32_t y) {
      if (x == y) return;
      adj[static_cast<std::size_t>(x) * nw + static_cast<std::size_t>(y) / 64] |=
          std::uint64_t{1} << (static_cast<std::size_t>(y) % 64);
      adj[static_cast<std::size_t>(y) * nw + static_cast<std::size_t>(x) / 64] |=
          std::uint64_t{1} << (static_cast<std::size_t>(x) % 64);
    };

    // A definition interferes with everything live after it, except the
    // source of a copy (so `mov d, s` leaves d and s coalescable).
    for (std::int32_t i = 0; i < n; ++i) {
      const std::uint32_t d = def_at[static_cast<std::size_t>(i)];
      if (d == vir::kNoReg || kernel.vreg_types[d] == VType::kPred || spilled[d]) continue;
      const Instr& in = kernel.code[static_cast<std::size_t>(i)];
      const std::uint32_t movsrc = in.op == Opcode::kMov ? in.a : vir::kNoReg;
      const std::int32_t nd = seg_at(d, i);
      if (nd < 0) continue;
      const std::uint64_t* la = after(i);
      for (std::size_t wi = 0; wi < words; ++wi) {
        std::uint64_t bits = la[wi];
        while (bits) {
          const std::uint32_t v =
              static_cast<std::uint32_t>(wi * 64 +
                                         static_cast<std::uint32_t>(__builtin_ctzll(bits)));
          bits &= bits - 1;
          if (v == d || v == movsrc || v >= nv) continue;
          if (kernel.vreg_types[v] == VType::kPred || spilled[v]) continue;
          const std::int32_t nvg = seg_at(v, i);
          if (nvg >= 0) add_edge(nd, nvg);
        }
      }
    }

    parent.assign(N, 0);
    for (std::size_t s = 0; s < N; ++s) parent[s] = static_cast<std::int32_t>(s);
    auto units_of = [&](std::int32_t s) {
      return vir::registers_of(kernel.vreg_types[segs[static_cast<std::size_t>(s)].vreg]);
    };
    // Per-rep member lists, maintained through every union so neighbor
    // collection only walks the rep's own adjacency rows instead of scanning
    // the whole graph. The set of neighbor reps is unchanged (only the order
    // they are discovered in differs, and every consumer is a sum, a
    // membership test, or a mark — all order-independent).
    std::vector<std::vector<std::int32_t>> members(N);
    for (std::size_t s = 0; s < N; ++s) members[s].assign(1, static_cast<std::int32_t>(s));
    auto merge_into = [&](std::int32_t rd, std::int32_t rs) {
      parent[static_cast<std::size_t>(rs)] = rd;
      auto& md = members[static_cast<std::size_t>(rd)];
      auto& ms = members[static_cast<std::size_t>(rs)];
      md.insert(md.end(), ms.begin(), ms.end());
      ms.clear();
    };
    // Rep-level neighbor collection (dedup via stamp vector).
    std::vector<std::int32_t> stamp(N, -1);
    int stamp_id = 0;
    std::vector<std::int32_t> nbuf;
    auto rep_neighbors = [&](std::int32_t x, std::vector<std::int32_t>& out) {
      ++stamp_id;
      out.clear();
      const std::int32_t rx = find(x);
      for (std::int32_t s : members[static_cast<std::size_t>(rx)]) {
        for (std::size_t wi = 0; wi < nw; ++wi) {
          std::uint64_t bits = adj[static_cast<std::size_t>(s) * nw + wi];
          while (bits) {
            const std::int32_t y = static_cast<std::int32_t>(
                wi * 64 + static_cast<std::size_t>(__builtin_ctzll(bits)));
            bits &= bits - 1;
            const std::int32_t ry = find(y);
            if (ry == rx || stamp[static_cast<std::size_t>(ry)] == stamp_id) continue;
            stamp[static_cast<std::size_t>(ry)] = stamp_id;
            out.push_back(ry);
          }
        }
      }
    };
    auto rep_adjacent = [&](std::int32_t x, std::int32_t y) {
      rep_neighbors(x, nbuf);
      const std::int32_t ry = find(y);
      for (std::int32_t r : nbuf) {
        if (r == ry) return true;
      }
      return false;
    };

    // Conservative copy coalescing, iterated to a fixpoint: merge the two
    // sides of a mov when the merged node is trivially colorable (its
    // unit-weighted degree plus its own width fits the cap).
    int round_coalesced = 0;
    bool changed = true;
    std::vector<std::int32_t> merged_nb;
    while (changed) {
      changed = false;
      for (std::int32_t i = 0; i < n; ++i) {
        const Instr& in = kernel.code[static_cast<std::size_t>(i)];
        if (in.op != Opcode::kMov || in.dst == vir::kNoReg || in.a == vir::kNoReg) continue;
        if (in.dst >= nv || in.a >= nv || in.dst == in.a) continue;
        if (kernel.vreg_types[in.dst] == VType::kPred || spilled[in.dst] ||
            kernel.vreg_types[in.a] == VType::kPred || spilled[in.a]) {
          continue;
        }
        if (kernel.vreg_types[in.dst] != kernel.vreg_types[in.a]) continue;
        const std::int32_t sd = seg_at(in.dst, i);
        const std::int32_t ss = seg_at(in.a, i);
        if (sd < 0 || ss < 0) continue;
        const std::int32_t rd = find(sd), rs = find(ss);
        if (rd == rs) continue;
        if (rep_adjacent(rd, rs)) continue;
        // Merged neighbor set = union of both reps' neighbor sets.
        rep_neighbors(rd, merged_nb);
        rep_neighbors(rs, nbuf);
        const std::int32_t keep = ++stamp_id;
        for (std::int32_t r : merged_nb) stamp[static_cast<std::size_t>(r)] = keep;
        for (std::int32_t r : nbuf) {
          if (stamp[static_cast<std::size_t>(r)] != keep) {
            stamp[static_cast<std::size_t>(r)] = keep;
            merged_nb.push_back(r);
          }
        }
        int deg_units = 0;
        for (std::int32_t r : merged_nb) {
          if (r != rd && r != rs) deg_units += units_of(r);
        }
        if (deg_units + units_of(rd) > cap) continue;
        merge_into(rd, rs);
        ++round_coalesced;
        changed = true;
      }
    }

    // Simplify: peel trivially colorable reps (lowest index first); when
    // stuck, optimistically push the cheapest remaining rep (Briggs).
    std::vector<std::int32_t> reps;
    for (std::size_t s = 0; s < N; ++s) {
      if (find(static_cast<std::int32_t>(s)) == static_cast<std::int32_t>(s)) {
        reps.push_back(static_cast<std::int32_t>(s));
      }
    }
    std::vector<char> peeled(N, 0);
    std::vector<std::int32_t> stack;
    // Full interference degree per rep, captured before simplification peels
    // the graph (the spill-cost denominator).
    std::vector<int> full_degree(N, 0);
    for (std::size_t s = 0; s < N; ++s) {
      if (find(static_cast<std::int32_t>(s)) != static_cast<std::int32_t>(s)) continue;
      rep_neighbors(static_cast<std::int32_t>(s), nbuf);
      int deg = 0;
      for (std::int32_t w : nbuf) deg += units_of(w);
      full_degree[s] = deg;
    }
    // Unit-weighted degree among the still-unpeeled reps, seeded from the
    // full degree and decremented as neighbors peel off — the same quantity
    // the peel loop used to recompute from the graph on every probe.
    std::vector<int> deg_units_left = full_degree;
    std::size_t remaining = reps.size();
    while (remaining > 0) {
      std::int32_t pick = -1;
      for (std::int32_t r : reps) {
        if (peeled[static_cast<std::size_t>(r)]) continue;
        if (deg_units_left[static_cast<std::size_t>(r)] + units_of(r) <= cap) {
          pick = r;
          break;
        }
      }
      if (pick < 0) {
        // Optimistic push: lowest-cost rep (its vreg may spill later).
        double best = 0.0;
        for (std::int32_t r : reps) {
          if (peeled[static_cast<std::size_t>(r)]) continue;
          const double c = access_cost[segs[static_cast<std::size_t>(r)].vreg];
          if (pick < 0 || c < best) {
            pick = r;
            best = c;
          }
        }
      }
      peeled[static_cast<std::size_t>(pick)] = 1;
      stack.push_back(pick);
      --remaining;
      rep_neighbors(pick, nbuf);
      for (std::int32_t w : nbuf) {
        if (!peeled[static_cast<std::size_t>(w)]) {
          deg_units_left[static_cast<std::size_t>(w)] -= units_of(pick);
        }
      }
    }

    // Select: pop in reverse, first-fit with even-aligned pairs.
    color.assign(N, -1);
    std::vector<char> failed_vreg(nv, 0);
    bool any_failed = false;
    for (std::size_t idx = stack.size(); idx-- > 0;) {
      const std::int32_t r = stack[idx];
      rep_neighbors(r, nbuf);
      taken.assign(static_cast<std::size_t>(cap), 0);
      for (std::int32_t w : nbuf) {
        if (color[static_cast<std::size_t>(w)] < 0) continue;
        for (int u = 0; u < units_of(w); ++u) {
          const int unit = color[static_cast<std::size_t>(w)] + u;
          if (unit < cap) taken[static_cast<std::size_t>(unit)] = 1;
        }
      }
      const int units = units_of(r);
      int unit = -1;
      if (units == 1) {
        for (int u = 0; u < cap; ++u) {
          if (!taken[static_cast<std::size_t>(u)]) {
            unit = u;
            break;
          }
        }
      } else {
        for (int u = 0; u + 1 < cap; u += 2) {
          if (!taken[static_cast<std::size_t>(u)] && !taken[static_cast<std::size_t>(u) + 1]) {
            unit = u;
            break;
          }
        }
      }
      if (unit < 0) {
        any_failed = true;
        for (std::int32_t s : members[static_cast<std::size_t>(r)]) {
          failed_vreg[segs[static_cast<std::size_t>(s)].vreg] = 1;
        }
        continue;
      }
      color[static_cast<std::size_t>(r)] = unit;
    }

    if (!any_failed) {
      coalesced = round_coalesced;
      break;
    }

    // Spill exactly one vreg: the cheapest among those that failed to color.
    // Remat-eligible values are preferred (recomputing beats reloading).
    std::int32_t victim = -1;
    double victim_cost = 0.0;
    for (std::uint32_t v = 0; v < nv; ++v) {
      if (!failed_vreg[v]) continue;
      int maxdeg = 0;
      for (std::int32_t s : vsegs[v]) {
        maxdeg = std::max(maxdeg, full_degree[static_cast<std::size_t>(find(s))]);
      }
      double c = access_cost[v] / (1.0 + maxdeg);
      if (remat_ok[v]) c *= 0.25;
      if (victim < 0 || c < victim_cost) {
        victim = static_cast<std::int32_t>(v);
        victim_cost = c;
      }
    }
    spilled[static_cast<std::size_t>(victim)] = 1;
  }

  // -- results ----------------------------------------------------------------
  int high_water = 0;
  for (std::size_t s = 0; s < segs.size(); ++s) {
    const std::int32_t r = find(static_cast<std::int32_t>(s));
    const int unit = color[static_cast<std::size_t>(r)];
    const int units = vir::registers_of(kernel.vreg_types[segs[s].vreg]);
    high_water = std::max(high_water, unit + units);
    LiveRange range;
    range.vreg = segs[s].vreg;
    range.start = segs[s].start;
    range.end = segs[s].end;
    range.first_unit = unit;
    range.units = units;
    range.spill_slot = -1;
    result.ranges.push_back(range);
  }
  result.regs_used = high_water;
  for (std::uint32_t v = 0; v < nv; ++v) {
    result.split_ranges +=
        std::max(0, static_cast<int>(vsegs[v].size()) - 1);
    if (!spilled[v]) continue;
    result.spilled[v] = true;
    result.remat[v] = remat_ok[v] != 0;
    ++result.spills;
    if (result.remat[v]) ++result.remat_count;
    LiveRange range;
    range.vreg = v;
    range.start = first_pos[v] >= 0 ? first_pos[v] : 0;
    range.end = last_pos[v] >= 0 ? last_pos[v] : 0;
    range.first_unit = -1;
    range.units = vir::registers_of(kernel.vreg_types[v]);
    range.spill_slot = reserve_spill_slot(result, kernel.vreg_types[v]);
    result.ranges.push_back(range);
  }
  std::stable_sort(result.ranges.begin(), result.ranges.end(),
                   [](const LiveRange& a, const LiveRange& b) {
                     return a.start < b.start ||
                            (a.start == b.start && a.vreg < b.vreg);
                   });
  result.coalesced = coalesced;
  result.iterations = iterations;

  // Static spill traffic, derived from the spilled set exactly like the
  // linear allocator (rematerialized vregs included: the counts describe the
  // demotion, the simulator's latency model decides what each access costs).
  for (const Instr& in : kernel.code) {
    if (vir::has_dst(in.op) && in.dst != vir::kNoReg && result.spilled[in.dst]) {
      ++result.spill_stores;
    }
    vir::for_each_use(in, [&](std::uint32_t r) {
      if (result.spilled[r]) ++result.spill_loads;
    });
  }
  return result;
}

}  // namespace safara::regalloc

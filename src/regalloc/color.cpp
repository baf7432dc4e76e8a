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
#include <cstdint>
#include <numeric>
#include <vector>

#include "vir/cfg.hpp"

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
  vir::Analyses analyses(kernel);
  const std::vector<vir::BasicBlock>& blocks = analyses.blocks();
  const vir::BlockLiveness& bl = analyses.liveness();
  const std::size_t words = (static_cast<std::size_t>(nv) + 63) / 64;

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
  static constexpr double kPow10[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6};  // depth <= 6
  const std::vector<int> depth = instruction_loop_depth(kernel);
  std::vector<std::int32_t> first_pos(nv, -1), last_pos(nv, -1);
  std::vector<double> access_cost(nv, 0.0);
  std::vector<char> remat_ok = remat_eligible_all(kernel, nv);
  for (std::uint32_t v = 0; v < nv; ++v) {
    if (kernel.vreg_types[v] == VType::kPred) remat_ok[v] = 0;
  }
  for (std::int32_t i = 0; i < n; ++i) {
    const Instr& in = kernel.code[static_cast<std::size_t>(i)];
    const double mult = kPow10[depth[static_cast<std::size_t>(i)]];
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
  // Every round's graph lives in one array of bitset rows, one per segment.
  // Coalescing folds the absorbed rep's row into the survivor's and renames
  // it in its neighbours' rows, so from then on a rep's row is exactly its
  // set of neighbouring reps: simplify and select read rows, never members.
  std::vector<char> spilled(nv, 0);
  std::vector<Seg> segs;  // final round's segments, grouped by vreg, ascending start
  // Vreg v's segments are segs[seg_begin[v]] up to segs[seg_begin[v + 1]].
  std::vector<std::int32_t> seg_begin(static_cast<std::size_t>(nv) + 1);
  std::vector<int> color;                  // per union rep: first unit
  std::vector<std::int32_t> parent;        // union-find over segs
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
  auto for_each_bit = [](const std::uint64_t* row, std::size_t nwords, auto&& fn) {
    for (std::size_t wi = 0; wi < nwords; ++wi) {
      for (std::uint64_t bits = row[wi]; bits; bits &= bits - 1) {
        fn(static_cast<std::int32_t>(wi * 64 + static_cast<std::size_t>(__builtin_ctzll(bits))));
      }
    }
  };
  auto set_bit = [](std::uint64_t* bits, std::int32_t s) {
    bits[static_cast<std::size_t>(s) / 64] |= std::uint64_t{1} << (s % 64);
  };
  auto clear_bit = [](std::uint64_t* bits, std::int32_t s) {
    bits[static_cast<std::size_t>(s) / 64] &= ~(std::uint64_t{1} << (s % 64));
  };

  // Per-round scratch, hoisted so each rebuild re-uses the same capacity.
  std::vector<std::uint64_t> tracked_mask(words, 0);
  std::vector<std::uint64_t> occ_cur(words, 0), occ_prev(words, 0);
  std::vector<std::int32_t> run_start(nv, -1), fill_at(nv);
  std::vector<Seg> runs;
  std::vector<std::uint64_t> adj, wide, live, easy;
  std::vector<int> full_degree, deg_left;
  std::vector<std::int32_t> stack;
  // Select's unit bitset: bits at and past the cap start taken, so first-fit
  // never reaches them and a pair never takes the last unit of an odd cap.
  const std::size_t cap_words = (static_cast<std::size_t>(cap) + 63) / 64;
  std::vector<std::uint64_t> beyond_cap(cap_words, 0), taken(cap_words);
  if (cap % 64 != 0) beyond_cap.back() = ~std::uint64_t{0} << (cap % 64);

  for (;;) {
    ++iterations;
    // One occupancy sweep over the code finds every maximal run of every
    // tracked (non-pred, non-spilled) vreg: a position is occupied when the
    // value is live before it or defined at it, exactly as occupied() says.
    // Runs are collected as they close and then placed grouped by vreg
    // index (a vreg's runs close in ascending start order), which is the
    // segment numbering the rest of the round keys its tie-breaking off.
    for (std::size_t wi = 0; wi < words; ++wi) tracked_mask[wi] = ~pred_mask[wi];
    for (std::uint32_t v = 0; v < nv; ++v) {
      if (spilled[v]) tracked_mask[v / 64] &= ~(std::uint64_t{1} << (v % 64));
    }
    std::fill(occ_prev.begin(), occ_prev.end(), 0);
    runs.clear();
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
          runs.push_back(Seg{v, run_start[v], i - 1});
        }
      }
      std::swap(occ_cur, occ_prev);
    }
    std::fill(seg_begin.begin(), seg_begin.end(), 0);
    for (const Seg& r : runs) ++seg_begin[r.vreg + 1];
    for (std::uint32_t v = 0; v < nv; ++v) seg_begin[v + 1] += seg_begin[v];
    std::copy(seg_begin.begin(), seg_begin.end() - 1, fill_at.begin());
    segs.resize(runs.size());
    for (const Seg& r : runs) segs[static_cast<std::size_t>(fill_at[r.vreg]++)] = r;

    const std::size_t N = segs.size();
    auto seg_at = [&](std::uint32_t v, std::int32_t pos) -> std::int32_t {
      for (std::int32_t s = seg_begin[v]; s < seg_begin[v + 1]; ++s) {
        if (segs[static_cast<std::size_t>(s)].start <= pos &&
            pos <= segs[static_cast<std::size_t>(s)].end) {
          return s;
        }
      }
      return -1;
    };
    auto units_of = [&](std::int32_t s) {
      return vir::registers_of(kernel.vreg_types[segs[static_cast<std::size_t>(s)].vreg]);
    };
    const std::size_t nw = (N + 63) / 64;
    adj.assign(N * nw, 0);
    auto row = [&](std::int32_t s) { return adj.data() + static_cast<std::size_t>(s) * nw; };
    // Segments holding a 64-bit value: a row's unit-weighted degree is its
    // popcount plus the popcount of its wide neighbours.
    wide.assign(nw, 0);
    for (std::size_t s = 0; s < N; ++s) {
      if (units_of(static_cast<std::int32_t>(s)) == 2) set_bit(wide.data(), static_cast<std::int32_t>(s));
    }
    auto units_in = [&](std::uint64_t bits, std::size_t wi) {
      return __builtin_popcountll(bits) + __builtin_popcountll(bits & wide[wi]);
    };

    // A definition interferes with everything live after it, except the
    // source of a copy (so `mov d, s` leaves d and s coalescable). Live
    // after i is the next instruction's live_before inside a block, the
    // block's live_out at its last instruction.
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      for (std::int32_t i = blocks[b].begin; i < blocks[b].end; ++i) {
        const std::uint32_t d = def_at[static_cast<std::size_t>(i)];
        if (d == vir::kNoReg || kernel.vreg_types[d] == VType::kPred || spilled[d]) continue;
        const Instr& in = kernel.code[static_cast<std::size_t>(i)];
        const std::uint32_t movsrc = in.op == Opcode::kMov ? in.a : vir::kNoReg;
        const std::int32_t nd = seg_at(d, i);
        if (nd < 0) continue;
        const std::uint64_t* la = i + 1 < blocks[b].end ? before(i + 1) : bl.out(b);
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
            if (nvg >= 0) {
              set_bit(row(nd), nvg);
              set_bit(row(nvg), nd);
            }
          }
        }
      }
    }

    parent.resize(N);
    std::iota(parent.begin(), parent.end(), 0);

    // Conservative copy coalescing, iterated to a fixpoint: merge the two
    // sides of a mov when the merged node is trivially colorable (its
    // unit-weighted degree plus its own width fits the cap).
    int round_coalesced = 0;
    bool changed = true;
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
        std::uint64_t* rd_row = row(rd);
        std::uint64_t* rs_row = row(rs);
        if ((rd_row[rs / 64] >> (rs % 64)) & 1) continue;  // they interfere
        int deg_units = 0;
        for (std::size_t wi = 0; wi < nw; ++wi) deg_units += units_in(rd_row[wi] | rs_row[wi], wi);
        if (deg_units + units_of(rd) > cap) continue;
        for_each_bit(rs_row, nw, [&](std::int32_t y) {
          clear_bit(row(y), rs);
          set_bit(row(y), rd);
        });
        for (std::size_t wi = 0; wi < nw; ++wi) {
          rd_row[wi] |= rs_row[wi];
          rs_row[wi] = 0;
        }
        parent[static_cast<std::size_t>(rs)] = rd;
        ++round_coalesced;
        changed = true;
      }
    }

    // Simplify: peel trivially colorable reps (lowest index first: the
    // lowest bit of `easy`); when stuck, optimistically push the cheapest
    // unpeeled rep (Briggs). `live` holds the unpeeled reps. Each rep's
    // full interference degree, captured before simplification peels the
    // graph, is the spill-cost denominator; `deg_left` is the same degree
    // among unpeeled reps, decremented as neighbours peel off.
    live.assign(nw, 0);
    easy.assign(nw, 0);
    full_degree.assign(N, 0);
    std::size_t remaining = 0;
    for (std::size_t s = 0; s < N; ++s) {
      const std::int32_t r = static_cast<std::int32_t>(s);
      if (parent[s] != r) continue;
      int deg = 0;
      for (std::size_t wi = 0; wi < nw; ++wi) deg += units_in(row(r)[wi], wi);
      full_degree[s] = deg;
      set_bit(live.data(), r);
      if (deg + units_of(r) <= cap) set_bit(easy.data(), r);
      ++remaining;
    }
    deg_left = full_degree;
    stack.clear();
    for (; remaining > 0; --remaining) {
      std::int32_t pick = -1;
      for (std::size_t wi = 0; wi < nw && pick < 0; ++wi) {
        if (easy[wi]) pick = static_cast<std::int32_t>(wi * 64) + __builtin_ctzll(easy[wi]);
      }
      if (pick < 0) {
        // Optimistic push: lowest-cost rep (its vreg may spill later).
        double best = 0.0;
        for_each_bit(live.data(), nw, [&](std::int32_t r) {
          const double c = access_cost[segs[static_cast<std::size_t>(r)].vreg];
          if (pick < 0 || c < best) {
            pick = r;
            best = c;
          }
        });
      }
      clear_bit(live.data(), pick);
      clear_bit(easy.data(), pick);
      stack.push_back(pick);
      const int pick_units = units_of(pick);
      const std::uint64_t* pick_row = row(pick);
      for (std::size_t wi = 0; wi < nw; ++wi) {
        for (std::uint64_t bits = pick_row[wi] & live[wi]; bits; bits &= bits - 1) {
          const std::int32_t w =
              static_cast<std::int32_t>(wi * 64 + static_cast<std::size_t>(__builtin_ctzll(bits)));
          deg_left[static_cast<std::size_t>(w)] -= pick_units;
          if (deg_left[static_cast<std::size_t>(w)] + units_of(w) <= cap) set_bit(easy.data(), w);
        }
      }
    }

    // Select: pop in reverse, first-fit over the free units; a 64-bit value
    // takes an even-aligned pair, which never straddles a word.
    color.assign(N, -1);
    bool any_failed = false;
    for (std::size_t idx = stack.size(); idx-- > 0;) {
      const std::int32_t r = stack[idx];
      taken = beyond_cap;
      for_each_bit(row(r), nw, [&](std::int32_t w) {
        const int c = color[static_cast<std::size_t>(w)];
        if (c < 0) return;
        const std::uint64_t units = units_of(w) == 2 ? 3 : 1;
        taken[static_cast<std::size_t>(c) / 64] |= units << (c % 64);
      });
      const bool pair = units_of(r) == 2;
      for (std::size_t wi = 0; wi < cap_words; ++wi) {
        std::uint64_t free = ~taken[wi];
        if (pair) free &= (free >> 1) & 0x5555555555555555ull;
        if (free) {
          color[static_cast<std::size_t>(r)] =
              static_cast<int>(wi * 64) + __builtin_ctzll(free);
          break;
        }
      }
      if (color[static_cast<std::size_t>(r)] < 0) any_failed = true;
    }

    if (!any_failed) {
      coalesced = round_coalesced;
      break;
    }

    // Spill exactly one vreg: the cheapest among those whose rep failed to
    // color, against the largest full degree over its segments' reps.
    // Remat-eligible values are preferred (recomputing beats reloading).
    std::int32_t victim = -1;
    double victim_cost = 0.0;
    for (std::uint32_t v = 0; v < nv; ++v) {
      bool failed = false;
      int maxdeg = 0;
      for (std::int32_t s = seg_begin[v]; s < seg_begin[v + 1]; ++s) {
        const std::size_t r = static_cast<std::size_t>(find(s));
        failed = failed || color[r] < 0;
        maxdeg = std::max(maxdeg, full_degree[r]);
      }
      if (!failed) continue;
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
    result.split_ranges += std::max(0, seg_begin[v + 1] - seg_begin[v] - 1);
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

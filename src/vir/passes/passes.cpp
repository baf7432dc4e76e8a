#include "vir/passes/passes.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "vir/cfg.hpp"
#include "vir/ssa.hpp"

namespace safara::vir::passes {

namespace {

/// Definition count per virtual register. Multi-def registers are codegen's
/// mutable slots; every pass treats them as opaque.
std::vector<int> def_counts(const Kernel& k) {
  std::vector<int> defs(k.num_vregs(), 0);
  for (const Instr& in : k.code) {
    if (has_dst(in.op) && in.dst != kNoReg) ++defs[in.dst];
  }
  return defs;
}

std::vector<int> use_counts(const Kernel& k) {
  std::vector<int> uses(k.num_vregs(), 0);
  for (const Instr& in : k.code) {
    for_each_use(in, [&](std::uint32_t r) { ++uses[r]; });
  }
  return uses;
}

/// Replaces every operand read of `from` with `to`, program-wide. Only legal
/// for single-def registers whose definitions carry the same value.
void rewrite_uses(Kernel& k, std::uint32_t from, std::uint32_t to) {
  for (Instr& in : k.code) {
    if (in.a == from) in.a = to;
    if (in.b == from) in.b = to;
    if (in.c == from) in.c = to;
  }
}

}  // namespace

int max_live_pressure(const Kernel& k, Analyses& a) {
  if (k.code.empty()) return 0;
  const LiveExtents x = compute_live_extents(k, a);
  std::vector<int> delta(k.code.size() + 1, 0);
  for (std::uint32_t r = 0; r < k.num_vregs(); ++r) {
    const int w = registers_of(k.vreg_types[r]);
    // Predicates (w == 0) live in their own file; start < 0 is never live.
    if (w == 0 || x.start[r] < 0) continue;
    delta[static_cast<std::size_t>(x.start[r])] += w;
    delta[static_cast<std::size_t>(x.end[r]) + 1] -= w;
  }
  int cur = 0, peak = 0;
  for (int d : delta) {
    cur += d;
    peak = std::max(peak, cur);
  }
  return peak;
}

int run_copy_propagation(Kernel& k) {
  int removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    const std::vector<int> defs = def_counts(k);
    std::vector<char> dead(k.code.size(), 0);
    for (std::size_t i = 0; i < k.code.size(); ++i) {
      const Instr& in = k.code[i];
      if (in.op != Opcode::kMov || in.dst == kNoReg || in.a == kNoReg) continue;
      if (in.dst == in.a) {  // identity copy: a no-op at any def count
        dead[i] = 1;
        changed = true;
        continue;
      }
      if (defs[in.dst] != 1 || defs[in.a] != 1) continue;
      if (k.vreg_types[in.dst] != k.vreg_types[in.a]) continue;
      rewrite_uses(k, in.dst, in.a);
      dead[i] = 1;
      changed = true;
    }
    if (changed) removed += remove_dead(k, dead);
  }
  return removed;
}

namespace {

// (opcode, op type, dst type, operands, immediates, flags) — everything a
// pure instruction's value depends on.
using GvnKey = std::tuple<std::uint8_t, std::uint8_t, std::uint8_t, std::uint32_t,
                          std::uint32_t, std::uint32_t, std::int64_t, std::uint64_t,
                          std::uint8_t>;

struct GvnKeyHash {
  std::size_t operator()(const GvnKey& key) const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::apply([&h](auto... field) {
      ((h = (h ^ static_cast<std::uint64_t>(field)) * 0x100000001b3ull), ...);
    }, key);
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

/// `rename` maps each vreg to the value that replaces it (itself if none).
GvnKey make_gvn_key(const Instr& in, const Kernel& k, const std::vector<std::uint32_t>& rename) {
  auto operand = [&](std::uint32_t r) { return r == kNoReg ? r : rename[r]; };
  std::uint32_t a = operand(in.a), b = operand(in.b);
  // Normalize commutative operations where swapping is bit-exact: integer
  // arithmetic/compares and predicate logic. Float add/mul/min/max are
  // excluded (NaN propagation is order-sensitive).
  const bool int_ty = in.type == VType::kI32 || in.type == VType::kI64;
  const bool commutes =
      (int_ty && (in.op == Opcode::kAdd || in.op == Opcode::kMul ||
                  in.op == Opcode::kMin || in.op == Opcode::kMax ||
                  in.op == Opcode::kSetEq || in.op == Opcode::kSetNe)) ||
      in.op == Opcode::kPredAnd || in.op == Opcode::kPredOr;
  if (commutes && a != kNoReg && b != kNoReg && a > b) std::swap(a, b);
  std::uint64_t fbits = 0;
  static_assert(sizeof fbits == sizeof in.fimm);
  std::memcpy(&fbits, &in.fimm, sizeof fbits);
  return {static_cast<std::uint8_t>(in.op), static_cast<std::uint8_t>(in.type),
          static_cast<std::uint8_t>(k.vreg_types[in.dst]), a, b, operand(in.c), in.imm,
          fbits, in.flags};
}

}  // namespace

int run_gvn(Kernel& k, Analyses& a) {
  if (k.code.empty()) return 0;
  const std::vector<int> defs = def_counts(k);
  const Cfg& cfg = a.cfg();

  // A hit redirects its dst's uses to the dominating value. The kernel is
  // left untouched during the walk: operands are read through `rename`,
  // which is applied once at the end. A replacement value was numbered
  // before the hit and is never replaced itself, so one lookup suffices.
  std::vector<std::uint32_t> rename(k.num_vregs());
  std::iota(rename.begin(), rename.end(), 0u);
  int hits = 0;
  std::vector<char> dead(k.code.size(), 0);

  // One value table scoped to the dominator tree: a block sees exactly the
  // values of its dominators, so a hit always has a dominating def. The
  // walk is a preorder DFS visiting children last-first; each block's
  // entries are erased when its subtree is done.
  std::unordered_map<GvnKey, std::uint32_t, GvnKeyHash> table;
  table.reserve(k.code.size());
  std::vector<GvnKey> scope;  // keys inserted along the current path
  auto number_block = [&](std::int32_t block) {
    const BasicBlock& bb = cfg.blocks[static_cast<std::size_t>(block)];
    for (std::int32_t i = bb.begin; i < bb.end; ++i) {
      const Instr& in = k.code[i];
      // Phis are pure but their value depends on the edge taken, not on
      // their operand tuple — never number them.
      if (in.op == Opcode::kPhi) continue;
      if (!is_pure(in.op) || !has_dst(in.op) || in.dst == kNoReg) continue;
      if (defs[in.dst] != 1) continue;
      bool stable = true;
      for_each_use(in, [&](std::uint32_t r) {
        if (defs[r] != 1) stable = false;
      });
      if (!stable) continue;
      GvnKey key = make_gvn_key(in, k, rename);
      const auto [it, inserted] = table.try_emplace(key, in.dst);
      if (inserted) {
        scope.push_back(std::move(key));
      } else {
        rename[in.dst] = it->second;
        dead[static_cast<std::size_t>(i)] = 1;
        ++hits;
      }
    }
  };
  struct Visit {
    std::int32_t block;
    std::size_t children_left;
    std::size_t scope_mark;  // scope.size() before this block's entries
  };
  std::vector<Visit> path{{0, cfg.dom_children[0].size(), 0}};
  number_block(0);
  while (!path.empty()) {
    Visit& v = path.back();
    if (v.children_left == 0) {
      for (std::size_t j = v.scope_mark; j < scope.size(); ++j) table.erase(scope[j]);
      scope.resize(v.scope_mark);
      path.pop_back();
      continue;
    }
    const std::int32_t child = cfg.dom_children[static_cast<std::size_t>(v.block)][--v.children_left];
    path.push_back({child, cfg.dom_children[static_cast<std::size_t>(child)].size(), scope.size()});
    number_block(child);
  }

  if (hits == 0) return 0;
  const int pressure_before = max_live_pressure(k, a);
  std::vector<Instr> code = k.code;
  std::vector<std::int32_t> labels = k.labels;
  for (Instr& in : k.code) {
    if (in.a != kNoReg) in.a = rename[in.a];
    if (in.b != kNoReg) in.b = rename[in.b];
    if (in.c != kNoReg) in.c = rename[in.c];
  }
  remove_dead(k, dead);
  a.invalidate();
  // Merging computations can lengthen the surviving value's live range (an
  // immediate re-materialized per block is cheaper than one register pinned
  // across the loop). The pipeline's contract is pressure-monotone, so any
  // net loss reverts the whole pass.
  if (max_live_pressure(k, a) > pressure_before) {
    k.code = std::move(code);
    k.labels = std::move(labels);
    a.invalidate();
    return 0;
  }
  return hits;
}

int run_dce(Kernel& k) {
  int removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    const std::vector<int> uses = use_counts(k);
    std::vector<char> dead(k.code.size(), 0);
    for (std::size_t i = 0; i < k.code.size(); ++i) {
      const Instr& in = k.code[i];
      // Stores, atomics, branches, and exit have no dst and are never
      // candidates. Global loads are side-effect-free in this machine model,
      // so a load nobody reads is dead too.
      if (!has_dst(in.op)) continue;
      if (!is_pure(in.op) && in.op != Opcode::kLdGlobal) continue;
      if (in.dst != kNoReg && uses[in.dst] > 0) continue;
      dead[i] = 1;
      changed = true;
    }
    if (changed) removed += remove_dead(k, dead);
  }
  return removed;
}

int run_strength_reduction(Kernel& k) {
  const std::vector<int> defs = def_counts(k);
  std::vector<std::int32_t> def_pos(k.num_vregs(), -1);
  for (std::size_t i = 0; i < k.code.size(); ++i) {
    const Instr& in = k.code[i];
    if (has_dst(in.op) && in.dst != kNoReg && defs[in.dst] == 1) {
      def_pos[in.dst] = static_cast<std::int32_t>(i);
    }
  }
  // The literal integer value of `r` at instruction `at`, if known.
  auto const_of = [&](std::uint32_t r, std::int32_t at, std::int64_t& out) {
    if (r == kNoReg || defs[r] != 1) return false;
    const std::int32_t d = def_pos[r];
    if (d < 0 || d >= at) return false;
    const Instr& din = k.code[static_cast<std::size_t>(d)];
    if (din.op != Opcode::kMovImmI) return false;
    out = din.imm;
    return true;
  };
  auto to_mov = [](Instr& in, std::uint32_t src) {
    in.op = Opcode::kMov;
    in.a = src;
    in.b = kNoReg;
    in.c = kNoReg;
    in.imm = 0;
  };
  auto to_imm = [](Instr& in, std::int64_t value) {
    in.op = Opcode::kMovImmI;
    in.a = kNoReg;
    in.b = kNoReg;
    in.c = kNoReg;
    in.imm = value;
  };

  int reduced = 0;
  for (std::size_t idx = 0; idx < k.code.size(); ++idx) {
    Instr& in = k.code[idx];
    // Integer identities only: the float analogues (x*1.0, x+0.0) are not
    // bit-exact under -0.0 and NaN, and bit-exactness is the fuzz oracle's
    // contract.
    if (in.type != VType::kI32 && in.type != VType::kI64) continue;
    const std::int32_t at = static_cast<std::int32_t>(idx);
    std::int64_t ca = 0, cb = 0;
    const bool has_ca = const_of(in.a, at, ca);
    const bool has_cb = const_of(in.b, at, cb);
    switch (in.op) {
      case Opcode::kMul:
        // Check the annihilator first so `0 * 2` folds straight to 0; the
        // weaker rewrites below can then never re-fire on their own output.
        if ((has_ca && ca == 0) || (has_cb && cb == 0)) {
          to_imm(in, 0);
          ++reduced;
        } else if (has_cb && (cb == 1 || cb == 2 || cb == -1)) {
          if (cb == 1) to_mov(in, in.a);
          else if (cb == -1) {
            in.op = Opcode::kNeg;
            in.b = kNoReg;
          } else {  // x*2 -> x+x: one ALU add beats the wide-multiply path
            in.op = Opcode::kAdd;
            in.b = in.a;
          }
          ++reduced;
        } else if (has_ca && (ca == 1 || ca == 2 || ca == -1)) {
          if (ca == 1) to_mov(in, in.b);
          else if (ca == -1) {
            in.op = Opcode::kNeg;
            in.a = in.b;
            in.b = kNoReg;
          } else {
            in.op = Opcode::kAdd;
            in.a = in.b;
          }
          ++reduced;
        }
        break;
      case Opcode::kAdd:
        if (has_cb && cb == 0) {
          to_mov(in, in.a);
          ++reduced;
        } else if (has_ca && ca == 0) {
          to_mov(in, in.b);
          ++reduced;
        }
        break;
      case Opcode::kSub:
        if (has_cb && cb == 0) {
          to_mov(in, in.a);
          ++reduced;
        }
        break;
      case Opcode::kDiv:
        if (has_cb && cb == 1) {
          to_mov(in, in.a);
          ++reduced;
        }
        break;
      case Opcode::kRem:
        if (has_cb && cb == 1) {
          to_imm(in, 0);
          ++reduced;
        }
        break;
      default:
        break;
    }
  }
  return reduced;
}

int run_pressure_scheduling(Kernel& k, Analyses& a) {
  if (k.code.empty()) return 0;
  const std::vector<int> defs = def_counts(k);
  const std::vector<BasicBlock>& blocks = a.blocks();

  // The pass only reorders k.code, so the code before the first move is all
  // a revert needs.
  std::vector<Instr> original;
  int moves = 0;
  for (const BasicBlock& bb : blocks) {
    // Bottom-up so a sunk producer's consumer has already reached its final
    // slot; sinking moves instructions later only, which keeps the positions
    // below the cursor stable.
    for (std::int32_t i = bb.end - 2; i >= bb.begin; --i) {
      const Instr in = k.code[i];
      // Phis must stay contiguous at their block head.
      if (in.op == Opcode::kPhi) continue;
      if (!is_pure(in.op) || !has_dst(in.op) || in.dst == kNoReg) continue;
      if (defs[in.dst] != 1) continue;
      bool movable = true;
      for_each_use(in, [&](std::uint32_t r) {
        if (defs[r] != 1) movable = false;  // a slot read must keep its place
      });
      if (!movable) continue;
      std::int32_t first_use = -1;
      for (std::int32_t p = i + 1; p < bb.end && first_use < 0; ++p) {
        for_each_use(k.code[p], [&](std::uint32_t r) {
          if (r == in.dst) first_use = p;
        });
      }
      if (first_use <= i + 1) continue;  // already adjacent, or no in-block use
      if (moves == 0) original = k.code;
      std::rotate(k.code.begin() + i, k.code.begin() + i + 1,
                  k.code.begin() + first_use);
      ++moves;
    }
  }

  if (moves == 0) return 0;
  // Strict gate: adjacency between a producer and its consumer costs issue
  // stalls in the scoreboarded SM model, so reordering is only worth keeping
  // when it actually lowers the peak — pressure-neutral shuffles revert.
  // Both orders share one liveness: moves inside a block change no block's
  // live-in or live-out set, only the extents.
  const int pressure_after = max_live_pressure(k, a);
  std::swap(k.code, original);  // measure, and by default keep, the original
  if (pressure_after >= max_live_pressure(k, a)) return 0;
  k.code = std::move(original);
  return moves;
}

PassStats run_pipeline(Kernel& k, int opt_level) {
  PassStats s;
  Analyses a(k);
  s.pressure_before = max_live_pressure(k, a);
  s.pressure_after = s.pressure_before;

  // One round: SSA in, the level's passes, SSA out. The round is kept only
  // when it performed counted optimization work, strictly shrank the kernel,
  // and did not raise peak pressure — otherwise the kernel is restored
  // wholesale. One round leaves nothing for a second to keep on any kernel
  // shape the compiler emits (VirPasses.PipelineIsAFixpoint runs every
  // config's kernels through it twice), so the pipeline is a fixpoint: a
  // second run reverts its round, is byte-identical and reports zero work.
  //
  // A pass that reports work changed the code, so `note` marks the analyses
  // stale for their next reader; the SSA round trip, GVN and scheduling take
  // the bundle and keep it in step themselves. A restored kernel is never
  // read through the bundle again.
  auto note = [&a](int work) {
    if (work > 0) a.invalidate();
    return work;
  };
  if (opt_level > 0) {
    ++s.pipeline_iterations;
    const Kernel snapshot = k;
    const ssa::ConstructStats cs = ssa::construct(k, a);
    s.phi_count = cs.phis;

    PassStats it;
    it.copyprop_removed += note(run_copy_propagation(k));
    it.dce_removed += note(run_dce(k));
    if (opt_level >= 2) {
      it.strength_reduced = note(run_strength_reduction(k));
      // Strength reduction mints movs; fold them before value numbering so
      // GVN sees canonical operands.
      it.copyprop_removed += note(run_copy_propagation(k));
      it.gvn_hits = run_gvn(k, a);
      it.dce_removed += note(run_dce(k));
      it.sched_moves = run_pressure_scheduling(k, a);
    }
    const int counted = it.copyprop_removed + it.gvn_hits + it.dce_removed +
                        it.strength_reduced + it.sched_moves;
    ssa::DestructStats ds;
    if (counted > 0 && cs.converted) ds = ssa::destruct(k, a);
    const bool shrank = counted > 0 && ds.ok && k.code.size() < snapshot.code.size();
    const int pressure_out = shrank ? max_live_pressure(k, a) : 0;
    if (shrank && pressure_out <= s.pressure_before) {
      s.pressure_after = pressure_out;
      s.copyprop_removed = it.copyprop_removed;
      s.gvn_hits = it.gvn_hits;
      s.dce_removed = it.dce_removed;
      s.strength_reduced = it.strength_reduced;
      s.sched_moves = it.sched_moves;
      s.ssa_copies_folded = cs.copies_folded;
      s.phi_copies_coalesced = ds.coalesced;
    } else {
      k = snapshot;
    }
  }
  s.dom_builds = a.dom_builds();
  s.liveness_runs = a.liveness_runs();
  return s;
}

}  // namespace safara::vir::passes

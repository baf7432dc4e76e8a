// Machine-independent VIR optimizer pipeline, run between codegen and the
// ptxas-sim register allocator. The passes exist to cut register pressure —
// the quantity the paper's whole feedback loop is built around — not to
// minimize instruction count for its own sake.
//
// Codegen materializes variables and loop induction values as multi-def
// "mutable slots"; each standalone pass restricts itself to single-def
// virtual registers (def count == 1) so it stays sound on raw codegen
// output. `run_pipeline` lifts that restriction by converting the kernel to
// SSA form first (src/vir/ssa.hpp): after renaming, every slot def is its
// own single-def vreg, so the guards are trivially true and the passes see
// all values. Phis are destroyed again before the pipeline returns — no
// consumer outside this file ever observes `Opcode::kPhi`. See
// docs/PASSES.md for each pass's legality argument.
#pragma once

#include "vir/cfg.hpp"
#include "vir/vir.hpp"

namespace safara::vir::passes {

/// Per-kernel pipeline bookkeeping, surfaced as `vir.*` metrics and stamped
/// on bench rows.
struct PassStats {
  int copyprop_removed = 0;   // mov instructions deleted by copy propagation
  int gvn_hits = 0;           // redundant pure instructions deleted by GVN
  int dce_removed = 0;        // dead instructions deleted
  int strength_reduced = 0;   // mul/div/rem-by-constant rewrites
  int sched_moves = 0;        // pure ops sunk toward their first use
  int pressure_before = 0;    // peak live 32-bit register units pre-pipeline
  int pressure_after = 0;     // ... and post-pipeline
  // SSA bookkeeping. These are not "optimization work": the pipeline's
  // fixpoint contract is defined over the five counters above, and a round
  // that only churns SSA form (zero counted work) is reverted.
  int phi_count = 0;            // phis placed by SSA construction
  int ssa_copies_folded = 0;    // movs folded into SSA renaming (kept round)
  int phi_copies_coalesced = 0; // phi-elimination copies coalesced (kept round)
  // Work counts (deterministic, unlike time): SSA rounds run, kept or
  // reverted (one at levels 1-2, none at level 0), and the analyses built.
  int pipeline_iterations = 0;
  int dom_builds = 0;     // dominator trees built
  int liveness_runs = 0;  // block liveness dataflows run

  bool operator==(const PassStats&) const = default;
};

/// Peak number of simultaneously live 32-bit register units (predicates are
/// free, 64-bit values count twice), from the allocator's own hole-free
/// intervals. This is the quantity the pipeline promises never to increase.
/// `a` is bound to `k`.
int max_live_pressure(const Kernel& k, Analyses& a);

/// Forward-propagates `mov dst, src` through all uses of `dst` (both
/// single-def, same type), then deletes the dead movs. Returns the number of
/// instructions removed.
int run_copy_propagation(Kernel& k);

/// Dominator-based global value numbering over the structured block list:
/// a pure instruction whose (opcode, type, operands, immediates) value was
/// already computed by a dominating instruction is deleted and its uses
/// redirected. Reverted wholesale if peak pressure would grow (merging
/// immediates across blocks can lengthen live ranges). Returns hits. `a` is
/// bound to `k`; it is kept in step with the code the pass leaves.
int run_gvn(Kernel& k, Analyses& a);

/// Deletes pure instructions (and side-effect-free global loads) whose
/// destination has no remaining uses, iterating to a fixpoint. Never touches
/// stores, atomics, branches, or exit. Returns instructions removed.
int run_dce(Kernel& k);

/// Integer-only strength reduction of operations against literal constants
/// (x*0, x*1, x*2, x*-1, x+0, x-0, x/1, x%1). Float identities are excluded:
/// they are not bit-exact under -0.0/NaN. Returns rewrites performed.
int run_strength_reduction(Kernel& k);

/// Sethi–Ullman-flavoured pressure scheduling: independent pure single-def
/// ops sink within their basic block to just before their first use, which
/// shortens their live range before linear scan. Reverted wholesale if peak
/// pressure would grow. Returns instructions moved. `a` is bound to `k`;
/// moves stay inside their blocks, so it stays valid.
int run_pressure_scheduling(Kernel& k, Analyses& a);

/// The pipeline behind --opt-level:
///   0: nothing (the seed behaviour)
///   1: copy propagation + DCE
///   2: + strength reduction, GVN, pressure scheduling
/// At level >= 1 it runs one round: SSA construction, the passes, then SSA
/// destruction. The round is kept only when it performs counted work and
/// strictly shrinks the kernel without raising pressure, and is reverted
/// wholesale otherwise. One round reaches the fixpoint (running the pipeline
/// again reverts its round and is byte-identical); the tests check that on
/// every config's kernels.
///
/// One `Analyses` bundle serves the whole pipeline: after a pass reports
/// work, the bundle re-derives block boundaries and liveness when next read,
/// and rebuilds the dominator tree only if the block graph changed.
PassStats run_pipeline(Kernel& k, int opt_level);

}  // namespace safara::vir::passes

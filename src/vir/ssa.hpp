// SSA construction and destruction for the VIR pass pipeline.
//
// Codegen emits multi-def "mutable slots" for source variables and loop
// induction values; historically every optimizer pass restricted itself to
// single-def vregs to stay sound. `construct` renames those slots into SSA
// (pruned phi placement on the dominance frontier, a fresh vreg per def), so
// the def-count guards inside the passes become trivially true and the
// optimizer finally sees every value. `destruct` lowers the phis back to
// moves before register allocation — nothing outside the pipeline ever sees
// an `Opcode::kPhi`.
#pragma once

#include "vir/cfg.hpp"
#include "vir/vir.hpp"

namespace safara::vir::ssa {

struct ConstructStats {
  /// Phi instructions placed (pruned: only where a multi-def slot is live-in
  /// at a join).
  int phis = 0;
  /// `mov` copies of slots folded directly into the renaming.
  int copies_folded = 0;
  /// False when the kernel was left untouched: empty code, a join needing a
  /// phi with more than three predecessors (VIR instructions carry three
  /// register operands), or an entry block with predecessors (the implicit
  /// function-entry edge has no operand slot).
  bool converted = false;
};

/// Rewrites `k` into SSA form in place. Every def of a multi-def vreg mints a
/// fresh vreg (inheriting the slot's `vreg_names` entry); the original vreg
/// is never written afterwards, so a use reached by no definition keeps the
/// original (zero-initialized) register — preserving the seed semantics for
/// undef paths. Phi operands are ordered by ascending predecessor block
/// index. Provenance: phis take the source location of their block head.
/// `a` is bound to `k`; it is left in step with the rewritten code.
ConstructStats construct(Kernel& k, Analyses& a);

struct DestructStats {
  /// Parallel-copy moves materialized at predecessor block ends.
  int copies_inserted = 0;
  /// Destruction copies merged away again by interference-checked
  /// coalescing (includes copies that became self-moves).
  int coalesced = 0;
  /// False when the CFG no longer matches the phis' operand lists (a pass
  /// emptied a block and merged two others); the caller must revert the
  /// kernel to its pre-SSA snapshot.
  bool ok = true;
};

/// Eliminates all phis: for each phi `d = phi(x_p...)` a fresh temp `t` is
/// written at the end of every predecessor (`mov t, x_p` before the
/// terminator) and the phi becomes `mov d, t` in place — the two-copy scheme
/// that is immune to the lost-copy and swap problems without splitting
/// edges. The minted copies are then coalesced where live ranges permit, and
/// vregs are renumbered densely by first appearance. `a` is bound to `k`;
/// it is left in step with the rewritten code.
DestructStats destruct(Kernel& k, Analyses& a);

}  // namespace safara::vir::ssa

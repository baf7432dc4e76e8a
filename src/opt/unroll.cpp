#include "opt/unroll.hpp"

#include <unordered_set>

#include "ast/walk.hpp"
#include "opt/ast_mutate.hpp"
#include "sema/sema.hpp"

namespace safara::opt {

using ast::BlockStmt;
using ast::DeclStmt;
using ast::Expr;
using ast::ExprKind;
using ast::ExprPtr;
using ast::ForStmt;
using ast::IntLit;
using ast::Stmt;
using ast::StmtKind;
using ast::StmtPtr;
using ast::VarRef;

namespace {

ExprPtr var(const std::string& name) {
  return std::make_unique<VarRef>(name, SourceLoc{});
}

ExprPtr plus_const(ExprPtr e, std::int64_t delta) {
  if (delta == 0) return e;
  return std::make_unique<ast::Binary>(
      delta > 0 ? ast::BinaryOp::kAdd : ast::BinaryOp::kSub, std::move(e),
      std::make_unique<IntLit>(std::llabs(delta), SourceLoc{}), SourceLoc{});
}

bool contains_loop_or_return(const Stmt& s) {
  if (s.kind == StmtKind::kFor || s.kind == StmtKind::kReturn) return true;
  bool found = false;
  ast::for_each_child(s, [&](const Stmt& c) { found = found || contains_loop_or_return(c); });
  return found;
}

/// Calls `fn` on `s` and on every statement under it outside nested loops.
template <typename Fn>
void for_each_stmt_outside_loops(Stmt& s, const Fn& fn) {
  fn(s);
  if (s.kind == StmtKind::kFor) return;
  ast::for_each_child(s, [&](Stmt& c) { for_each_stmt_outside_loops(c, fn); });
}

void collect_local_decls(Stmt& s, std::unordered_set<const sema::Symbol*>& out) {
  for_each_stmt_outside_loops(s, [&](Stmt& st) {
    if (st.kind == StmtKind::kDecl) out.insert(st.as<DeclStmt>().symbol);
  });
}

void rename_decls(Stmt& s, const std::unordered_set<const sema::Symbol*>& locals,
                  const std::string& suffix) {
  for_each_stmt_outside_loops(s, [&](Stmt& st) {
    if (st.kind != StmtKind::kDecl) return;
    auto& d = st.as<DeclStmt>();
    if (locals.count(d.symbol)) {
      d.name += suffix;
      d.symbol = nullptr;  // rebound by the next sema run
    }
  });
}

/// Clones `src` for unroll copy `u`: the induction variable reads become
/// `iv_name + u*step` (or the remainder iv name), and body-local declarations
/// get a per-copy suffix to avoid redefinition.
StmtPtr clone_for_copy(const Stmt& src, const sema::Symbol* iv,
                       const std::string& iv_replacement, std::int64_t delta,
                       const std::unordered_set<const sema::Symbol*>& locals,
                       const std::string& suffix) {
  StmtPtr clone = src.clone();
  if (!suffix.empty()) rename_decls(*clone, locals, suffix);
  for_each_expr_slot(*clone, [&](ExprPtr& slot) {
    if (!slot || slot->kind != ExprKind::kVarRef) return;
    const auto& v = slot->as<VarRef>();
    if (v.symbol == iv) {
      slot = plus_const(var(iv_replacement), delta);
    } else if (!suffix.empty() && v.symbol && locals.count(v.symbol)) {
      slot = var(v.name + suffix);
    }
  });
  return clone;
}

class Unroller {
 public:
  Unroller(ast::Function& fn, const UnrollOptions& opts, DiagnosticEngine& diags)
      : fn_(fn), opts_(opts), diags_(diags) {}

  UnrollReport run() {
    UnrollReport report;
    if (opts_.factor < 2) return report;

    // Bind symbols and find the scheduled loops so we only touch seq loops.
    sema::Sema sema(diags_);
    auto info = sema.analyze(fn_);
    if (!diags_.ok()) return report;

    std::unordered_set<const ForStmt*> scheduled;
    std::vector<ForStmt*> candidates;
    for (const sema::OffloadRegion& region : info->regions) {
      for (const ForStmt* l : region.scheduled_loops) scheduled.insert(l);
      collect_candidates(*region.loop, scheduled, candidates);
    }
    for (ForStmt* loop : candidates) {
      if (unroll_one(*loop)) ++report.loops_unrolled;
    }
    return report;
  }

 private:
  void collect_candidates(ForStmt& loop, const std::unordered_set<const ForStmt*>& scheduled,
                          std::vector<ForStmt*>& out) {
    bool has_inner = false;
    std::function<void(Stmt&)> walk = [&](Stmt& s) {
      if (s.kind == StmtKind::kFor) {
        has_inner = true;
        collect_candidates(s.as<ForStmt>(), scheduled, out);
      } else {
        ast::for_each_child(s, walk);
      }
    };
    ast::for_each_child(*loop.body, walk);

    if (has_inner || scheduled.count(&loop)) return;
    // Never unroll the region's top loop: its bounds feed the host-side
    // launch plan, and splitting it would push statements outside the region.
    if (loop.directive && loop.directive->is_offload()) return;
    if (static_cast<int>(loop.body->stmts.size()) > opts_.max_body_statements) return;
    if (contains_loop_or_return(*loop.body)) return;
    out.push_back(&loop);
  }

  bool unroll_one(ForStmt& loop) {
    // The loop sits somewhere under the function body; we need its slot.
    BlockPosition pos = find_parent_block(*fn_.body, &loop);
    if (!pos.block) return false;

    const int U = opts_.factor;
    const std::int64_t step = loop.step;
    const sema::Symbol* iv = loop.iv_symbol;
    const std::string next_name = "__unroll_next" + std::to_string(counter_++);

    std::unordered_set<const sema::Symbol*> locals;
    collect_local_decls(*loop.body, locals);

    // `int __next = init;` — where the remainder loop resumes.
    auto next_decl = std::make_unique<DeclStmt>(loop.iv_symbol->type, next_name,
                                                loop.init->clone(), loop.loc);

    // Main loop: same iv, bound shrunk by (U-1)*step, step multiplied by U.
    auto main_loop = std::make_unique<ForStmt>(loop.loc);
    main_loop->iv_name = loop.iv_name;
    main_loop->declares_iv = loop.declares_iv;
    main_loop->iv_type = loop.iv_type;
    main_loop->init = loop.init->clone();
    main_loop->cmp = loop.cmp;
    main_loop->bound = plus_const(loop.bound->clone(), -(U - 1) * step);
    main_loop->step = step * U;
    main_loop->directive = loop.directive ? loop.directive->clone() : nullptr;
    main_loop->body = std::make_unique<BlockStmt>(loop.loc);
    for (int u = 0; u < U; ++u) {
      std::string suffix = u == 0 ? "" : "__u" + std::to_string(u);
      for (const StmtPtr& s : loop.body->stmts) {
        main_loop->body->stmts.push_back(
            clone_for_copy(*s, iv, loop.iv_name, u * step, locals, suffix));
      }
    }
    // Track the resume point.
    main_loop->body->stmts.push_back(std::make_unique<ast::AssignStmt>(
        var(next_name), ast::AssignOp::kAssign,
        plus_const(var(loop.iv_name), U * step), loop.loc));

    // Remainder loop: continues from __next with the original body.
    auto rem_loop = std::make_unique<ForStmt>(loop.loc);
    const std::string rem_iv = loop.iv_name + "__r";
    rem_loop->iv_name = rem_iv;
    rem_loop->declares_iv = false;
    rem_loop->iv_type = loop.iv_type;
    rem_loop->init = var(next_name);
    rem_loop->cmp = loop.cmp;
    rem_loop->bound = loop.bound->clone();
    rem_loop->step = step;
    rem_loop->directive = loop.directive ? loop.directive->clone() : nullptr;
    rem_loop->body = std::make_unique<BlockStmt>(loop.loc);
    for (const StmtPtr& s : loop.body->stmts) {
      rem_loop->body->stmts.push_back(clone_for_copy(*s, iv, rem_iv, 0, locals, ""));
    }

    // Splice: decl, main, remainder replace the original loop.
    auto it = pos.block->stmts.begin() + static_cast<std::ptrdiff_t>(pos.index);
    it = pos.block->stmts.erase(it);
    it = pos.block->stmts.insert(it, std::move(next_decl));
    it = pos.block->stmts.insert(it + 1, std::move(main_loop));
    pos.block->stmts.insert(it + 1, std::move(rem_loop));
    return true;
  }

  ast::Function& fn_;
  const UnrollOptions opts_;
  DiagnosticEngine& diags_;
  int counter_ = 0;
};

}  // namespace

UnrollReport run_unroll(ast::Function& fn, const UnrollOptions& opts,
                        DiagnosticEngine& diags) {
  Unroller unroller(fn, opts, diags);
  return unroller.run();
}

}  // namespace safara::opt

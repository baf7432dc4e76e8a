#include "opt/ast_mutate.hpp"

#include "ast/walk.hpp"

namespace safara::opt {

using ast::BlockStmt;
using ast::Expr;
using ast::ExprKind;
using ast::ExprPtr;
using ast::Stmt;

namespace {

void walk_expr_slots(ExprPtr& slot, const std::function<void(ExprPtr&)>& fn) {
  fn(slot);
  if (slot) ast::for_each_operand(*slot, [&](ExprPtr& o) { walk_expr_slots(o, fn); });
}

}  // namespace

void for_each_expr_slot(Stmt& root, const std::function<void(ExprPtr&)>& fn) {
  ast::for_each_expr(root, [&](ExprPtr& slot) { walk_expr_slots(slot, fn); });
  ast::for_each_child(root, [&](Stmt& c) { for_each_expr_slot(c, fn); });
}

bool replace_expr(Stmt& root, const Expr* target, ExprPtr replacement) {
  bool replaced = false;
  for_each_expr_slot(root, [&](ExprPtr& slot) {
    if (!replaced && slot.get() == target) {
      slot = std::move(replacement);
      replaced = true;
    }
  });
  return replaced;
}

ExprPtr clone_substituting(const Expr& e, const sema::Symbol* sym, const Expr& with) {
  ExprPtr cloned = e.clone();
  // The substituted copies are not searched, so `with` may itself read `sym`.
  std::function<void(ExprPtr&)> subst = [&](ExprPtr& slot) {
    if (slot->kind == ExprKind::kVarRef && slot->as<ast::VarRef>().symbol == sym) {
      slot = with.clone();
    } else {
      ast::for_each_operand(*slot, subst);
    }
  };
  subst(cloned);
  return cloned;
}

BlockPosition find_parent_block(Stmt& root, const Stmt* child) {
  BlockPosition result;
  std::function<void(Stmt&)> walk = [&](Stmt& s) {
    if (s.kind == ast::StmtKind::kBlock) {
      auto& b = s.as<BlockStmt>();
      for (std::size_t i = 0; i < b.stmts.size(); ++i) {
        if (b.stmts[i].get() == child) result = {&b, i};
      }
    }
    ast::for_each_child(s, [&](Stmt& c) {
      if (!result.block) walk(c);
    });
  };
  walk(root);
  return result;
}

}  // namespace safara::opt

// AST surgery helpers shared by the scalar-replacement passes.
#pragma once

#include <cstddef>
#include <functional>

#include "ast/decl.hpp"

namespace safara::opt {

/// Visits every owning expression slot in the statement tree (so callers can
/// replace subtrees in place), in source order: a statement's expressions
/// before its children's, and an expression before its operands.
void for_each_expr_slot(ast::Stmt& root, const std::function<void(ast::ExprPtr&)>& fn);

/// Replaces the node `target` (located anywhere under `root`) with
/// `replacement`. Returns false if the node was not found.
bool replace_expr(ast::Stmt& root, const ast::Expr* target, ast::ExprPtr replacement);

/// Clones `e`, substituting every read of variable `sym` with a clone of
/// `with`.
ast::ExprPtr clone_substituting(const ast::Expr& e, const sema::Symbol* sym,
                                const ast::Expr& with);

struct BlockPosition {
  ast::BlockStmt* block = nullptr;
  std::size_t index = 0;  // position of the child within block->stmts
};

/// Finds the block directly containing `child` (searching under `root`).
BlockPosition find_parent_block(ast::Stmt& root, const ast::Stmt* child);

}  // namespace safara::opt

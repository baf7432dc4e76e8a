// What each AST node owns, stated once.
//
// Passes that only need to reach nodes walk the tree through these three
// templates and pick out the kinds they care about; passes that give every
// node kind its own meaning (sema, codegen's lowering, the printer, hashing,
// cloning, equality) keep their own switches. Each template visits in source
// order and keeps the constness of its argument:
//   - `for_each_child` hands `fn` a `Stmt&` (`const Stmt&` for a const `s`);
//   - `for_each_expr` and `for_each_operand` hand a mutable node's owning
//     `ExprPtr&` slot, so a walk may replace the subtree in place, and a const
//     node's `const Expr&`.
// None recurses: a walk calls the template again on what it is handed.
#pragma once

#include <concepts>
#include <type_traits>

#include "ast/stmt.hpp"

namespace safara::ast {

namespace detail {

inline ExprPtr& expr_arg(ExprPtr& slot) { return slot; }
inline const Expr& expr_arg(const ExprPtr& slot) { return *slot; }

template <typename Node>
using ChildStmt = std::conditional_t<std::is_const_v<Node>, const Stmt, Stmt>&;

}  // namespace detail

/// A block's statements, a loop's body, an if's then block and then its else
/// block (when present).
template <typename S, typename Fn>
  requires std::derived_from<std::remove_const_t<S>, Stmt>
void for_each_child(S& s, Fn&& fn) {
  using Child = detail::ChildStmt<S>;
  switch (s.kind) {
    case StmtKind::kBlock:
      for (auto& c : s.template as<BlockStmt>().stmts) fn(static_cast<Child>(*c));
      return;
    case StmtKind::kFor:
      fn(static_cast<Child>(*s.template as<ForStmt>().body));
      return;
    case StmtKind::kIf: {
      auto& i = s.template as<IfStmt>();
      fn(static_cast<Child>(*i.then_block));
      if (i.else_block) fn(static_cast<Child>(*i.else_block));
      return;
    }
    case StmtKind::kDecl:
    case StmtKind::kAssign:
    case StmtKind::kReturn:
      return;
  }
}

/// The statement's own expressions, not those of its children: a
/// declaration's initializer (when present), an assignment's lhs then rhs, a
/// loop's init then bound, and an if's condition. Directive clauses are not
/// expression slots.
template <typename S, typename Fn>
  requires std::derived_from<std::remove_const_t<S>, Stmt>
void for_each_expr(S& s, Fn&& fn) {
  using detail::expr_arg;
  switch (s.kind) {
    case StmtKind::kDecl: {
      auto& d = s.template as<DeclStmt>();
      if (d.init) fn(expr_arg(d.init));
      return;
    }
    case StmtKind::kAssign: {
      auto& a = s.template as<AssignStmt>();
      fn(expr_arg(a.lhs));
      fn(expr_arg(a.rhs));
      return;
    }
    case StmtKind::kFor: {
      auto& f = s.template as<ForStmt>();
      fn(expr_arg(f.init));
      fn(expr_arg(f.bound));
      return;
    }
    case StmtKind::kIf:
      fn(expr_arg(s.template as<IfStmt>().cond));
      return;
    case StmtKind::kBlock:
    case StmtKind::kReturn:
      return;
  }
}

/// An array reference's subscripts, a unary or cast operand, a binary's lhs
/// then rhs, and a call's arguments.
template <typename E, typename Fn>
  requires std::derived_from<std::remove_const_t<E>, Expr>
void for_each_operand(E& e, Fn&& fn) {
  using detail::expr_arg;
  switch (e.kind) {
    case ExprKind::kArrayRef:
      for (auto& idx : e.template as<ArrayRef>().indices) fn(expr_arg(idx));
      return;
    case ExprKind::kUnary:
      fn(expr_arg(e.template as<Unary>().operand));
      return;
    case ExprKind::kCast:
      fn(expr_arg(e.template as<Cast>().operand));
      return;
    case ExprKind::kBinary: {
      auto& b = e.template as<Binary>();
      fn(expr_arg(b.lhs));
      fn(expr_arg(b.rhs));
      return;
    }
    case ExprKind::kCall:
      for (auto& a : e.template as<Call>().args) fn(expr_arg(a));
      return;
    case ExprKind::kIntLit:
    case ExprKind::kFloatLit:
    case ExprKind::kVarRef:
      return;
  }
}

}  // namespace safara::ast

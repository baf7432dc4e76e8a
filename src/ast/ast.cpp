#include <algorithm>

#include "ast/decl.hpp"
#include "ast/directive.hpp"
#include "ast/expr.hpp"
#include "ast/stmt.hpp"

namespace safara::ast {

const char* to_string(ScalarType t) {
  switch (t) {
    case ScalarType::kVoid: return "void";
    case ScalarType::kI32: return "int";
    case ScalarType::kI64: return "long";
    case ScalarType::kF32: return "float";
    case ScalarType::kF64: return "double";
  }
  return "?";
}

ScalarType common_type(ScalarType a, ScalarType b) {
  if (a == ScalarType::kF64 || b == ScalarType::kF64) return ScalarType::kF64;
  if (a == ScalarType::kF32 || b == ScalarType::kF32) return ScalarType::kF32;
  if (a == ScalarType::kI64 || b == ScalarType::kI64) return ScalarType::kI64;
  return ScalarType::kI32;
}

const char* to_string(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kRem: return "%";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "&&";
    case BinaryOp::kOr: return "||";
  }
  return "?";
}

bool is_comparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kGt:
    case BinaryOp::kLe:
    case BinaryOp::kGe: return true;
    default: return false;
  }
}

bool is_logical(BinaryOp op) {
  return op == BinaryOp::kAnd || op == BinaryOp::kOr;
}

const char* to_string(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

const char* to_string(AssignOp op) {
  switch (op) {
    case AssignOp::kAssign: return "=";
    case AssignOp::kAddAssign: return "+=";
    case AssignOp::kSubAssign: return "-=";
    case AssignOp::kMulAssign: return "*=";
    case AssignOp::kDivAssign: return "/=";
  }
  return "?";
}

const char* to_string(DirectiveKind k) {
  switch (k) {
    case DirectiveKind::kParallelLoop: return "parallel loop";
    case DirectiveKind::kKernelsLoop: return "kernels loop";
    case DirectiveKind::kLoop: return "loop";
  }
  return "?";
}

const char* to_string(ReductionOp op) {
  switch (op) {
    case ReductionOp::kSum: return "+";
    case ReductionOp::kProd: return "*";
    case ReductionOp::kMax: return "max";
    case ReductionOp::kMin: return "min";
  }
  return "?";
}

const char* to_string(ArrayDeclKind k) {
  switch (k) {
    case ArrayDeclKind::kScalar: return "scalar";
    case ArrayDeclKind::kPointer: return "pointer";
    case ArrayDeclKind::kStatic: return "static";
    case ArrayDeclKind::kVla: return "vla";
    case ArrayDeclKind::kAllocatable: return "allocatable";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Cloning
// ---------------------------------------------------------------------------

namespace {
ExprPtr clone_or_null(const ExprPtr& e) { return e ? e->clone() : nullptr; }
}  // namespace

ExprPtr IntLit::clone() const {
  auto c = std::make_unique<IntLit>(value, loc);
  c->type = type;
  return c;
}

ExprPtr FloatLit::clone() const {
  auto c = std::make_unique<FloatLit>(value, type == ScalarType::kF64, loc);
  c->type = type;
  return c;
}

ExprPtr VarRef::clone() const {
  auto c = std::make_unique<VarRef>(name, loc);
  c->type = type;
  c->symbol = symbol;
  return c;
}

ExprPtr ArrayRef::clone() const {
  std::vector<ExprPtr> idx;
  idx.reserve(indices.size());
  for (const ExprPtr& e : indices) idx.push_back(e->clone());
  auto c = std::make_unique<ArrayRef>(name, std::move(idx), loc);
  c->type = type;
  c->symbol = symbol;
  return c;
}

ExprPtr Unary::clone() const {
  auto c = std::make_unique<Unary>(op, operand->clone(), loc);
  c->type = type;
  return c;
}

ExprPtr Binary::clone() const {
  auto c = std::make_unique<Binary>(op, lhs->clone(), rhs->clone(), loc);
  c->type = type;
  return c;
}

ExprPtr Call::clone() const {
  std::vector<ExprPtr> a;
  a.reserve(args.size());
  for (const ExprPtr& e : args) a.push_back(e->clone());
  auto c = std::make_unique<Call>(callee, std::move(a), loc);
  c->type = type;
  return c;
}

ExprPtr Cast::clone() const {
  return std::make_unique<Cast>(type, operand->clone(), loc);
}

AccDirectivePtr AccDirective::clone() const {
  auto c = std::make_unique<AccDirective>();
  c->kind = kind;
  c->loc = loc;
  c->seq = seq;
  c->independent = independent;
  c->has_gang = has_gang;
  c->gang_size = clone_or_null(gang_size);
  c->has_vector = has_vector;
  c->vector_size = clone_or_null(vector_size);
  c->has_worker = has_worker;
  c->collapse = collapse;
  c->privates = privates;
  c->reductions = reductions;
  c->copy = copy;
  c->copyin = copyin;
  c->copyout = copyout;
  for (const DimGroup& g : dim_groups) {
    DimGroup gc;
    gc.loc = g.loc;
    gc.arrays = g.arrays;
    for (const DimGroup::Bound& b : g.bounds) {
      gc.bounds.push_back({clone_or_null(b.lb), b.len->clone()});
    }
    c->dim_groups.push_back(std::move(gc));
  }
  c->small_arrays = small_arrays;
  return c;
}

StmtPtr BlockStmt::clone() const {
  auto c = std::make_unique<BlockStmt>(loc);
  c->stmts.reserve(stmts.size());
  for (const StmtPtr& s : stmts) c->stmts.push_back(s->clone());
  return c;
}

StmtPtr DeclStmt::clone() const {
  auto c = std::make_unique<DeclStmt>(decl_type, name, clone_or_null(init), loc);
  c->symbol = symbol;
  return c;
}

StmtPtr AssignStmt::clone() const {
  return std::make_unique<AssignStmt>(lhs->clone(), op, rhs->clone(), loc);
}

StmtPtr ForStmt::clone() const {
  auto c = std::make_unique<ForStmt>(loc);
  c->iv_name = iv_name;
  c->declares_iv = declares_iv;
  c->iv_type = iv_type;
  c->init = init->clone();
  c->cmp = cmp;
  c->bound = bound->clone();
  c->step = step;
  auto body_clone = body->clone();
  c->body.reset(static_cast<BlockStmt*>(body_clone.release()));
  c->directive = directive ? directive->clone() : nullptr;
  c->iv_symbol = iv_symbol;
  return c;
}

StmtPtr IfStmt::clone() const {
  auto t = then_block->clone();
  std::unique_ptr<BlockStmt> tb(static_cast<BlockStmt*>(t.release()));
  std::unique_ptr<BlockStmt> eb;
  if (else_block) {
    auto e = else_block->clone();
    eb.reset(static_cast<BlockStmt*>(e.release()));
  }
  return std::make_unique<IfStmt>(cond->clone(), std::move(tb), std::move(eb), loc);
}

StmtPtr ReturnStmt::clone() const { return std::make_unique<ReturnStmt>(loc); }

Param Param::clone() const {
  Param p;
  p.elem = elem;
  p.name = name;
  p.is_const = is_const;
  p.decl_kind = decl_kind;
  p.extents.reserve(extents.size());
  for (const ExprPtr& e : extents) p.extents.push_back(clone_or_null(e));
  p.loc = loc;
  return p;
}

FunctionPtr Function::clone() const {
  auto f = std::make_unique<Function>();
  f->ret = ret;
  f->name = name;
  for (const Param& p : params) f->params.push_back(p.clone());
  auto b = body->clone();
  f->body.reset(static_cast<BlockStmt*>(b.release()));
  f->loc = loc;
  return f;
}

Function* Program::find(const std::string& fn_name) const {
  auto it = std::find_if(functions.begin(), functions.end(),
                         [&](const FunctionPtr& f) { return f->name == fn_name; });
  return it == functions.end() ? nullptr : it->get();
}

// ---------------------------------------------------------------------------
// Structural equality
// ---------------------------------------------------------------------------

bool equal(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ExprKind::kIntLit:
      return a.as<IntLit>().value == b.as<IntLit>().value;
    case ExprKind::kFloatLit:
      return a.as<FloatLit>().value == b.as<FloatLit>().value &&
             a.type == b.type;
    case ExprKind::kVarRef:
      return a.as<VarRef>().name == b.as<VarRef>().name;
    case ExprKind::kArrayRef: {
      const auto& ar = a.as<ArrayRef>();
      const auto& br = b.as<ArrayRef>();
      if (ar.name != br.name || ar.indices.size() != br.indices.size()) {
        return false;
      }
      for (std::size_t i = 0; i < ar.indices.size(); ++i) {
        if (!equal(*ar.indices[i], *br.indices[i])) return false;
      }
      return true;
    }
    case ExprKind::kUnary:
      return a.as<Unary>().op == b.as<Unary>().op &&
             equal(*a.as<Unary>().operand, *b.as<Unary>().operand);
    case ExprKind::kBinary: {
      const auto& ab = a.as<Binary>();
      const auto& bb = b.as<Binary>();
      return ab.op == bb.op && equal(*ab.lhs, *bb.lhs) && equal(*ab.rhs, *bb.rhs);
    }
    case ExprKind::kCall: {
      const auto& ac = a.as<Call>();
      const auto& bc = b.as<Call>();
      if (ac.callee != bc.callee || ac.args.size() != bc.args.size()) {
        return false;
      }
      for (std::size_t i = 0; i < ac.args.size(); ++i) {
        if (!equal(*ac.args[i], *bc.args[i])) return false;
      }
      return true;
    }
    case ExprKind::kCast:
      return a.type == b.type &&
             equal(*a.as<Cast>().operand, *b.as<Cast>().operand);
  }
  return false;
}

}  // namespace safara::ast

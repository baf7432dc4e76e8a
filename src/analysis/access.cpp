#include "analysis/access.hpp"

namespace safara::analysis {

using ast::ArrayRef;
using ast::AssignStmt;
using ast::BlockStmt;
using ast::Expr;
using ast::ExprKind;
using ast::ForStmt;
using ast::IfStmt;
using ast::Stmt;
using ast::StmtKind;
using sema::Symbol;

const char* to_string(MemSpace s) {
  switch (s) {
    case MemSpace::kGlobalRW: return "global";
    case MemSpace::kGlobalRO: return "read-only";
  }
  return "?";
}

const char* to_string(CoalesceClass c) {
  switch (c) {
    case CoalesceClass::kCoalesced: return "coalesced";
    case CoalesceClass::kUniform: return "uniform";
    case CoalesceClass::kUncoalesced: return "uncoalesced";
  }
  return "?";
}

CoalesceClass classify_coalescing(const std::vector<AffineExpr>& subscripts,
                                  const Symbol* vector_iv) {
  if (!vector_iv) return CoalesceClass::kUniform;
  bool any_non_affine = false;
  bool uses_iv_outer = false;  // iv appears in a non-contiguous dimension
  std::int64_t last_coeff = 0;
  for (std::size_t d = 0; d < subscripts.size(); ++d) {
    const AffineExpr& s = subscripts[d];
    if (!s.affine) {
      any_non_affine = true;
      continue;
    }
    std::int64_t c = s.coeff(vector_iv);
    if (d + 1 == subscripts.size()) {
      last_coeff = c;
    } else if (c != 0) {
      uses_iv_outer = true;
    }
  }
  if (any_non_affine) return CoalesceClass::kUncoalesced;
  if (uses_iv_outer) return CoalesceClass::kUncoalesced;
  if (last_coeff == 0) return CoalesceClass::kUniform;
  if (last_coeff == 1 || last_coeff == -1) return CoalesceClass::kCoalesced;
  return CoalesceClass::kUncoalesced;
}

namespace {

class AccessCollector {
 public:
  explicit AccessCollector(const sema::OffloadRegion& region) : region_(region) {}

  RegionAccesses run() {
    if (!region_.scheduled_loops.empty()) {
      result_.vector_iv = region_.scheduled_loops.back()->iv_symbol;
    }
    walk_stmt(*region_.loop);
    for (AccessInfo& a : result_.accesses) {
      a.space = region_.read_only(*a.array) ? MemSpace::kGlobalRO : MemSpace::kGlobalRW;
      a.coalescing = classify_coalescing(a.subscripts, result_.vector_iv);
    }
    return std::move(result_);
  }

 private:
  void record(ArrayRef& ref, bool is_write) {
    AccessInfo info;
    info.ref = &ref;
    info.array = ref.symbol;
    info.is_write = is_write;
    info.conditional = cond_depth_ > 0;
    info.innermost_loop = loop_stack_.empty() ? nullptr : loop_stack_.back();
    for (const ast::ExprPtr& idx : ref.indices) {
      info.subscripts.push_back(to_affine(*idx));
      walk_expr(*idx);  // subscripts may themselves contain array refs
    }
    result_.accesses.push_back(std::move(info));
  }

  void walk_expr(Expr& e) {
    switch (e.kind) {
      case ExprKind::kArrayRef:
        record(e.as<ArrayRef>(), /*is_write=*/false);
        break;
      case ExprKind::kUnary:
        walk_expr(*e.as<ast::Unary>().operand);
        break;
      case ExprKind::kBinary:
        walk_expr(*e.as<ast::Binary>().lhs);
        walk_expr(*e.as<ast::Binary>().rhs);
        break;
      case ExprKind::kCall:
        for (const ast::ExprPtr& a : e.as<ast::Call>().args) walk_expr(*a);
        break;
      case ExprKind::kCast:
        walk_expr(*e.as<ast::Cast>().operand);
        break;
      default:
        break;
    }
  }

  void walk_stmt(Stmt& s) {
    switch (s.kind) {
      case StmtKind::kBlock:
        for (ast::StmtPtr& c : s.as<BlockStmt>().stmts) walk_stmt(*c);
        break;
      case StmtKind::kDecl: {
        auto& d = s.as<ast::DeclStmt>();
        if (d.init) walk_expr(*d.init);
        break;
      }
      case StmtKind::kAssign: {
        auto& a = s.as<AssignStmt>();
        if (a.lhs->kind == ExprKind::kArrayRef) {
          auto& ref = a.lhs->as<ArrayRef>();
          record(ref, /*is_write=*/true);
          // A compound update also reads the element.
          if (a.op != ast::AssignOp::kAssign) record(ref, /*is_write=*/false);
        }
        walk_expr(*a.rhs);
        break;
      }
      case StmtKind::kFor: {
        auto& f = s.as<ForStmt>();
        walk_expr(*f.init);
        walk_expr(*f.bound);
        loop_stack_.push_back(&f);
        // Conditional-ness is relative to the innermost loop: statements of a
        // loop body run unconditionally per iteration even if the loop itself
        // sits under an `if`.
        int saved_cond = cond_depth_;
        cond_depth_ = 0;
        walk_stmt(*f.body);
        cond_depth_ = saved_cond;
        loop_stack_.pop_back();
        break;
      }
      case StmtKind::kIf: {
        auto& i = s.as<IfStmt>();
        walk_expr(*i.cond);
        ++cond_depth_;
        walk_stmt(*i.then_block);
        if (i.else_block) walk_stmt(*i.else_block);
        --cond_depth_;
        break;
      }
      default:
        break;
    }
  }

  const sema::OffloadRegion& region_;
  RegionAccesses result_;
  std::vector<const ForStmt*> loop_stack_;
  int cond_depth_ = 0;
};

}  // namespace

RegionAccesses analyze_accesses(const sema::OffloadRegion& region) {
  return AccessCollector(region).run();
}

}  // namespace safara::analysis

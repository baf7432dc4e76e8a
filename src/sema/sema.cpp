#include "sema/sema.hpp"

#include <unordered_map>
#include <unordered_set>

namespace safara::sema {

using ast::ArrayDeclKind;
using ast::ArrayRef;
using ast::AssignStmt;
using ast::BinaryOp;
using ast::BlockStmt;
using ast::DeclStmt;
using ast::Expr;
using ast::ExprKind;
using ast::ForStmt;
using ast::IfStmt;
using ast::ScalarType;
using ast::Stmt;
using ast::StmtKind;
using ast::VarRef;

bool is_intrinsic(const std::string& name, int* arity) {
  static const std::unordered_map<std::string, int> kIntrinsics = {
      {"sqrt", 1}, {"rsqrt", 1}, {"fabs", 1}, {"exp", 1},  {"log", 1},
      {"sin", 1},  {"cos", 1},   {"pow", 2},  {"min", 2},  {"max", 2},
      {"floor", 1}, {"ceil", 1}, {"abs", 1},
  };
  auto it = kIntrinsics.find(name);
  if (it == kIntrinsics.end()) return false;
  if (arity) *arity = it->second;
  return true;
}

Symbol* FunctionInfo::find_symbol(const std::string& name) {
  for (Symbol& s : symbols) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const Symbol* FunctionInfo::find_symbol(const std::string& name) const {
  for (const Symbol& s : symbols) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

namespace {

/// Walks one function, binding and checking everything.
class FunctionAnalyzer {
 public:
  FunctionAnalyzer(ast::Function& fn, FunctionInfo& info, DiagnosticEngine& diags)
      : fn_(fn), info_(info), diags_(diags) {}

  void run() {
    push_scope();
    bind_params();
    walk_block(*fn_.body, /*offload_depth=*/0);
    pop_scope();
  }

 private:
  // -- scopes ---------------------------------------------------------------

  void push_scope() { scopes_.emplace_back(); }
  void pop_scope() { scopes_.pop_back(); }

  Symbol* lookup(const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) return found->second;
    }
    return nullptr;
  }

  Symbol* define(Symbol sym, SourceLoc loc) {
    auto& scope = scopes_.back();
    if (scope.count(sym.name) != 0) {
      diags_.error(loc, "redefinition of '" + sym.name + "'");
      return scope[sym.name];
    }
    info_.symbols.push_back(std::move(sym));
    Symbol* p = &info_.symbols.back();
    scope[p->name] = p;
    return p;
  }

  void bind_params() {
    for (ast::Param& p : fn_.params) {
      Symbol sym;
      sym.name = p.name;
      sym.type = p.elem;
      sym.is_const = p.is_const;
      if (p.is_array()) {
        sym.kind = SymbolKind::kParamArray;
        sym.decl_kind = p.decl_kind;
        sym.rank = p.rank();
        for (const ast::ExprPtr& e : p.extents) sym.extents.push_back(e.get());
        if (p.decl_kind == ArrayDeclKind::kPointer) sym.extents.push_back(nullptr);
      } else {
        sym.kind = SymbolKind::kParamScalar;
        sym.decl_kind = ArrayDeclKind::kScalar;
      }
      define(std::move(sym), p.loc);
    }
    // VLA extents must reference integer scalar params; check now that all
    // params are bound.
    for (ast::Param& p : fn_.params) {
      if (p.decl_kind != ArrayDeclKind::kVla) continue;
      for (ast::ExprPtr& e : p.extents) {
        if (e) check_expr(*e);
        if (e && !ast::is_integer(e->type)) {
          diags_.error(p.loc, "array extent of '" + p.name + "' must be an integer");
        }
      }
    }
    // Static extents are literals; still type them for the printer/codegen.
    for (ast::Param& p : fn_.params) {
      if (p.decl_kind == ArrayDeclKind::kStatic) {
        for (ast::ExprPtr& e : p.extents) {
          if (e) check_expr(*e);
        }
      }
    }
  }

  // -- expressions ----------------------------------------------------------

  ScalarType check_expr(Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit:
        return e.type;  // set at construction
      case ExprKind::kFloatLit:
        return e.type;
      case ExprKind::kVarRef: {
        auto& v = e.as<VarRef>();
        Symbol* sym = lookup(v.name);
        if (!sym) {
          diags_.error(v.loc, "use of undeclared identifier '" + v.name + "'");
          e.type = ScalarType::kI32;
          return e.type;
        }
        if (sym->is_array()) {
          diags_.error(v.loc, "array '" + v.name + "' used without subscripts");
        }
        v.symbol = sym;
        e.type = sym->type;
        return e.type;
      }
      case ExprKind::kArrayRef: {
        auto& a = e.as<ArrayRef>();
        Symbol* sym = lookup(a.name);
        if (!sym) {
          diags_.error(a.loc, "use of undeclared array '" + a.name + "'");
          e.type = ScalarType::kF32;
          return e.type;
        }
        if (!sym->is_array()) {
          diags_.error(a.loc, "'" + a.name + "' is not an array");
          e.type = sym->type;
          return e.type;
        }
        if (static_cast<int>(a.indices.size()) != sym->rank) {
          diags_.error(a.loc, "array '" + a.name + "' has rank " +
                                  std::to_string(sym->rank) + " but " +
                                  std::to_string(a.indices.size()) +
                                  " subscripts were given");
        }
        for (ast::ExprPtr& idx : a.indices) {
          ScalarType t = check_expr(*idx);
          if (!ast::is_integer(t)) {
            diags_.error(idx->loc, "array subscript must be an integer");
          }
        }
        a.symbol = sym;
        e.type = sym->type;
        return e.type;
      }
      case ExprKind::kUnary: {
        auto& u = e.as<ast::Unary>();
        ScalarType t = check_expr(*u.operand);
        e.type = u.op == ast::UnaryOp::kNot ? ScalarType::kI32 : t;
        return e.type;
      }
      case ExprKind::kBinary: {
        auto& b = e.as<ast::Binary>();
        ScalarType lt = check_expr(*b.lhs);
        ScalarType rt = check_expr(*b.rhs);
        if (ast::is_comparison(b.op) || ast::is_logical(b.op)) {
          e.type = ScalarType::kI32;
        } else {
          e.type = ast::common_type(lt, rt);
          if (b.op == BinaryOp::kRem && !(ast::is_integer(lt) && ast::is_integer(rt))) {
            diags_.error(b.loc, "'%' requires integer operands");
          }
        }
        return e.type;
      }
      case ExprKind::kCall: {
        auto& c = e.as<ast::Call>();
        int arity = 0;
        if (!is_intrinsic(c.callee, &arity)) {
          diags_.error(c.loc, "unknown function '" + c.callee +
                                  "' (only math intrinsics may be called)");
          e.type = ScalarType::kF64;
          return e.type;
        }
        if (static_cast<int>(c.args.size()) != arity) {
          diags_.error(c.loc, "'" + c.callee + "' expects " + std::to_string(arity) +
                                  " argument(s)");
        }
        ScalarType arg_common = ScalarType::kI32;
        for (ast::ExprPtr& a : c.args) {
          arg_common = ast::common_type(arg_common, check_expr(*a));
        }
        if (c.callee == "min" || c.callee == "max" || c.callee == "abs") {
          e.type = arg_common;
        } else {
          // Transcendentals: float in, float out; integers promote to double.
          e.type = ast::is_float(arg_common) ? arg_common : ScalarType::kF64;
        }
        return e.type;
      }
      case ExprKind::kCast: {
        auto& c = e.as<ast::Cast>();
        check_expr(*c.operand);
        return e.type;  // target type fixed at construction
      }
    }
    return ScalarType::kVoid;
  }

  // -- statements -----------------------------------------------------------

  void walk_block(BlockStmt& block, int offload_depth) {
    push_scope();
    for (ast::StmtPtr& s : block.stmts) walk_stmt(*s, offload_depth);
    pop_scope();
  }

  void walk_stmt(Stmt& s, int offload_depth) {
    switch (s.kind) {
      case StmtKind::kBlock:
        walk_block(s.as<BlockStmt>(), offload_depth);
        break;
      case StmtKind::kDecl: {
        auto& d = s.as<DeclStmt>();
        if (d.init) {
          ScalarType t = check_expr(*d.init);
          if (t == ScalarType::kVoid) {
            diags_.error(d.loc, "cannot initialize from a void expression");
          }
        }
        Symbol sym;
        sym.name = d.name;
        sym.kind = SymbolKind::kLocal;
        sym.type = d.decl_type;
        d.symbol = define(std::move(sym), d.loc);
        break;
      }
      case StmtKind::kAssign: {
        auto& a = s.as<AssignStmt>();
        ScalarType lt = check_expr(*a.lhs);
        ScalarType rt = check_expr(*a.rhs);
        (void)lt;
        (void)rt;
        if (a.lhs->kind == ExprKind::kVarRef) {
          Symbol* sym = a.lhs->as<VarRef>().symbol;
          if (sym && sym->kind == SymbolKind::kInduction) {
            diags_.error(a.loc, "cannot assign to loop induction variable '" +
                                    sym->name + "'");
          }
        } else if (a.lhs->kind == ExprKind::kArrayRef) {
          Symbol* sym = a.lhs->as<ArrayRef>().symbol;
          if (sym && sym->is_const) {
            diags_.error(a.loc, "cannot assign to const array '" + sym->name + "'");
          }
          if (sym && offload_depth > 0) region_assigned_.insert(sym);
        }
        break;
      }
      case StmtKind::kFor:
        walk_for(s.as<ForStmt>(), offload_depth);
        break;
      case StmtKind::kIf: {
        auto& i = s.as<IfStmt>();
        check_expr(*i.cond);
        walk_block(*i.then_block, offload_depth);
        if (i.else_block) walk_block(*i.else_block, offload_depth);
        break;
      }
      case StmtKind::kReturn:
        break;
    }
  }

  void walk_for(ForStmt& f, int offload_depth) {
    if (f.directive) validate_directive(f, offload_depth);

    check_expr(*f.init);
    check_expr(*f.bound);
    if (!ast::is_integer(f.init->type)) {
      diags_.error(f.init->loc, "loop initialization must be an integer expression");
    }
    if (!ast::is_integer(f.bound->type)) {
      diags_.error(f.bound->loc, "loop bound must be an integer expression");
    }

    push_scope();
    // The induction variable: explicit declaration, reuse of an enclosing
    // scalar, or implicit `int` declaration (Fortran-style convenience).
    Symbol* iv = nullptr;
    if (f.declares_iv) {
      Symbol sym;
      sym.name = f.iv_name;
      sym.kind = SymbolKind::kInduction;
      sym.type = f.iv_type;
      iv = define(std::move(sym), f.loc);
    } else if (Symbol* existing = lookup(f.iv_name)) {
      if (existing->kind == SymbolKind::kInduction) {
        diags_.error(f.loc, "induction variable '" + f.iv_name +
                                "' is already used by an enclosing loop");
      } else if (!ast::is_integer(existing->type) || existing->is_array()) {
        diags_.error(f.loc, "loop induction variable '" + f.iv_name +
                                "' must be an integer scalar");
      }
      // Shadow with a fresh induction symbol: the loop owns its counter.
      Symbol sym;
      sym.name = f.iv_name;
      sym.kind = SymbolKind::kInduction;
      sym.type = existing->type;
      iv = define(std::move(sym), f.loc);
    } else {
      Symbol sym;
      sym.name = f.iv_name;
      sym.kind = SymbolKind::kInduction;
      sym.type = ScalarType::kI32;
      iv = define(std::move(sym), f.loc);
    }
    f.iv_symbol = iv;

    bool enters_offload = f.directive && f.directive->is_offload();
    walk_block(*f.body, offload_depth + (enters_offload || offload_depth > 0 ? 1 : 0));
    pop_scope();

    if (enters_offload) discover_region(f);
  }

  // -- directives -----------------------------------------------------------

  void validate_directive(ForStmt& f, int offload_depth) {
    ast::AccDirective& d = *f.directive;
    if (d.is_offload() && offload_depth > 0) {
      diags_.error(d.loc, "offload regions cannot be nested");
    }
    if (!d.is_offload() && offload_depth == 0) {
      diags_.error(d.loc, "'#pragma acc loop' must appear inside an offload region");
    }
    if (d.seq && (d.has_gang || d.has_vector || d.has_worker)) {
      diags_.error(d.loc, "'seq' conflicts with gang/worker/vector scheduling");
    }
    if (d.gang_size) {
      if (!ast::is_integer(check_expr(*d.gang_size))) {
        diags_.error(d.loc, "gang size must be an integer expression");
      }
    }
    if (d.vector_size) {
      if (!ast::is_integer(check_expr(*d.vector_size))) {
        diags_.error(d.loc, "vector length must be an integer expression");
      }
    }
    if (d.collapse < 1 || d.collapse > 3) {
      diags_.error(d.loc, "collapse factor must be between 1 and 3");
    }
    for (const std::string& name : d.privates) {
      // Private scalars must at least exist somewhere visible.
      if (!lookup(name)) {
        diags_.error(d.loc, "unknown variable '" + name + "' in private clause");
      }
    }
    for (const ast::ReductionClause& r : d.reductions) {
      Symbol* sym = lookup(r.var);
      if (!sym) {
        diags_.error(d.loc, "unknown variable '" + r.var + "' in reduction clause");
      } else if (sym->is_array()) {
        diags_.error(d.loc, "reduction variable '" + r.var + "' must be a scalar");
      }
    }
    auto check_data_list = [&](const std::vector<std::string>& names,
                               const char* clause) {
      for (const std::string& name : names) {
        if (!lookup(name)) {
          diags_.error(d.loc, std::string("unknown variable '") + name + "' in " +
                                  clause + " clause");
        }
      }
    };
    check_data_list(d.copy, "copy");
    check_data_list(d.copyin, "copyin");
    check_data_list(d.copyout, "copyout");

    if (!d.is_offload() && (!d.dim_groups.empty() || !d.small_arrays.empty())) {
      diags_.error(d.loc, "'dim' and 'small' may only appear on parallel/kernels directives");
    }
    if (d.is_offload()) {
      apply_dim_clause(d);
      apply_small_clause(d);
    }
  }

  void apply_dim_clause(ast::AccDirective& d) {
    std::unordered_set<std::string> grouped;
    for (ast::DimGroup& g : d.dim_groups) {
      if (g.arrays.size() < 2) {
        diags_.error(g.loc, "a dim group needs at least two arrays");
        continue;
      }
      int group_id = next_dim_group_++;
      int rank = -1;
      for (ast::DimGroup::Bound& b : g.bounds) {
        if (b.lb) check_expr(*b.lb);
        if (b.len) check_expr(*b.len);
      }
      for (const std::string& name : g.arrays) {
        Symbol* sym = lookup(name);
        if (!sym) {
          diags_.error(g.loc, "unknown array '" + name + "' in dim clause");
          continue;
        }
        if (!sym->is_array()) {
          diags_.error(g.loc, "'" + name + "' in dim clause is not an array");
          continue;
        }
        if (sym->decl_kind == ArrayDeclKind::kPointer) {
          diags_.error(g.loc, "dim cannot be applied to pointer array '" + name +
                                  "' (no dimension information)");
          continue;
        }
        if (!grouped.insert(name).second) {
          diags_.error(g.loc, "array '" + name + "' appears in more than one dim group");
          continue;
        }
        if (rank < 0) rank = sym->rank;
        if (sym->rank != rank) {
          diags_.error(g.loc, "arrays in a dim group must have equal rank");
          continue;
        }
        if (!g.bounds.empty() &&
            static_cast<int>(g.bounds.size()) != sym->rank) {
          diags_.error(g.loc, "dim bounds count does not match rank of '" + name + "'");
          continue;
        }
        sym->dim_group = group_id;
        sym->dim_lb.clear();
        sym->dim_len.clear();
        for (ast::DimGroup::Bound& b : g.bounds) {
          sym->dim_lb.push_back(b.lb.get());
          sym->dim_len.push_back(b.len.get());
        }
      }
    }
  }

  void apply_small_clause(ast::AccDirective& d) {
    for (const std::string& name : d.small_arrays) {
      Symbol* sym = lookup(name);
      if (!sym) {
        diags_.error(d.loc, "unknown array '" + name + "' in small clause");
        continue;
      }
      if (!sym->is_array()) {
        diags_.error(d.loc, "'" + name + "' in small clause is not an array");
        continue;
      }
      sym->small = true;
    }
  }

  // -- offload regions --------------------------------------------------------

  void discover_region(ForStmt& top) {
    OffloadRegion region;
    region.loop = &top;
    region.assigned_arrays = std::move(region_assigned_);
    region_assigned_.clear();
    collect_scheduled(top, region, /*outer_is_scheduled=*/false);
    if (region.scheduled_loops.size() > 3) {
      diags_.error(top.loc, "at most 3 scheduled (gang/vector) loop dimensions are supported");
      region.scheduled_loops.resize(3);
    }
    info_.regions.push_back(std::move(region));
  }

  /// Recursively gathers the parallel-scheduled loops of the nest. Scheduled
  /// loops below the first must be perfectly nested (the only statement in
  /// their parent's body); the paper's kernels all have this shape.
  void collect_scheduled(ForStmt& loop, OffloadRegion& region, bool outer_is_scheduled) {
    bool scheduled;
    if (!loop.directive) {
      scheduled = false;
    } else if (loop.directive->seq) {
      scheduled = false;
    } else if (loop.directive->is_offload()) {
      // A parallel/kernels loop with no explicit schedule defaults to
      // gang+vector.
      scheduled = true;
    } else {
      scheduled = loop.directive->is_parallel_sched();
    }

    if (scheduled) {
      if (outer_is_scheduled &&
          !(region.scheduled_loops.empty() ||
            is_only_stmt(*region.scheduled_loops.back(), loop))) {
        diags_.error(loop.loc,
                     "scheduled loops must be perfectly nested inside the "
                     "enclosing scheduled loop");
      }
      region.scheduled_loops.push_back(&loop);
      int remaining_collapse = loop.directive ? loop.directive->collapse - 1 : 0;
      ForStmt* current = &loop;
      while (remaining_collapse > 0) {
        ForStmt* inner = sole_inner_loop(*current);
        if (!inner) {
          diags_.error(current->loc, "collapse requires perfectly nested loops");
          break;
        }
        region.scheduled_loops.push_back(inner);
        current = inner;
        --remaining_collapse;
      }
      for (ast::StmtPtr& s : current->body->stmts) {
        if (s->kind == StmtKind::kFor) {
          collect_scheduled(s->as<ForStmt>(), region, /*outer_is_scheduled=*/true);
        }
      }
    } else {
      for (ast::StmtPtr& s : loop.body->stmts) {
        if (s->kind == StmtKind::kFor) {
          collect_scheduled(s->as<ForStmt>(), region, outer_is_scheduled);
        }
      }
    }
  }

  static ForStmt* sole_inner_loop(ForStmt& loop) {
    if (loop.body->stmts.size() != 1) return nullptr;
    Stmt& s = *loop.body->stmts.front();
    return s.kind == StmtKind::kFor ? &s.as<ForStmt>() : nullptr;
  }

  static bool is_only_stmt(ForStmt& parent, ForStmt& child) {
    return parent.body->stmts.size() == 1 && parent.body->stmts.front().get() == &child;
  }

  ast::Function& fn_;
  FunctionInfo& info_;
  DiagnosticEngine& diags_;
  std::vector<std::unordered_map<std::string, Symbol*>> scopes_;
  int next_dim_group_ = 0;
  /// Arrays assigned so far in the offload region being walked; regions do
  /// not nest, so discover_region hands the set to the region it closes.
  std::unordered_set<const Symbol*> region_assigned_;
};

}  // namespace

std::unique_ptr<FunctionInfo> Sema::analyze(ast::Function& fn) {
  auto info = std::make_unique<FunctionInfo>();
  info->fn = &fn;
  FunctionAnalyzer analyzer(fn, *info, diags_);
  analyzer.run();
  return info;
}

}  // namespace safara::sema

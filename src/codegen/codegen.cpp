#include "codegen/codegen.hpp"

#include <cstring>
#include <functional>
#include <unordered_map>
#include <unordered_set>

namespace safara::codegen {

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
using sema::Symbol;
using vir::Instr;
using vir::Opcode;
using vir::SpecialReg;
using vir::VType;

namespace {

VType vtype_of(ScalarType t) {
  switch (t) {
    case ScalarType::kI32: return VType::kI32;
    case ScalarType::kI64: return VType::kI64;
    case ScalarType::kF32: return VType::kF32;
    case ScalarType::kF64: return VType::kF64;
    case ScalarType::kVoid: break;
  }
  return VType::kI32;
}

struct VNKey {
  Opcode op;
  VType type;
  std::uint32_t a, b, c;
  std::uint32_t va, vb, vc;  // operand versions (0 for immutable)
  std::int64_t imm;
  std::uint64_t fimm_bits;
  std::uint8_t flags;
  std::uint64_t stmt_id;  // only nonzero for statement-scoped load CSE

  bool operator==(const VNKey&) const = default;
};

struct VNKeyHash {
  std::size_t operator()(const VNKey& k) const {
    std::size_t h = std::hash<int>()(static_cast<int>(k.op));
    auto mix = [&h](std::uint64_t v) {
      h ^= std::hash<std::uint64_t>()(v) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(static_cast<std::uint64_t>(k.type));
    mix((std::uint64_t(k.a) << 32) | k.b);
    mix((std::uint64_t(k.c) << 32) | k.flags);
    mix((std::uint64_t(k.va) << 42) ^ (std::uint64_t(k.vb) << 21) ^ k.vc);
    mix(static_cast<std::uint64_t>(k.imm));
    mix(k.fimm_bits);
    mix(k.stmt_id);
    return h;
  }
};

/// An instruction buffer with label placements relative to its own start.
struct CodeBuf {
  std::vector<Instr> instrs;
  std::vector<std::pair<std::int32_t, std::int32_t>> labels;  // (pos, label id)

  void append(CodeBuf&& other) {
    const std::int32_t base = static_cast<std::int32_t>(instrs.size());
    for (auto& [pos, id] : other.labels) labels.emplace_back(base + pos, id);
    instrs.insert(instrs.end(), other.instrs.begin(), other.instrs.end());
    other.instrs.clear();
    other.labels.clear();
  }
  void place_label(std::int32_t id) {
    labels.emplace_back(static_cast<std::int32_t>(instrs.size()), id);
  }
};

struct Frame {
  enum class Kind { kEntry, kLoop, kScope };
  Kind kind = Kind::kEntry;
  int body_depth = 0;
  CodeBuf preheader;  // loops only
  CodeBuf buf;
  std::unordered_map<VNKey, std::uint32_t, VNKeyHash> vn;
};

class KernelBuilder {
 public:
  KernelBuilder(const sema::FunctionInfo& info, const sema::OffloadRegion& region,
                int region_index, const CodegenOptions& opts, DiagnosticEngine& diags)
      : info_(info), region_(region), opts_(opts), diags_(diags) {
    kernel_.name = info.fn->name + "_k" + std::to_string(region_index);
  }

  CodegenResult run() {
    for (ast::ForStmt* loop : region_.scheduled_loops) {
      scheduled_ivs_.insert(loop->iv_symbol);
    }
    build_dim_group_reps();

    // Provenance: every emitted instruction is stamped with cur_loc_, which
    // tracks the statement being lowered. Seed it from the region's loop so
    // thread-id setup and other synthesized prologue code attribute there.
    if (region_.loop->loc.valid()) cur_loc_ = region_.loop->loc;

    frames_.push_back(Frame{});  // entry frame, depth 0

    if (region_.scheduled_loops.empty()) {
      // Degenerate region (fully seq): run as a single-thread kernel.
      gen_for_seq(*region_.loop);
    } else {
      gen_scheduled_loop(0);
    }

    Instr exit;
    exit.op = Opcode::kExit;
    exit.loc = cur_loc_;
    cur().instrs.push_back(exit);

    // Flatten: by now only the entry frame remains.
    CodeBuf& final_buf = frames_.front().buf;
    kernel_.code = std::move(final_buf.instrs);
    for (auto& [pos, id] : final_buf.labels) {
      kernel_.labels[static_cast<std::size_t>(id)] = pos;
    }

    CodegenResult result;
    result.kernel = std::move(kernel_);
    result.plan = build_launch_plan();
    return result;
  }

 private:
  // -- registers --------------------------------------------------------------

  std::uint32_t new_vreg(VType t, bool mutable_slot = false) {
    std::uint32_t id = kernel_.num_vregs();
    kernel_.vreg_types.push_back(t);
    kernel_.vreg_names.emplace_back();
    vreg_depth_.push_back(cur_depth());
    vreg_mutable_.push_back(mutable_slot);
    vreg_version_.push_back(0);
    vreg_version_depth_.push_back(cur_depth());
    return id;
  }

  int effective_depth(std::uint32_t r) const {
    return vreg_mutable_[r] ? vreg_version_depth_[r] : vreg_depth_[r];
  }
  std::uint32_t version(std::uint32_t r) const {
    return vreg_mutable_[r] ? vreg_version_[r] : 0;
  }
  void bump_version(std::uint32_t r) {
    ++vreg_version_[r];
    vreg_version_depth_[r] = cur_depth();
  }

  // -- frames / emission ------------------------------------------------------

  Frame& frame() { return frames_.back(); }
  CodeBuf& cur() { return frames_.back().buf; }
  int cur_depth() const { return frames_.back().body_depth; }

  std::int32_t alloc_label() {
    kernel_.labels.push_back(-1);
    return static_cast<std::int32_t>(kernel_.labels.size() - 1);
  }

  void emit(Instr in) {
    in.loc = cur_loc_;
    cur().instrs.push_back(in);
  }

  /// Emits a pure operation with value numbering and (optionally) hoisting to
  /// the outermost loop preheader its operands allow.
  std::uint32_t emit_pure(Opcode op, VType type, std::uint32_t a = vir::kNoReg,
                          std::uint32_t b = vir::kNoReg, std::uint32_t c = vir::kNoReg,
                          std::int64_t imm = 0, double fimm = 0.0,
                          std::uint8_t flags = 0) {
    VNKey key;
    key.op = op;
    key.type = type;
    key.a = a;
    key.b = b;
    key.c = c;
    key.va = a != vir::kNoReg ? version(a) : 0;
    key.vb = b != vir::kNoReg ? version(b) : 0;
    key.vc = c != vir::kNoReg ? version(c) : 0;
    key.imm = imm;
    std::memcpy(&key.fimm_bits, &fimm, sizeof fimm);
    key.flags = flags;
    key.stmt_id = 0;

    for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
      auto found = it->vn.find(key);
      if (found != it->vn.end()) return found->second;
    }

    int d = 0;
    for (std::uint32_t r : {a, b, c}) {
      if (r != vir::kNoReg) d = std::max(d, effective_depth(r));
    }
    if (!opts_.licm) d = cur_depth();

    // Placement: in place, or in the preheader of the outermost loop whose
    // body is deeper than every operand.
    std::size_t target_frame = frames_.size() - 1;
    bool hoist = false;
    if (d < cur_depth()) {
      for (std::size_t i = 0; i < frames_.size(); ++i) {
        if (frames_[i].kind == Frame::Kind::kLoop && frames_[i].body_depth > d) {
          target_frame = i;
          hoist = true;
          break;
        }
      }
    }

    std::uint32_t dst = new_vreg(type);
    vreg_depth_[dst] = hoist ? d : cur_depth();

    Instr in;
    in.op = op;
    in.type = type;
    in.dst = dst;
    in.a = a;
    in.b = b;
    in.c = c;
    in.imm = imm;
    in.fimm = fimm;
    in.flags = flags;
    in.loc = cur_loc_;
    if (hoist) {
      frames_[target_frame].preheader.instrs.push_back(in);
      frames_[target_frame - 1].vn.emplace(key, dst);
    } else {
      cur().instrs.push_back(in);
      frame().vn.emplace(key, dst);
    }
    return dst;
  }

  std::uint32_t imm_i(std::int64_t v, VType t = VType::kI32) {
    return emit_pure(Opcode::kMovImmI, t, vir::kNoReg, vir::kNoReg, vir::kNoReg, v);
  }
  std::uint32_t imm_f(double v, VType t) {
    return emit_pure(Opcode::kMovImmF, t, vir::kNoReg, vir::kNoReg, vir::kNoReg, 0, v);
  }

  std::uint32_t coerce(std::uint32_t r, VType to) {
    VType from = kernel_.vreg_types[r];
    if (from == to) return r;
    return emit_pure(Opcode::kCvt, to, r);
  }

  // -- kernel parameters -------------------------------------------------------

  std::uint32_t param_reg(const std::string& key, vir::ParamInfo info) {
    auto it = param_index_.find(key);
    std::int64_t index;
    if (it != param_index_.end()) {
      index = it->second;
      info = kernel_.params[static_cast<std::size_t>(index)];
    } else {
      index = static_cast<std::int64_t>(kernel_.params.size());
      kernel_.params.push_back(info);
      param_index_.emplace(key, index);
    }
    return emit_pure(Opcode::kLdParam, info.type, vir::kNoReg, vir::kNoReg,
                     vir::kNoReg, index);
  }

  std::uint32_t scalar_param(const Symbol& sym) {
    vir::ParamInfo p;
    p.kind = vir::ParamInfo::Kind::kScalar;
    p.name = sym.name;
    p.type = vtype_of(sym.type);
    return param_reg("s:" + sym.name, p);
  }

  std::uint32_t array_base(const Symbol& sym) {
    vir::ParamInfo p;
    p.kind = vir::ParamInfo::Kind::kArrayBase;
    p.name = sym.name;
    p.type = VType::kI64;
    return param_reg("b:" + sym.name, p);
  }

  std::uint32_t dope_param(const std::string& array, int dim, bool is_lb, bool small) {
    vir::ParamInfo p;
    p.kind = is_lb ? vir::ParamInfo::Kind::kDopeLb : vir::ParamInfo::Kind::kDopeLen;
    p.name = array;
    p.dim = dim;
    p.type = small ? VType::kI32 : VType::kI64;
    return param_reg((is_lb ? "lb:" : "len:") + array + ":" + std::to_string(dim), p);
  }

  // -- region pre-analysis -----------------------------------------------------

  void build_dim_group_reps() {
    for (const Symbol& sym : info_.symbols) {
      if (sym.dim_group >= 0 && !dim_group_rep_.count(sym.dim_group)) {
        dim_group_rep_.emplace(sym.dim_group, &sym);
      }
    }
  }

  // -- version bookkeeping (loop-entry "phi" bumps) -----------------------------

  void collect_assigned_symbols(const Stmt& s, std::unordered_set<const Symbol*>& out) {
    switch (s.kind) {
      case StmtKind::kAssign: {
        const auto& a = s.as<AssignStmt>();
        if (a.lhs->kind == ExprKind::kVarRef) out.insert(a.lhs->as<VarRef>().symbol);
        break;
      }
      case StmtKind::kBlock:
        for (const ast::StmtPtr& c : s.as<BlockStmt>().stmts) {
          collect_assigned_symbols(*c, out);
        }
        break;
      case StmtKind::kFor: {
        const auto& f = s.as<ForStmt>();
        out.insert(f.iv_symbol);
        collect_assigned_symbols(*f.body, out);
        break;
      }
      case StmtKind::kIf: {
        const auto& i = s.as<IfStmt>();
        collect_assigned_symbols(*i.then_block, out);
        if (i.else_block) collect_assigned_symbols(*i.else_block, out);
        break;
      }
      default:
        break;
    }
  }

  void bump_loop_carried_versions(const ForStmt& loop) {
    std::unordered_set<const Symbol*> assigned;
    assigned.insert(loop.iv_symbol);
    collect_assigned_symbols(*loop.body, assigned);
    for (const Symbol* sym : assigned) {
      auto it = var_reg_.find(sym);
      if (it != var_reg_.end()) bump_version(it->second);
    }
  }

  // -- expression codegen --------------------------------------------------------

  std::uint32_t var_slot(const Symbol* sym, VType type) {
    auto it = var_reg_.find(sym);
    if (it != var_reg_.end()) return it->second;
    std::uint32_t slot = new_vreg(type, /*mutable_slot=*/true);
    kernel_.vreg_names[slot] = sym->name;
    var_reg_.emplace(sym, slot);
    return slot;
  }

  void store_slot(std::uint32_t slot, std::uint32_t value) {
    // Copy coalescing: `ld.global %t; mov %slot, %t` would make the mov stall
    // the in-order pipeline for the load's full latency, serializing what the
    // hardware would overlap — and a real register allocator coalesces the
    // copy anyway. When statement-level load CSE is on (PGI persona), the
    // load may be registered in the VN table; drop any entry naming the old
    // destination so the retarget cannot resurface a stale register.
    CodeBuf& buf = cur();
    if (!buf.instrs.empty()) {
      Instr& last = buf.instrs.back();
      if (last.op == Opcode::kLdGlobal && last.dst == value &&
          !vreg_mutable_[value] && kernel_.vreg_types[slot] == kernel_.vreg_types[value]) {
        if (opts_.cse_loads_within_stmt) {
          for (auto it = frame().vn.begin(); it != frame().vn.end();) {
            it = it->second == value ? frame().vn.erase(it) : std::next(it);
          }
        }
        last.dst = slot;
        bump_version(slot);
        return;
      }
    }
    Instr in;
    in.op = Opcode::kMov;
    in.type = kernel_.vreg_types[slot];
    in.dst = slot;
    in.a = value;
    emit(in);
    bump_version(slot);
  }

  std::uint32_t gen_value(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit:
        return imm_i(e.as<ast::IntLit>().value, vtype_of(e.type));
      case ExprKind::kFloatLit:
        return imm_f(e.as<ast::FloatLit>().value, vtype_of(e.type));
      case ExprKind::kVarRef: {
        const Symbol* sym = e.as<VarRef>().symbol;
        if (!sym) throw CompileError("codegen: unbound variable " + e.as<VarRef>().name);
        if (sym->kind == sema::SymbolKind::kParamScalar) return scalar_param(*sym);
        auto it = var_reg_.find(sym);
        if (it == var_reg_.end()) {
          diags_.error(e.loc, "variable '" + sym->name +
                                  "' is declared outside the offload region");
          return imm_i(0, vtype_of(e.type));
        }
        return it->second;
      }
      case ExprKind::kArrayRef:
        return gen_load(e.as<ArrayRef>());
      case ExprKind::kUnary: {
        const auto& u = e.as<ast::Unary>();
        if (u.op == ast::UnaryOp::kNot) return pred_to_value(gen_pred(e));
        std::uint32_t v = coerce(gen_value(*u.operand), vtype_of(e.type));
        return emit_pure(Opcode::kNeg, vtype_of(e.type), v);
      }
      case ExprKind::kBinary: {
        const auto& b = e.as<ast::Binary>();
        if (ast::is_comparison(b.op) || ast::is_logical(b.op)) {
          return pred_to_value(gen_pred(e));
        }
        VType t = vtype_of(e.type);
        std::uint32_t lhs = coerce(gen_value(*b.lhs), t);
        std::uint32_t rhs = coerce(gen_value(*b.rhs), t);
        Opcode op;
        switch (b.op) {
          case BinaryOp::kAdd: op = Opcode::kAdd; break;
          case BinaryOp::kSub: op = Opcode::kSub; break;
          case BinaryOp::kMul: op = Opcode::kMul; break;
          case BinaryOp::kDiv: op = Opcode::kDiv; break;
          case BinaryOp::kRem: op = Opcode::kRem; break;
          default: op = Opcode::kAdd; break;
        }
        return emit_pure(op, t, lhs, rhs);
      }
      case ExprKind::kCall:
        return gen_call(e.as<ast::Call>());
      case ExprKind::kCast:
        return coerce(gen_value(*e.as<ast::Cast>().operand), vtype_of(e.type));
    }
    throw CompileError("codegen: unhandled expression kind");
  }

  std::uint32_t gen_call(const ast::Call& c) {
    VType t = vtype_of(c.type);
    static const std::unordered_map<std::string, Opcode> kOps = {
        {"sqrt", Opcode::kSqrt}, {"rsqrt", Opcode::kRsqrt}, {"fabs", Opcode::kAbs},
        {"abs", Opcode::kAbs},   {"exp", Opcode::kExp},     {"log", Opcode::kLog},
        {"sin", Opcode::kSin},   {"cos", Opcode::kCos},     {"pow", Opcode::kPow},
        {"floor", Opcode::kFloor}, {"ceil", Opcode::kCeil}, {"min", Opcode::kMin},
        {"max", Opcode::kMax},
    };
    auto it = kOps.find(c.callee);
    if (it == kOps.end()) throw CompileError("codegen: unknown intrinsic " + c.callee);
    std::uint32_t a = coerce(gen_value(*c.args[0]), t);
    std::uint32_t b = vir::kNoReg;
    if (c.args.size() > 1) b = coerce(gen_value(*c.args[1]), t);
    return emit_pure(it->second, t, a, b);
  }

  std::uint32_t pred_to_value(std::uint32_t pred) {
    std::uint32_t one = imm_i(1);
    std::uint32_t zero = imm_i(0);
    return emit_pure(Opcode::kSelp, VType::kI32, one, zero, pred);
  }

  std::uint32_t gen_pred(const Expr& e) {
    if (e.kind == ExprKind::kBinary) {
      const auto& b = e.as<ast::Binary>();
      if (ast::is_comparison(b.op)) {
        VType t = vtype_of(ast::common_type(b.lhs->type, b.rhs->type));
        std::uint32_t lhs = coerce(gen_value(*b.lhs), t);
        std::uint32_t rhs = coerce(gen_value(*b.rhs), t);
        Opcode op;
        switch (b.op) {
          case BinaryOp::kLt: op = Opcode::kSetLt; break;
          case BinaryOp::kLe: op = Opcode::kSetLe; break;
          case BinaryOp::kGt: op = Opcode::kSetGt; break;
          case BinaryOp::kGe: op = Opcode::kSetGe; break;
          case BinaryOp::kEq: op = Opcode::kSetEq; break;
          case BinaryOp::kNe: op = Opcode::kSetNe; break;
          default: op = Opcode::kSetNe; break;
        }
        // The *operand* type drives the comparison; the result is a pred.
        std::uint32_t dst = emit_pure(op, t, lhs, rhs);
        kernel_.vreg_types[dst] = VType::kPred;
        return dst;
      }
      if (b.op == BinaryOp::kAnd || b.op == BinaryOp::kOr) {
        std::uint32_t lhs = gen_pred(*b.lhs);
        std::uint32_t rhs = gen_pred(*b.rhs);
        std::uint32_t dst = emit_pure(
            b.op == BinaryOp::kAnd ? Opcode::kPredAnd : Opcode::kPredOr,
            VType::kPred, lhs, rhs);
        kernel_.vreg_types[dst] = VType::kPred;
        return dst;
      }
    }
    if (e.kind == ExprKind::kUnary && e.as<ast::Unary>().op == ast::UnaryOp::kNot) {
      std::uint32_t inner = gen_pred(*e.as<ast::Unary>().operand);
      std::uint32_t dst = emit_pure(Opcode::kPredNot, VType::kPred, inner);
      kernel_.vreg_types[dst] = VType::kPred;
      return dst;
    }
    std::uint32_t v = gen_value(e);
    std::uint32_t zero = kernel_.vreg_types[v] == VType::kF32 || kernel_.vreg_types[v] == VType::kF64
                             ? imm_f(0.0, kernel_.vreg_types[v])
                             : imm_i(0, kernel_.vreg_types[v]);
    std::uint32_t dst = emit_pure(Opcode::kSetNe, kernel_.vreg_types[v], v, zero);
    kernel_.vreg_types[dst] = VType::kPred;
    return dst;
  }

  std::uint32_t pred_not(std::uint32_t pred) {
    std::uint32_t dst = emit_pure(Opcode::kPredNot, VType::kPred, pred);
    kernel_.vreg_types[dst] = VType::kPred;
    return dst;
  }

  // -- array addressing ----------------------------------------------------------

  /// Offset in elements, in the offset type chosen by the `small` clause.
  std::uint32_t gen_offset(const ArrayRef& ref, const Symbol& sym, VType otype) {
    const int rank = sym.rank;
    bool use_clause_bounds = opts_.honor_dim && sym.dim_group >= 0 && !sym.dim_len.empty();
    const Symbol* dope_owner = &sym;
    if (opts_.honor_dim && sym.dim_group >= 0 && !use_clause_bounds) {
      dope_owner = dim_group_rep_.at(sym.dim_group);
    }
    bool small = opts_.honor_small && sym.small;

    auto lb_reg = [&](int d) -> std::uint32_t {
      switch (sym.decl_kind) {
        case ArrayDeclKind::kAllocatable:
          if (use_clause_bounds) {
            const Expr* lb = sym.dim_lb[static_cast<std::size_t>(d)];
            if (!lb) return vir::kNoReg;
            if (lb->kind == ExprKind::kIntLit && lb->as<ast::IntLit>().value == 0) {
              return vir::kNoReg;
            }
            return coerce(gen_value(*lb), otype);
          }
          return coerce(dope_param(dope_owner->name, d, /*is_lb=*/true, small), otype);
        default:
          return vir::kNoReg;  // C arrays: lower bound 0
      }
    };
    auto len_reg = [&](int d) -> std::uint32_t {
      switch (sym.decl_kind) {
        case ArrayDeclKind::kAllocatable:
          if (use_clause_bounds) {
            return coerce(gen_value(*sym.dim_len[static_cast<std::size_t>(d)]), otype);
          }
          return coerce(dope_param(dope_owner->name, d, /*is_lb=*/false, small), otype);
        case ArrayDeclKind::kStatic:
        case ArrayDeclKind::kVla:
          return coerce(gen_value(*sym.extents[static_cast<std::size_t>(d)]), otype);
        default:
          throw CompileError("codegen: extent requested for pointer array");
      }
    };
    auto term = [&](int d) -> std::uint32_t {
      std::uint32_t idx = coerce(gen_value(*ref.indices[static_cast<std::size_t>(d)]), otype);
      std::uint32_t lb = lb_reg(d);
      if (lb == vir::kNoReg) return idx;
      return emit_pure(Opcode::kSub, otype, idx, lb);
    };

    std::uint32_t off = term(0);
    for (int d = 1; d < rank; ++d) {
      std::uint32_t scaled = emit_pure(Opcode::kMul, otype, off, len_reg(d));
      off = emit_pure(Opcode::kAdd, otype, scaled, term(d));
    }
    return off;
  }

  /// Byte address of an array reference (an i64 vreg).
  std::uint32_t gen_address(const ArrayRef& ref) {
    const Symbol& sym = *ref.symbol;
    bool small = opts_.honor_small && sym.small;
    VType otype = small ? VType::kI32 : VType::kI64;
    std::uint32_t off = gen_offset(ref, sym, otype);
    std::uint32_t off64 = coerce(off, VType::kI64);
    std::uint32_t scale = imm_i(ast::size_of(sym.type), VType::kI64);
    std::uint32_t bytes = emit_pure(Opcode::kMul, VType::kI64, off64, scale);
    std::uint32_t base = array_base(sym);
    return emit_pure(Opcode::kAdd, VType::kI64, base, bytes);
  }

  std::uint32_t gen_load(const ArrayRef& ref) {
    std::uint32_t addr = gen_address(ref);
    VType t = vtype_of(ref.symbol->type);
    std::uint8_t flags = region_.read_only(*ref.symbol) ? Instr::kFlagReadOnly : 0;

    if (opts_.cse_loads_within_stmt) {
      VNKey key{};
      key.op = Opcode::kLdGlobal;
      key.type = t;
      key.a = addr;
      key.va = version(addr);
      key.b = key.c = vir::kNoReg;
      key.flags = flags;
      key.stmt_id = stmt_counter_;
      auto found = frame().vn.find(key);
      if (found != frame().vn.end()) return found->second;
      std::uint32_t dst = new_vreg(t);
      Instr in;
      in.op = Opcode::kLdGlobal;
      in.type = t;
      in.dst = dst;
      in.a = addr;
      in.flags = flags;
      emit(in);
      frame().vn.emplace(key, dst);
      return dst;
    }

    std::uint32_t dst = new_vreg(t);
    Instr in;
    in.op = Opcode::kLdGlobal;
    in.type = t;
    in.dst = dst;
    in.a = addr;
    in.flags = flags;
    emit(in);
    return dst;
  }

  // -- statements ------------------------------------------------------------------

  void gen_block(const BlockStmt& block) {
    for (const ast::StmtPtr& s : block.stmts) gen_stmt(*s);
  }

  void gen_stmt(const Stmt& s) {
    ++stmt_counter_;
    if (s.loc.valid()) cur_loc_ = s.loc;
    switch (s.kind) {
      case StmtKind::kBlock:
        gen_block(s.as<BlockStmt>());
        break;
      case StmtKind::kDecl: {
        // A declaration without an initializer zeroes its slot each time it
        // runs, as the CPU reference does: inside a loop the slot must not
        // carry the previous iteration's value.
        const auto& d = s.as<DeclStmt>();
        const VType t = vtype_of(d.decl_type);
        std::uint32_t slot = var_slot(d.symbol, t);
        std::uint32_t v;
        if (d.init) {
          v = coerce(gen_value(*d.init), t);
        } else {
          v = ast::is_float(d.decl_type) ? imm_f(0.0, t) : imm_i(0, t);
        }
        store_slot(slot, v);
        break;
      }
      case StmtKind::kAssign:
        gen_assign(s.as<AssignStmt>());
        break;
      case StmtKind::kFor: {
        const auto& f = s.as<ForStmt>();
        // Scheduled loops are generated by the gen_scheduled_loop() chain;
        // anything reached here is sequential inside the kernel.
        gen_for_seq(f);
        break;
      }
      case StmtKind::kIf:
        gen_if(s.as<IfStmt>());
        break;
      case StmtKind::kReturn: {
        Instr in;
        in.op = Opcode::kExit;
        emit(in);
        break;
      }
    }
  }

  bool subscripts_use_scheduled_iv(const ArrayRef& ref) const {
    std::function<bool(const Expr&)> walk = [&](const Expr& e) -> bool {
      switch (e.kind) {
        case ExprKind::kVarRef:
          return scheduled_ivs_.count(e.as<VarRef>().symbol) != 0;
        case ExprKind::kUnary:
          return walk(*e.as<ast::Unary>().operand);
        case ExprKind::kBinary:
          return walk(*e.as<ast::Binary>().lhs) || walk(*e.as<ast::Binary>().rhs);
        case ExprKind::kCall: {
          for (const ast::ExprPtr& a : e.as<ast::Call>().args) {
            if (walk(*a)) return true;
          }
          return false;
        }
        case ExprKind::kCast:
          return walk(*e.as<ast::Cast>().operand);
        case ExprKind::kArrayRef: {
          for (const ast::ExprPtr& a : e.as<ArrayRef>().indices) {
            if (walk(*a)) return true;
          }
          return false;
        }
        default:
          return false;
      }
    };
    for (const ast::ExprPtr& idx : ref.indices) {
      if (walk(*idx)) return true;
    }
    return false;
  }

  void gen_assign(const AssignStmt& a) {
    using ast::AssignOp;
    if (a.lhs->kind == ExprKind::kVarRef) {
      const Symbol* sym = a.lhs->as<VarRef>().symbol;
      VType t = vtype_of(sym->type);
      std::uint32_t slot = var_slot(sym, t);
      std::uint32_t rhs = coerce(gen_value(*a.rhs), t);
      std::uint32_t value = rhs;
      if (a.op != AssignOp::kAssign) {
        Opcode op = a.op == AssignOp::kAddAssign   ? Opcode::kAdd
                    : a.op == AssignOp::kSubAssign ? Opcode::kSub
                    : a.op == AssignOp::kMulAssign ? Opcode::kMul
                                                   : Opcode::kDiv;
        value = emit_pure(op, t, slot, rhs);
      }
      store_slot(slot, value);
      return;
    }

    const ArrayRef& ref = a.lhs->as<ArrayRef>();
    VType t = vtype_of(ref.symbol->type);
    std::uint32_t rhs = coerce(gen_value(*a.rhs), t);

    bool in_parallel = !region_.scheduled_loops.empty();
    bool is_reduction_update =
        (a.op == ast::AssignOp::kAddAssign || a.op == ast::AssignOp::kSubAssign) &&
        in_parallel && !subscripts_use_scheduled_iv(ref);
    if (is_reduction_update) {
      // OpenACC reduction semantics: every thread updates the same element,
      // so the update must be atomic.
      std::uint32_t addr = gen_address(ref);
      std::uint32_t value = rhs;
      if (a.op == ast::AssignOp::kSubAssign) value = emit_pure(Opcode::kNeg, t, rhs);
      Instr in;
      in.op = Opcode::kAtomAdd;
      in.type = t;
      in.a = addr;
      in.b = value;
      emit(in);
      return;
    }

    std::uint32_t addr = gen_address(ref);
    std::uint32_t value = rhs;
    if (a.op != ast::AssignOp::kAssign) {
      std::uint32_t old_val = new_vreg(t);
      Instr ld;
      ld.op = Opcode::kLdGlobal;
      ld.type = t;
      ld.dst = old_val;
      ld.a = addr;
      emit(ld);
      Opcode op = a.op == ast::AssignOp::kAddAssign   ? Opcode::kAdd
                  : a.op == ast::AssignOp::kSubAssign ? Opcode::kSub
                  : a.op == ast::AssignOp::kMulAssign ? Opcode::kMul
                                                      : Opcode::kDiv;
      value = emit_pure(op, t, old_val, rhs);
    }
    Instr st;
    st.op = Opcode::kStGlobal;
    st.type = t;
    st.a = addr;
    st.b = value;
    emit(st);
  }

  void gen_if(const IfStmt& i) {
    const SourceLoc if_loc = cur_loc_;
    std::uint32_t pred = gen_pred(*i.cond);
    std::uint32_t npred = pred_not(pred);
    std::int32_t l_end = alloc_label();
    std::int32_t l_else = i.else_block ? alloc_label() : l_end;

    Instr br;
    br.op = Opcode::kCbr;
    br.a = npred;
    br.imm = l_else;
    br.imm2 = l_end;
    emit(br);

    push_scope();
    gen_block(*i.then_block);
    pop_scope();

    if (i.else_block) {
      cur_loc_ = if_loc;  // the then->end jump belongs to the if, not its body
      Instr jump;
      jump.op = Opcode::kBra;
      jump.imm = l_end;
      emit(jump);
      cur().place_label(l_else);
      push_scope();
      gen_block(*i.else_block);
      pop_scope();
    }
    cur_loc_ = if_loc;
    cur().place_label(l_end);
  }

  // -- loops ---------------------------------------------------------------------

  void push_scope() {
    Frame f;
    f.kind = Frame::Kind::kScope;
    f.body_depth = cur_depth();
    frames_.push_back(std::move(f));
  }

  void pop_scope() {
    Frame f = std::move(frames_.back());
    frames_.pop_back();
    // A scope has no preheader; its code lands in the parent buffer.
    cur().append(std::move(f.buf));
  }

  void push_loop() {
    Frame f;
    f.kind = Frame::Kind::kLoop;
    f.body_depth = cur_depth() + 1;
    frames_.push_back(std::move(f));
  }

  void pop_loop() {
    Frame f = std::move(frames_.back());
    frames_.pop_back();
    cur().append(std::move(f.preheader));
    cur().append(std::move(f.buf));
  }

  void gen_for_seq(const ForStmt& f) {
    VType iv_t = vtype_of(f.iv_symbol->type);
    std::uint32_t init_v = coerce(gen_value(*f.init), iv_t);
    std::uint32_t iv = var_slot(f.iv_symbol, iv_t);
    store_slot(iv, init_v);

    gen_loop_body(f, iv, iv_t, /*stride_reg=*/vir::kNoReg,
                  [&] { gen_block(*f.body); });
  }

  /// Shared loop skeleton: head test, body, latch. For scheduled loops the
  /// latch adds `stride_reg` (grid stride) instead of the step constant.
  void gen_loop_body(const ForStmt& f, std::uint32_t iv, VType iv_t,
                     std::uint32_t stride_reg,
                     const std::function<void()>& body_gen) {
    if (f.loc.valid()) cur_loc_ = f.loc;
    const SourceLoc loop_loc = cur_loc_;
    push_loop();
    bump_loop_carried_versions(f);

    std::int32_t l_head = alloc_label();
    std::int32_t l_exit = alloc_label();
    cur().place_label(l_head);

    std::uint32_t bound = coerce(gen_value(*f.bound), iv_t);
    Opcode cmp_op;
    switch (f.cmp) {
      case ast::CmpOp::kLt: cmp_op = Opcode::kSetLt; break;
      case ast::CmpOp::kLe: cmp_op = Opcode::kSetLe; break;
      case ast::CmpOp::kGt: cmp_op = Opcode::kSetGt; break;
      case ast::CmpOp::kGe: cmp_op = Opcode::kSetGe; break;
      default: cmp_op = Opcode::kSetLt; break;
    }
    std::uint32_t cond = emit_pure(cmp_op, iv_t, iv, bound);
    kernel_.vreg_types[cond] = VType::kPred;
    std::uint32_t ncond = pred_not(cond);
    Instr br;
    br.op = Opcode::kCbr;
    br.a = ncond;
    br.imm = l_exit;
    br.imm2 = l_exit;
    emit(br);

    body_gen();

    // Latch — attributed to the for statement, not the body's last line.
    cur_loc_ = loop_loc;
    std::uint32_t stride =
        stride_reg != vir::kNoReg ? stride_reg : imm_i(f.step, iv_t);
    std::uint32_t next = emit_pure(Opcode::kAdd, iv_t, iv, stride);
    store_slot(iv, next);
    Instr jump;
    jump.op = Opcode::kBra;
    jump.imm = l_head;
    emit(jump);

    pop_loop();
    cur_loc_ = loop_loc;
    cur().place_label(l_exit);
  }

  void gen_scheduled_loop(std::size_t p) {
    const ForStmt& f = *region_.scheduled_loops[p];
    if (f.loc.valid()) cur_loc_ = f.loc;
    const std::size_t n = region_.scheduled_loops.size();
    const int dim = static_cast<int>(n - 1 - p);  // innermost -> x (0)

    VType iv_t = vtype_of(f.iv_symbol->type);
    auto special = [&](SpecialReg base) {
      return emit_pure(Opcode::kMovSpecial, VType::kI32, vir::kNoReg, vir::kNoReg,
                       vir::kNoReg, static_cast<std::int64_t>(base) + dim);
    };
    std::uint32_t tid = special(SpecialReg::kTidX);
    std::uint32_t ctaid = special(SpecialReg::kCtaidX);
    std::uint32_t ntid = special(SpecialReg::kNtidX);
    std::uint32_t nctaid = special(SpecialReg::kNctaidX);

    std::uint32_t gid32 = emit_pure(
        Opcode::kAdd, VType::kI32, emit_pure(Opcode::kMul, VType::kI32, ctaid, ntid),
        tid);
    std::uint32_t stride32 = emit_pure(Opcode::kMul, VType::kI32, nctaid, ntid);
    std::uint32_t gid = coerce(gid32, iv_t);
    std::uint32_t stride = coerce(stride32, iv_t);

    std::uint32_t step = imm_i(f.step, iv_t);
    std::uint32_t init_v = coerce(gen_value(*f.init), iv_t);
    std::uint32_t start = emit_pure(Opcode::kAdd, iv_t, init_v,
                                    emit_pure(Opcode::kMul, iv_t, gid, step));
    std::uint32_t grid_step = emit_pure(Opcode::kMul, iv_t, stride, step);

    std::uint32_t iv = var_slot(f.iv_symbol, iv_t);
    store_slot(iv, start);

    gen_loop_body(f, iv, iv_t, grid_step, [&] {
      if (p + 1 < n) {
        gen_scheduled_loop(p + 1);
      } else {
        gen_block(*f.body);
      }
    });
  }

  // -- launch plan ------------------------------------------------------------------

  LaunchPlan build_launch_plan() const {
    LaunchPlan plan;
    const auto& sched = region_.scheduled_loops;
    for (std::size_t i = sched.size(); i-- > 0;) {  // innermost first -> x
      const ForStmt& f = *sched[i];
      DimPlan dp;
      dp.init = f.init->clone();
      dp.bound = f.bound->clone();
      dp.cmp = f.cmp;
      dp.step = f.step;
      if (f.directive) {
        if (f.directive->vector_size) dp.vector_len = f.directive->vector_size->clone();
        if (f.directive->gang_size) dp.gang_count = f.directive->gang_size->clone();
      }
      plan.dims.push_back(std::move(dp));
    }
    if (plan.dims.empty()) {
      // Fully sequential region: launch exactly one thread.
      DimPlan dp;
      dp.init = std::make_unique<ast::IntLit>(0, SourceLoc{});
      dp.bound = std::make_unique<ast::IntLit>(1, SourceLoc{});
      dp.cmp = ast::CmpOp::kLt;
      dp.step = 1;
      dp.vector_len = std::make_unique<ast::IntLit>(1, SourceLoc{});
      dp.gang_count = std::make_unique<ast::IntLit>(1, SourceLoc{});
      plan.dims.push_back(std::move(dp));
    }
    return plan;
  }

  const sema::FunctionInfo& info_;
  const sema::OffloadRegion& region_;
  const CodegenOptions opts_;
  DiagnosticEngine& diags_;

  vir::Kernel kernel_;
  std::vector<Frame> frames_;
  std::vector<int> vreg_depth_;
  std::vector<bool> vreg_mutable_;
  std::vector<std::uint32_t> vreg_version_;
  std::vector<int> vreg_version_depth_;
  std::unordered_map<const Symbol*, std::uint32_t> var_reg_;
  std::unordered_map<std::string, std::int64_t> param_index_;
  std::unordered_set<const Symbol*> scheduled_ivs_;
  std::unordered_map<int, const Symbol*> dim_group_rep_;
  std::uint64_t stmt_counter_ = 0;
  /// Location of the statement currently being lowered; stamped onto every
  /// emitted instruction (see Instr::loc).
  SourceLoc cur_loc_;
};

}  // namespace

CodegenResult generate_kernel(const sema::FunctionInfo& info,
                              const sema::OffloadRegion& region, int region_index,
                              const CodegenOptions& opts, DiagnosticEngine& diags) {
  KernelBuilder builder(info, region, region_index, opts, diags);
  return builder.run();
}

}  // namespace safara::codegen

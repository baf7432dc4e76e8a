#include "fuzz/oracles.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "ast/hash.hpp"
#include "ast/printer.hpp"
#include "driver/compiler.hpp"
#include "parse/parser.hpp"
#include "regalloc/regalloc.hpp"
#include "rt/runtime.hpp"
#include "support/diagnostics.hpp"
#include "vgpu/sim.hpp"

namespace safara::fuzz {

const std::vector<Oracle>& all_oracles() {
  static const std::vector<Oracle> kAll = {
      Oracle::kRoundtrip, Oracle::kRefVsSim, Oracle::kSafaraOnOff,
      Oracle::kDispatch, Oracle::kThreads, Oracle::kOptVsNoopt,
      Oracle::kLinearVsColor, Oracle::kSpillMem,
  };
  return kAll;
}

const char* to_string(Oracle o) {
  switch (o) {
    case Oracle::kRoundtrip: return "roundtrip";
    case Oracle::kRefVsSim: return "ref-vs-sim";
    case Oracle::kSafaraOnOff: return "safara-on-off";
    case Oracle::kDispatch: return "dispatch";
    case Oracle::kThreads: return "threads";
    case Oracle::kOptVsNoopt: return "opt-vs-noopt";
    case Oracle::kLinearVsColor: return "linear-vs-color";
    case Oracle::kSpillMem: return "spillmem-local-vs-shared";
  }
  return "?";
}

bool parse_oracle(std::string_view name, Oracle& out) {
  for (Oracle o : all_oracles()) {
    if (name == to_string(o)) {
      out = o;
      return true;
    }
  }
  return false;
}

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kDiverged: return "diverged";
    case Status::kError: return "error";
  }
  return "?";
}

// -- argument derivation ------------------------------------------------------------

namespace {

std::uint64_t name_seed(const std::string& name) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h | 1;
}

void fill_array(driver::HostArray& arr, std::uint64_t seed) {
  std::uint64_t s = seed;
  for (std::int64_t i = 0; i < arr.element_count(); ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    if (ast::is_float(arr.elem)) {
      arr.set(i, 0.25 + static_cast<double>(s % 1000) / 1000.0);
    } else {
      arr.set_int(i, static_cast<std::int64_t>(s % 97));  // non-negative: safe
    }                                                     // under `% extent`
  }
}

std::int64_t eval_extent(const ast::Expr& e,
                         const std::map<std::string, rt::ScalarValue>& scalars) {
  switch (e.kind) {
    case ast::ExprKind::kIntLit:
      return e.as<ast::IntLit>().value;
    case ast::ExprKind::kVarRef: {
      auto it = scalars.find(e.as<ast::VarRef>().name);
      if (it == scalars.end()) {
        throw std::runtime_error("array extent references unknown scalar '" +
                                 e.as<ast::VarRef>().name + "'");
      }
      return it->second.as_int();
    }
    case ast::ExprKind::kBinary: {
      const auto& b = e.as<ast::Binary>();
      const std::int64_t l = eval_extent(*b.lhs, scalars);
      const std::int64_t r = eval_extent(*b.rhs, scalars);
      switch (b.op) {
        case ast::BinaryOp::kAdd: return l + r;
        case ast::BinaryOp::kSub: return l - r;
        case ast::BinaryOp::kMul: return l * r;
        case ast::BinaryOp::kDiv: return r == 0 ? 0 : l / r;
        default: break;
      }
      throw std::runtime_error("unsupported operator in array extent");
    }
    default:
      throw std::runtime_error("unsupported array extent expression");
  }
}

}  // namespace

ArgSet derive_args(const ast::Function& fn) {
  ArgSet args;
  // Scalars first: array extents may reference them regardless of parameter
  // order.
  for (const ast::Param& p : fn.params) {
    if (p.is_array()) continue;
    rt::ScalarValue v;
    v.type = p.elem;
    if (ast::is_float(p.elem)) {
      v.f = p.elem == ast::ScalarType::kF32 ? 1.5 : 2.5;
    } else if (p.name == "n") {
      v.i = 24;
    } else if (p.name == "m") {
      v.i = 16;
    } else {
      v.i = 8;
    }
    args.scalars.emplace(p.name, v);
  }
  for (const ast::Param& p : fn.params) {
    if (!p.is_array()) continue;
    std::vector<rt::Dim> dims;
    if (p.decl_kind == ast::ArrayDeclKind::kPointer) {
      dims.push_back({0, 24});
    } else {
      for (std::size_t d = 0; d < p.extents.size(); ++d) {
        if (p.extents[d]) {
          dims.push_back({0, eval_extent(*p.extents[d], args.scalars)});
        } else {
          dims.push_back({0, d == 0 ? 24 : 16});  // allocatable '?' dope shape
        }
      }
    }
    driver::HostArray arr = driver::HostArray::make(p.elem, std::move(dims));
    fill_array(arr, name_seed(p.name));
    args.arrays.emplace(p.name, arr);
  }
  return args;
}

// -- oracle machinery ---------------------------------------------------------------

namespace {

/// The oracles simulate on one host thread unless the pair under test is the
/// thread count itself.
constexpr vgpu::SimOptions kOneThread{.threads = 1};

std::vector<vgpu::LaunchStats> run_on_sim(const driver::CompiledProgram& prog,
                                          ArgSet& data, const vgpu::SimOptions& sim) {
  rt::Device dev(vgpu::DeviceSpec::k20xm());
  rt::Runtime runtime(dev, sim);
  std::map<std::string, rt::Buffer> buffers;
  rt::ArgMap args;
  for (auto& [name, arr] : data.arrays) {
    rt::Buffer buf = runtime.alloc(arr.elem, arr.dims);
    dev.memory().copy_in(buf.device_addr, arr.data.data(), arr.data.size());
    buffers.emplace(name, buf);
  }
  for (auto& [name, buf] : buffers) args.emplace(name, &buf);
  for (auto& [name, sv] : data.scalars) args.emplace(name, sv);

  std::vector<vgpu::LaunchStats> stats;
  for (const driver::CompiledKernel& k : prog.kernels) {
    stats.push_back(runtime.launch(k.kernel, k.alloc, k.plan, args, nullptr));
  }
  for (auto& [name, arr] : data.arrays) {
    dev.memory().copy_out(buffers.at(name).device_addr, arr.data.data(),
                          arr.data.size());
  }
  return stats;
}

/// Byte-exact result comparison; fills `why` with the first difference.
bool results_equal(const ArgSet& a, const ArgSet& b, std::string* why) {
  for (const auto& [name, arr] : a.arrays) {
    const driver::HostArray& other = b.arrays.at(name);
    if (arr.data == other.data) continue;
    // Bytes are authoritative; the element scan just locates a value for the
    // report (it can come up empty when only NaN payloads differ).
    std::ostringstream os;
    os << "array '" << name << "' differs";
    bool located = false;
    for (std::int64_t i = 0; i < arr.element_count() && !located; ++i) {
      located = ast::is_float(arr.elem)
                    ? arr.get(i) != other.get(i)
                    : arr.get_int(i) != other.get_int(i);
      if (located) {
        os << " at linear index " << i << ": " << arr.get(i) << " vs "
           << other.get(i);
      }
    }
    if (!located) os << " in raw bytes only (NaN payloads?)";
    *why = os.str();
    return false;
  }
  return true;
}

bool stats_equal(const std::vector<vgpu::LaunchStats>& a,
                 const std::vector<vgpu::LaunchStats>& b, std::string* why) {
  if (a.size() != b.size()) {
    *why = "kernel count differs";
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string da = a[i].to_json().dump();
    const std::string db = b[i].to_json().dump();
    if (da != db) {
      *why = "LaunchStats differ for kernel " + std::to_string(i) + ": " + da +
             " vs " + db;
      return false;
    }
  }
  return true;
}

ast::Program parse_or_throw(const std::string& source) {
  DiagnosticEngine diags;
  ast::Program prog = parse::parse_source(source, diags);
  if (!diags.ok()) throw CompileError(diags.render());
  if (prog.functions.empty()) throw CompileError("no function in program");
  return prog;
}

bool flip_first_binary(ast::Expr& e, ast::BinaryOp from, ast::BinaryOp to) {
  switch (e.kind) {
    case ast::ExprKind::kBinary: {
      auto& b = e.as<ast::Binary>();
      if (b.op == from) {
        b.op = to;
        return true;
      }
      return flip_first_binary(*b.lhs, from, to) ||
             flip_first_binary(*b.rhs, from, to);
    }
    case ast::ExprKind::kUnary:
      return flip_first_binary(*e.as<ast::Unary>().operand, from, to);
    case ast::ExprKind::kCast:
      return flip_first_binary(*e.as<ast::Cast>().operand, from, to);
    case ast::ExprKind::kCall: {
      for (ast::ExprPtr& a : e.as<ast::Call>().args) {
        if (flip_first_binary(*a, from, to)) return true;
      }
      return false;
    }
    default:
      return false;  // ArrayRef indices excluded: keep the mutant in bounds
  }
}

bool flip_in_stmt(ast::Stmt& s, ast::BinaryOp from, ast::BinaryOp to) {
  switch (s.kind) {
    case ast::StmtKind::kBlock: {
      for (ast::StmtPtr& c : s.as<ast::BlockStmt>().stmts) {
        if (flip_in_stmt(*c, from, to)) return true;
      }
      return false;
    }
    case ast::StmtKind::kDecl: {
      auto& d = s.as<ast::DeclStmt>();
      return d.init && flip_first_binary(*d.init, from, to);
    }
    case ast::StmtKind::kAssign:
      return flip_first_binary(*s.as<ast::AssignStmt>().rhs, from, to);
    case ast::StmtKind::kFor:
      // Loop bounds excluded: a flipped bound changes trip counts and can run
      // out of bounds, which reports kError instead of a clean kDiverged.
      return flip_in_stmt(*s.as<ast::ForStmt>().body, from, to);
    case ast::StmtKind::kIf: {
      auto& i = s.as<ast::IfStmt>();
      if (flip_in_stmt(*i.then_block, from, to)) return true;
      return i.else_block && flip_in_stmt(*i.else_block, from, to);
    }
    default:
      return false;
  }
}

/// The injected miscompile: the first value-position '+' becomes '-' (falling
/// back to '*' -> '-'). Returns the mutated source.
std::string mutate_source(const std::string& source) {
  ast::Program prog = parse_or_throw(source);
  ast::Function& fn = *prog.functions.front();
  if (!flip_in_stmt(*fn.body, ast::BinaryOp::kAdd, ast::BinaryOp::kSub)) {
    flip_in_stmt(*fn.body, ast::BinaryOp::kMul, ast::BinaryOp::kSub);
  }
  return ast::to_source(prog);
}

OracleResult roundtrip_oracle(const std::string& source) {
  OracleResult r{Oracle::kRoundtrip, Status::kOk, ""};
  ast::Program p1 = parse_or_throw(source);
  const std::string printed = ast::to_source(p1);
  DiagnosticEngine d2;
  ast::Program p2 = parse::parse_source(printed, d2);
  if (!d2.ok()) {
    r.status = Status::kDiverged;
    r.detail = "printed program does not reparse: " + d2.render();
    return r;
  }
  if (p1.functions.size() != p2.functions.size()) {
    r.status = Status::kDiverged;
    r.detail = "function count changed across print/reparse";
    return r;
  }
  for (std::size_t i = 0; i < p1.functions.size(); ++i) {
    if (ast::hash(*p1.functions[i]) != ast::hash(*p2.functions[i])) {
      r.status = Status::kDiverged;
      r.detail = "AST hash changed across print/reparse for function '" +
                 p1.functions[i]->name + "'";
      return r;
    }
  }
  if (ast::to_source(p2) != printed) {
    r.status = Status::kDiverged;
    r.detail = "printer is not a fixpoint: second print differs";
  }
  return r;
}

OracleResult ref_vs_sim_oracle(const std::string& source, bool inject) {
  OracleResult r{Oracle::kRefVsSim, Status::kOk, ""};

  driver::Compiler compiler(driver::CompilerOptions::openuh_base());
  driver::CompiledProgram prog =
      compiler.compile(inject ? mutate_source(source) : source);
  ast::Program parsed = parse_or_throw(source);

  ArgSet sim_data = derive_args(*parsed.functions.front());
  run_on_sim(prog, sim_data, kOneThread);

  ArgSet ref_data = derive_args(*parsed.functions.front());
  driver::RefArgMap ref_args;
  for (auto& [name, arr] : ref_data.arrays) ref_args.emplace(name, &arr);
  for (auto& [name, sv] : ref_data.scalars) ref_args.emplace(name, sv);
  driver::run_reference(*parsed.functions.front(), ref_args);

  std::string why;
  if (!results_equal(sim_data, ref_data, &why)) {
    r.status = Status::kDiverged;
    r.detail = "simulator vs reference: " + why;
  }
  return r;
}

OracleResult safara_on_off_oracle(const std::string& source, bool inject) {
  OracleResult r{Oracle::kSafaraOnOff, Status::kOk, ""};

  driver::Compiler base(driver::CompilerOptions::openuh_base());
  driver::CompiledProgram prog_a = base.compile(source);
  driver::Compiler safara(driver::CompilerOptions::openuh_safara_clauses());
  driver::CompiledProgram prog_b =
      safara.compile(inject ? mutate_source(source) : source);

  ast::Program parsed = parse_or_throw(source);
  ArgSet data_a = derive_args(*parsed.functions.front());
  ArgSet data_b = derive_args(*parsed.functions.front());
  run_on_sim(prog_a, data_a, kOneThread);
  run_on_sim(prog_b, data_b, kOneThread);

  std::string why;
  if (!results_equal(data_a, data_b, &why)) {
    r.status = Status::kDiverged;
    r.detail = "SAFARA off vs on: " + why;
  }
  return r;
}

OracleResult dispatch_oracle(const std::string& source) {
  OracleResult r{Oracle::kDispatch, Status::kOk, ""};

  driver::Compiler compiler(driver::CompilerOptions::openuh_safara_clauses());
  driver::CompiledProgram prog = compiler.compile(source);
  ast::Program parsed = parse_or_throw(source);

  ArgSet data_a = derive_args(*parsed.functions.front());
  std::vector<vgpu::LaunchStats> stats_a =
      run_on_sim(prog, data_a, {.threads = 1, .dispatch = vgpu::SimDispatch::kSuper});

  ArgSet data_b = derive_args(*parsed.functions.front());
  std::vector<vgpu::LaunchStats> stats_b =
      run_on_sim(prog, data_b, {.threads = 1, .dispatch = vgpu::SimDispatch::kRef});

  std::string why;
  if (!results_equal(data_a, data_b, &why)) {
    r.status = Status::kDiverged;
    r.detail = "super vs ref dispatch results: " + why;
  } else if (!stats_equal(stats_a, stats_b, &why)) {
    r.status = Status::kDiverged;
    r.detail = "super vs ref dispatch stats: " + why;
  }
  return r;
}

OracleResult threads_oracle(const std::string& source) {
  OracleResult r{Oracle::kThreads, Status::kOk, ""};

  driver::Compiler compiler(driver::CompilerOptions::openuh_base());
  driver::CompiledProgram prog = compiler.compile(source);
  ast::Program parsed = parse_or_throw(source);

  ArgSet data_a = derive_args(*parsed.functions.front());
  std::vector<vgpu::LaunchStats> stats_a = run_on_sim(prog, data_a, kOneThread);

  ArgSet data_b = derive_args(*parsed.functions.front());
  std::vector<vgpu::LaunchStats> stats_b = run_on_sim(prog, data_b, {.threads = 4});

  std::string why;
  if (!results_equal(data_a, data_b, &why)) {
    r.status = Status::kDiverged;
    r.detail = "1 vs 4 sim threads results: " + why;
  } else if (!stats_equal(stats_a, stats_b, &why)) {
    r.status = Status::kDiverged;
    r.detail = "1 vs 4 sim threads stats: " + why;
  }
  return r;
}

/// The pass-pipeline differential: --opt-level 0 vs 2 under the full
/// safara_clauses configuration. Results must be byte-exact and the
/// LaunchStats metadata compatible: identical launch counts, identical
/// global stores and atomics (passes never touch side effects), and the
/// optimized side may only shed global loads (DCE deletes dead loads;
/// nothing may invent one). Registers are bounded on a separate base-config
/// compile, because under safara_clauses the feedback loop deliberately
/// reinvests freed registers in more scalar replacement.
OracleResult opt_vs_noopt_oracle(const std::string& source, bool inject) {
  OracleResult r{Oracle::kOptVsNoopt, Status::kOk, ""};

  driver::CompilerOptions off = driver::CompilerOptions::openuh_safara_clauses();
  off.opt_level = 0;
  driver::CompilerOptions on = off;
  on.opt_level = 2;
  driver::Compiler c_off(off);
  driver::CompiledProgram prog_a = c_off.compile(source);
  driver::Compiler c_on(on);
  const std::string source_b = inject ? mutate_source(source) : source;
  driver::CompiledProgram prog_b = c_on.compile(source_b);

  ast::Program parsed = parse_or_throw(source);
  ArgSet data_a = derive_args(*parsed.functions.front());
  ArgSet data_b = derive_args(*parsed.functions.front());
  std::vector<vgpu::LaunchStats> stats_a = run_on_sim(prog_a, data_a, kOneThread);
  std::vector<vgpu::LaunchStats> stats_b = run_on_sim(prog_b, data_b, kOneThread);

  std::string why;
  if (!results_equal(data_a, data_b, &why)) {
    r.status = Status::kDiverged;
    r.detail = "opt-level 0 vs 2 results: " + why;
    return r;
  }
  if (stats_a.size() != stats_b.size()) {
    r.status = Status::kDiverged;
    r.detail = "opt-level 0 vs 2: launch count differs (" +
               std::to_string(stats_a.size()) + " vs " + std::to_string(stats_b.size()) + ")";
    return r;
  }
  for (std::size_t i = 0; i < stats_a.size(); ++i) {
    const vgpu::LaunchStats& a = stats_a[i];
    const vgpu::LaunchStats& b = stats_b[i];
    std::ostringstream os;
    if (a.global_stores != b.global_stores) {
      os << "global_stores " << a.global_stores << " vs " << b.global_stores;
    } else if (a.atomics != b.atomics) {
      os << "atomics " << a.atomics << " vs " << b.atomics;
    } else if (b.global_loads > a.global_loads) {
      os << "optimized side gained global loads: " << a.global_loads << " vs "
         << b.global_loads;
    }
    if (!os.str().empty()) {
      r.status = Status::kDiverged;
      r.detail = "opt-level 0 vs 2 stats for kernel " + std::to_string(i) + ": " + os.str();
      return r;
    }
  }

  // Provenance oracle: every instruction the full -O2 pipeline emits must
  // still resolve to a valid line of the compiled source. Passes may hoist,
  // clone, or delete instructions, but none may mint one without a source
  // location or point it past the end of the translation unit — the
  // attribution profile would silently misreport otherwise.
  const std::uint32_t source_lines = static_cast<std::uint32_t>(
      1 + std::count(source_b.begin(), source_b.end(), '\n'));
  for (std::size_t i = 0; i < prog_b.kernels.size(); ++i) {
    const vir::Kernel& k = prog_b.kernels[i].kernel;
    for (std::size_t pc = 0; pc < k.code.size(); ++pc) {
      const SourceLoc loc = k.code[pc].loc;
      if (!loc.valid() || loc.line > source_lines) {
        r.status = Status::kDiverged;
        r.detail = "opt-level 2 provenance: kernel " + std::to_string(i) + " pc " +
                   std::to_string(pc) +
                   (loc.valid() ? " points at out-of-range line " + std::to_string(loc.line)
                                : " lost its source location");
        return r;
      }
    }
  }

  // Pressure bound on the feedback-free base config: with SAFARA out of the
  // picture, the pipeline must never raise a kernel's max live register
  // pressure (the property every pass either preserves or is gated on).
  // The allocator's final register count is NOT monotone here — linear scan
  // on reshaped intervals can spend a couple more physical registers even
  // at equal pressure — so the oracle bounds the pressure, not the count.
  driver::CompilerOptions base_off = driver::CompilerOptions::openuh_base();
  base_off.opt_level = 0;
  driver::CompilerOptions base_on = base_off;
  base_on.opt_level = 2;
  driver::CompiledProgram base_a = driver::Compiler(base_off).compile(source);
  driver::CompiledProgram base_b = driver::Compiler(base_on).compile(source);
  if (base_a.kernels.size() == base_b.kernels.size()) {
    for (std::size_t i = 0; i < base_a.kernels.size(); ++i) {
      // At level 0 the pipeline is a no-op, so pressure_after is the raw
      // codegen pressure; the optimized side must stay at or below it.
      const int raw = base_a.kernels[i].vir_stats.pressure_after;
      const int opt = base_b.kernels[i].vir_stats.pressure_after;
      if (opt > raw) {
        r.status = Status::kDiverged;
        r.detail = "base-config live pressure grew under --opt-level 2 for kernel " +
                   std::to_string(i) + ": " + std::to_string(raw) + " vs " +
                   std::to_string(opt);
        return r;
      }
    }
  }
  return r;
}

/// The allocator differential: linear scan vs graph coloring, same source.
/// Allocation only redistributes values between registers and spill slots —
/// it never changes what a kernel computes — so results must be byte-exact.
/// Under safara_clauses the two sides may legitimately compile *different*
/// code (the feedback loop reacts to each allocator's register counts), so
/// only launch count, global stores and atomics are pinned there. The
/// feedback-free base-config pair compiles identical VIR, so loads must
/// match too.
OracleResult linear_vs_color_oracle(const std::string& source, bool inject) {
  OracleResult r{Oracle::kLinearVsColor, Status::kOk, ""};

  driver::CompilerOptions lin = driver::CompilerOptions::openuh_safara_clauses();
  lin.regalloc.strategy = regalloc::Strategy::kLinear;
  driver::CompilerOptions col = driver::CompilerOptions::openuh_safara_clauses();
  col.regalloc.strategy = regalloc::Strategy::kColor;
  driver::CompiledProgram prog_a = driver::Compiler(lin).compile(source);
  const std::string source_b = inject ? mutate_source(source) : source;
  driver::CompiledProgram prog_b = driver::Compiler(col).compile(source_b);

  ast::Program parsed = parse_or_throw(source);
  ArgSet data_a = derive_args(*parsed.functions.front());
  ArgSet data_b = derive_args(*parsed.functions.front());
  std::vector<vgpu::LaunchStats> stats_a = run_on_sim(prog_a, data_a, kOneThread);
  std::vector<vgpu::LaunchStats> stats_b = run_on_sim(prog_b, data_b, kOneThread);

  std::string why;
  if (!results_equal(data_a, data_b, &why)) {
    r.status = Status::kDiverged;
    r.detail = "linear vs color results: " + why;
    return r;
  }
  if (stats_a.size() != stats_b.size()) {
    r.status = Status::kDiverged;
    r.detail = "linear vs color: launch count differs (" +
               std::to_string(stats_a.size()) + " vs " +
               std::to_string(stats_b.size()) + ")";
    return r;
  }
  for (std::size_t i = 0; i < stats_a.size(); ++i) {
    const vgpu::LaunchStats& a = stats_a[i];
    const vgpu::LaunchStats& b = stats_b[i];
    std::ostringstream os;
    if (a.global_stores != b.global_stores) {
      os << "global_stores " << a.global_stores << " vs " << b.global_stores;
    } else if (a.atomics != b.atomics) {
      os << "atomics " << a.atomics << " vs " << b.atomics;
    }
    if (!os.str().empty()) {
      r.status = Status::kDiverged;
      r.detail = "linear vs color stats for kernel " + std::to_string(i) + ": " + os.str();
      return r;
    }
  }

  // Feedback-free pair: identical VIR, so all memory traffic must agree.
  driver::CompilerOptions base_lin = driver::CompilerOptions::openuh_base();
  base_lin.regalloc.strategy = regalloc::Strategy::kLinear;
  driver::CompilerOptions base_col = driver::CompilerOptions::openuh_base();
  base_col.regalloc.strategy = regalloc::Strategy::kColor;
  driver::CompiledProgram base_a = driver::Compiler(base_lin).compile(source);
  driver::CompiledProgram base_b = driver::Compiler(base_col).compile(source);
  ArgSet bdata_a = derive_args(*parsed.functions.front());
  ArgSet bdata_b = derive_args(*parsed.functions.front());
  std::vector<vgpu::LaunchStats> bstats_a = run_on_sim(base_a, bdata_a, kOneThread);
  std::vector<vgpu::LaunchStats> bstats_b = run_on_sim(base_b, bdata_b, kOneThread);
  if (!results_equal(bdata_a, bdata_b, &why)) {
    r.status = Status::kDiverged;
    r.detail = "linear vs color base-config results: " + why;
    return r;
  }
  if (bstats_a.size() != bstats_b.size()) {
    r.status = Status::kDiverged;
    r.detail = "linear vs color base-config launch count differs";
    return r;
  }
  for (std::size_t i = 0; i < bstats_a.size(); ++i) {
    const vgpu::LaunchStats& a = bstats_a[i];
    const vgpu::LaunchStats& b = bstats_b[i];
    if (a.global_loads != b.global_loads || a.global_stores != b.global_stores ||
        a.atomics != b.atomics) {
      r.status = Status::kDiverged;
      r.detail = "linear vs color base-config memory traffic differs for kernel " +
                 std::to_string(i);
      return r;
    }
  }
  return r;
}

/// The spill-memory differential: --spill-mem local vs auto (RegDem), same
/// source and config otherwise. RegDem only moves spill slots between
/// backing stores — regs_used is untouched, so even the SAFARA feedback
/// loop sees identical register counts and compiles identical code. Every
/// latency-independent launch statistic is therefore pinned: results
/// byte-exact, and per-kernel regs/warp instructions/global traffic/total
/// spill accesses equal. Only cycles, stalls, occupancy, and the shared
/// counters may move. A second pressure pair (base config, 24-register cap)
/// makes spilling near-certain so demotion actually runs on most inputs.
OracleResult spillmem_oracle(const std::string& source, bool inject) {
  OracleResult r{Oracle::kSpillMem, Status::kOk, ""};

  ast::Program parsed = parse_or_throw(source);

  auto compare_pair = [&](driver::CompilerOptions opts,
                          const std::string& label) -> bool {
    driver::CompilerOptions local = opts;
    local.regalloc.spill_mem = regalloc::SpillMem::kLocal;
    driver::CompilerOptions shared = opts;
    shared.regalloc.spill_mem = regalloc::SpillMem::kAuto;
    driver::CompiledProgram prog_a = driver::Compiler(local).compile(source);
    const std::string source_b = inject ? mutate_source(source) : source;
    driver::CompiledProgram prog_b = driver::Compiler(shared).compile(source_b);

    ArgSet data_a = derive_args(*parsed.functions.front());
    ArgSet data_b = derive_args(*parsed.functions.front());
    std::vector<vgpu::LaunchStats> stats_a = run_on_sim(prog_a, data_a, kOneThread);
    std::vector<vgpu::LaunchStats> stats_b = run_on_sim(prog_b, data_b, kOneThread);

    std::string why;
    if (!results_equal(data_a, data_b, &why)) {
      r.status = Status::kDiverged;
      r.detail = label + " results: " + why;
      return false;
    }
    if (stats_a.size() != stats_b.size()) {
      r.status = Status::kDiverged;
      r.detail = label + ": launch count differs (" +
                 std::to_string(stats_a.size()) + " vs " +
                 std::to_string(stats_b.size()) + ")";
      return false;
    }
    for (std::size_t i = 0; i < stats_a.size(); ++i) {
      const vgpu::LaunchStats& a = stats_a[i];
      const vgpu::LaunchStats& b = stats_b[i];
      std::ostringstream os;
      if (a.regs_per_thread != b.regs_per_thread) {
        os << "regs_per_thread " << a.regs_per_thread << " vs " << b.regs_per_thread;
      } else if (a.warp_instructions != b.warp_instructions) {
        os << "warp_instructions " << a.warp_instructions << " vs "
           << b.warp_instructions;
      } else if (a.global_loads != b.global_loads) {
        os << "global_loads " << a.global_loads << " vs " << b.global_loads;
      } else if (a.global_stores != b.global_stores) {
        os << "global_stores " << a.global_stores << " vs " << b.global_stores;
      } else if (a.atomics != b.atomics) {
        os << "atomics " << a.atomics << " vs " << b.atomics;
      } else if (a.spill_accesses != b.spill_accesses) {
        os << "spill_accesses " << a.spill_accesses << " vs " << b.spill_accesses;
      } else if (a.shared_accesses != 0) {
        // The local side must never touch shared memory.
        os << "local side reports " << a.shared_accesses << " shared accesses";
      } else if (b.shared_accesses > b.spill_accesses) {
        // Shared traffic is a subset of spill traffic by construction.
        os << "shared_accesses " << b.shared_accesses << " exceeds spill_accesses "
           << b.spill_accesses;
      }
      if (!os.str().empty()) {
        r.status = Status::kDiverged;
        r.detail = label + " stats for kernel " + std::to_string(i) + ": " + os.str();
        return false;
      }
    }
    return true;
  };

  if (!compare_pair(driver::CompilerOptions::openuh_safara_clauses(),
                    "spill-mem local vs auto")) {
    return r;
  }
  driver::CompilerOptions pressure = driver::CompilerOptions::openuh_base();
  pressure.regalloc.max_registers = 24;
  compare_pair(pressure, "spill-mem local vs auto under pressure");
  return r;
}

}  // namespace

OracleResult run_oracle(const std::string& source, Oracle o,
                        const OracleOptions& opts) {
  try {
    switch (o) {
      case Oracle::kRoundtrip: return roundtrip_oracle(source);
      case Oracle::kRefVsSim: return ref_vs_sim_oracle(source, opts.inject_miscompile);
      case Oracle::kSafaraOnOff:
        return safara_on_off_oracle(source, opts.inject_miscompile);
      case Oracle::kDispatch: return dispatch_oracle(source);
      case Oracle::kThreads: return threads_oracle(source);
      case Oracle::kOptVsNoopt:
        return opt_vs_noopt_oracle(source, opts.inject_miscompile);
      case Oracle::kLinearVsColor:
        return linear_vs_color_oracle(source, opts.inject_miscompile);
      case Oracle::kSpillMem:
        return spillmem_oracle(source, opts.inject_miscompile);
    }
    return {o, Status::kError, "unknown oracle"};
  } catch (const std::exception& e) {
    return {o, Status::kError, e.what()};
  }
}

}  // namespace safara::fuzz

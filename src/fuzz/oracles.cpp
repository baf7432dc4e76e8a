#include "fuzz/oracles.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "ast/hash.hpp"
#include "ast/printer.hpp"
#include "driver/compiler.hpp"
#include "parse/parser.hpp"
#include "regalloc/regalloc.hpp"
#include "rt/host_eval.hpp"
#include "support/diagnostics.hpp"
#include "vgpu/sim.hpp"
#include "workloads/harness.hpp"

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

}  // namespace

workloads::Dataset derive_args(const ast::Function& fn) {
  workloads::Dataset args;
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
  const rt::ArgMap extent_args(args.scalars.begin(), args.scalars.end());
  for (const ast::Param& p : fn.params) {
    if (!p.is_array()) continue;
    std::vector<rt::Dim> dims;
    if (p.decl_kind == ast::ArrayDeclKind::kPointer) {
      dims.push_back({0, 24});
    } else {
      for (std::size_t d = 0; d < p.extents.size(); ++d) {
        if (p.extents[d]) {
          dims.push_back({0, rt::eval_int(*p.extents[d], extent_args)});
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

/// Byte-exact result comparison: "" or the first difference.
std::string results_differ(const workloads::Dataset& a, const workloads::Dataset& b) {
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
    return os.str();
  }
  return "";
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

std::string roundtrip(const std::string& source) {
  ast::Program p1 = parse_or_throw(source);
  const std::string printed = ast::to_source(p1);
  DiagnosticEngine d2;
  ast::Program p2 = parse::parse_source(printed, d2);
  if (!d2.ok()) return "printed program does not reparse: " + d2.render();
  if (p1.functions.size() != p2.functions.size()) {
    return "function count changed across print/reparse";
  }
  for (std::size_t i = 0; i < p1.functions.size(); ++i) {
    if (ast::hash(*p1.functions[i]) != ast::hash(*p2.functions[i])) {
      return "AST hash changed across print/reparse for function '" +
             p1.functions[i]->name + "'";
    }
  }
  if (ast::to_source(p2) != printed) return "printer is not a fixpoint: second print differs";
  return "";
}

std::string ref_vs_sim(const std::string& source, const std::string& mutant) {
  const driver::CompilerOptions opts = driver::CompilerOptions::openuh_base();
  const driver::CompiledProgram prog = driver::Compiler(opts).compile(mutant);
  const ast::Program parsed = parse_or_throw(source);
  const ast::Function& fn = *parsed.functions.front();

  workloads::Dataset sim_data = derive_args(fn);
  workloads::run(prog, sim_data, opts.device, nullptr, kOneThread);
  workloads::Dataset ref_data = derive_args(fn);
  driver::RefArgMap ref_args = ref_data.ref_args();
  driver::run_reference(fn, ref_args);

  const std::string why = results_differ(sim_data, ref_data);
  return why.empty() ? why : "simulator vs reference: " + why;
}

// -- the pair runner ----------------------------------------------------------------

/// One side of a differential pair: how it compiles and how it simulates.
struct Side {
  driver::CompilerOptions opts;
  vgpu::SimOptions sim = kOneThread;
};

using LaunchCheck =
    std::function<std::string(const vgpu::LaunchStats& a, const vgpu::LaunchStats& b)>;

struct Pair {
  std::string label;  // prefixes every divergence the pair reports
  Side a, b;
  /// LaunchStats fields, by their to_json() key, that must agree launch by
  /// launch.
  std::vector<std::string> fields = {};
  /// The oracle's own per-launch check, run once `fields` agree: "" or what
  /// is wrong.
  LaunchCheck check = nullptr;
};

struct PairRun {
  std::string divergence;  // "" when the two sides agree
  driver::CompiledProgram prog_b;
};

/// Every LaunchStats field: the list for pairs that run one program two ways
/// the determinism contract says are indistinguishable.
const std::vector<std::string>& every_field() {
  static const std::vector<std::string> kAll = [] {
    const obs::json::Value stats = vgpu::LaunchStats{}.to_json();
    std::vector<std::string> keys;
    for (const auto& [key, value] : stats.members()) keys.push_back(key);
    return keys;
  }();
  return kAll;
}

/// The step every differential oracle shares: compiles side A from `source`
/// and side B from `source_b` (the mutant under injection), runs both on
/// arguments derived from `source`, then compares the arrays byte for byte,
/// the launch counts, and each launch's `fields` and `check`.
PairRun run_pair(const Pair& pair, const std::string& source, const std::string& source_b) {
  PairRun run;
  const driver::CompiledProgram prog_a = driver::Compiler(pair.a.opts).compile(source);
  run.prog_b = driver::Compiler(pair.b.opts).compile(source_b);
  const ast::Program parsed = parse_or_throw(source);
  workloads::Dataset data_a = derive_args(*parsed.functions.front());
  workloads::Dataset data_b = derive_args(*parsed.functions.front());
  const std::vector<vgpu::LaunchStats> stats_a =
      workloads::run(prog_a, data_a, pair.a.opts.device, nullptr, pair.a.sim);
  const std::vector<vgpu::LaunchStats> stats_b =
      workloads::run(run.prog_b, data_b, pair.b.opts.device, nullptr, pair.b.sim);

  if (std::string why = results_differ(data_a, data_b); !why.empty()) {
    run.divergence = pair.label + " results: " + why;
    return run;
  }
  if (stats_a.size() != stats_b.size()) {
    run.divergence = pair.label + ": launch count differs (" + std::to_string(stats_a.size()) +
                     " vs " + std::to_string(stats_b.size()) + ")";
    return run;
  }
  for (std::size_t i = 0; i < stats_a.size(); ++i) {
    const obs::json::Value a = stats_a[i].to_json();
    const obs::json::Value b = stats_b[i].to_json();
    std::string why;
    for (const std::string& field : pair.fields) {
      const obs::json::Value* va = a.find(field);
      if (!va) throw std::logic_error("LaunchStats has no field '" + field + "'");
      if (va->dump() != b.find(field)->dump()) {
        why = field + " " + va->dump() + " vs " + b.find(field)->dump();
        break;
      }
    }
    if (why.empty() && pair.check) why = pair.check(stats_a[i], stats_b[i]);
    if (!why.empty()) {
      run.divergence = pair.label + " stats for launch " + std::to_string(i) + ": " + why;
      return run;
    }
  }
  return run;
}

std::string safara_on_off(const std::string& source, const std::string& mutant) {
  return run_pair({.label = "SAFARA off vs on",
                   .a = {driver::CompilerOptions::openuh_base()},
                   .b = {driver::CompilerOptions::openuh_safara_clauses()}},
                  source, mutant)
      .divergence;
}

std::string dispatch(const std::string& source) {
  const driver::CompilerOptions opts = driver::CompilerOptions::openuh_safara_clauses();
  return run_pair({.label = "super vs ref dispatch",
                   .a = {opts, {.threads = 1, .dispatch = vgpu::SimDispatch::kSuper}},
                   .b = {opts, {.threads = 1, .dispatch = vgpu::SimDispatch::kRef}},
                   .fields = every_field()},
                  source, source)
      .divergence;
}

std::string threads(const std::string& source) {
  const driver::CompilerOptions opts = driver::CompilerOptions::openuh_base();
  return run_pair({.label = "1 vs 4 sim threads",
                   .a = {opts},
                   .b = {opts, {.threads = 4}},
                   .fields = every_field()},
                  source, source)
      .divergence;
}

/// The pass-pipeline differential: --opt-level 0 vs 2 under the full
/// safara_clauses configuration. Results must be byte-exact and the
/// LaunchStats metadata compatible: identical launch counts, identical
/// global stores and atomics (passes never touch side effects), and the
/// optimized side may only shed global loads (DCE deletes dead loads;
/// nothing may invent one). Registers are bounded on a separate base-config
/// compile, because under safara_clauses the feedback loop deliberately
/// reinvests freed registers in more scalar replacement.
std::string opt_vs_noopt(const std::string& source, const std::string& mutant) {
  driver::CompilerOptions off = driver::CompilerOptions::openuh_safara_clauses();
  off.opt_level = 0;
  driver::CompilerOptions on = off;
  on.opt_level = 2;
  const PairRun run = run_pair(
      {.label = "opt-level 0 vs 2",
       .a = {off},
       .b = {on},
       .fields = {"global_stores", "atomics"},
       .check = [](const vgpu::LaunchStats& a, const vgpu::LaunchStats& b) {
         if (b.global_loads <= a.global_loads) return std::string();
         return "optimized side gained global loads: " + std::to_string(a.global_loads) +
                " vs " + std::to_string(b.global_loads);
       }},
      source, mutant);
  if (!run.divergence.empty()) return run.divergence;

  // Provenance oracle: every instruction the full -O2 pipeline emits must
  // still resolve to a valid line of the compiled source. Passes may hoist,
  // clone, or delete instructions, but none may mint one without a source
  // location or point it past the end of the translation unit — the
  // attribution profile would silently misreport otherwise.
  const std::uint32_t source_lines =
      static_cast<std::uint32_t>(1 + std::count(mutant.begin(), mutant.end(), '\n'));
  for (std::size_t i = 0; i < run.prog_b.kernels.size(); ++i) {
    const vir::Kernel& k = run.prog_b.kernels[i].kernel;
    for (std::size_t pc = 0; pc < k.code.size(); ++pc) {
      const SourceLoc loc = k.code[pc].loc;
      if (!loc.valid() || loc.line > source_lines) {
        return "opt-level 2 provenance: kernel " + std::to_string(i) + " pc " +
               std::to_string(pc) +
               (loc.valid() ? " points at out-of-range line " + std::to_string(loc.line)
                            : " lost its source location");
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
  const driver::CompiledProgram base_a = driver::Compiler(base_off).compile(source);
  const driver::CompiledProgram base_b = driver::Compiler(base_on).compile(source);
  if (base_a.kernels.size() == base_b.kernels.size()) {
    for (std::size_t i = 0; i < base_a.kernels.size(); ++i) {
      // At level 0 the pipeline is a no-op, so pressure_after is the raw
      // codegen pressure; the optimized side must stay at or below it.
      const int raw = base_a.kernels[i].vir_stats.pressure_after;
      const int opt = base_b.kernels[i].vir_stats.pressure_after;
      if (opt > raw) {
        return "base-config live pressure grew under --opt-level 2 for kernel " +
               std::to_string(i) + ": " + std::to_string(raw) + " vs " + std::to_string(opt);
      }
    }
  }
  return "";
}

/// The allocator differential: linear scan vs graph coloring, same source.
/// Allocation only redistributes values between registers and spill slots —
/// it never changes what a kernel computes — so results must be byte-exact.
/// Under safara_clauses the two sides may legitimately compile *different*
/// code (the feedback loop reacts to each allocator's register counts), so
/// only launch count, global stores and atomics are pinned there. The
/// feedback-free base-config pair compiles identical VIR, so loads must
/// match too.
std::string linear_vs_color(const std::string& source, const std::string& mutant) {
  auto with = [](driver::CompilerOptions opts, regalloc::Strategy strategy) {
    opts.regalloc.strategy = strategy;
    return opts;
  };
  const driver::CompilerOptions clauses = driver::CompilerOptions::openuh_safara_clauses();
  const PairRun run = run_pair({.label = "linear vs color",
                                .a = {with(clauses, regalloc::Strategy::kLinear)},
                                .b = {with(clauses, regalloc::Strategy::kColor)},
                                .fields = {"global_stores", "atomics"}},
                               source, mutant);
  if (!run.divergence.empty()) return run.divergence;

  // Feedback-free pair: identical VIR, so all memory traffic must agree.
  const driver::CompilerOptions base = driver::CompilerOptions::openuh_base();
  return run_pair({.label = "linear vs color base-config",
                   .a = {with(base, regalloc::Strategy::kLinear)},
                   .b = {with(base, regalloc::Strategy::kColor)},
                   .fields = {"global_loads", "global_stores", "atomics"}},
                  source, source)
      .divergence;
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
std::string spillmem(const std::string& source, const std::string& mutant) {
  driver::CompilerOptions pressure = driver::CompilerOptions::openuh_base();
  pressure.regalloc.max_registers = 24;
  const std::pair<driver::CompilerOptions, std::string> configs[] = {
      {driver::CompilerOptions::openuh_safara_clauses(), "spill-mem local vs auto"},
      {pressure, "spill-mem local vs auto under pressure"},
  };
  for (const auto& [opts, label] : configs) {
    driver::CompilerOptions local = opts;
    local.regalloc.spill_mem = regalloc::SpillMem::kLocal;
    driver::CompilerOptions shared = opts;
    shared.regalloc.spill_mem = regalloc::SpillMem::kAuto;
    const PairRun run = run_pair(
        {.label = label,
         .a = {local},
         .b = {shared},
         .fields = {"regs_per_thread", "warp_instructions", "global_loads", "global_stores",
                    "atomics", "spill_accesses"},
         .check = [](const vgpu::LaunchStats& a, const vgpu::LaunchStats& b) {
           // The local side must never touch shared memory, and shared
           // traffic is a subset of spill traffic by construction.
           if (a.shared_accesses != 0) {
             return "local side reports " + std::to_string(a.shared_accesses) +
                    " shared accesses";
           }
           if (b.shared_accesses > b.spill_accesses) {
             return "shared_accesses " + std::to_string(b.shared_accesses) +
                    " exceeds spill_accesses " + std::to_string(b.spill_accesses);
           }
           return std::string();
         }},
        source, mutant);
    if (!run.divergence.empty()) return run.divergence;
  }
  return "";
}

}  // namespace

OracleResult run_oracle(const std::string& source, Oracle o,
                        const OracleOptions& opts) {
  try {
    const std::string mutant = opts.inject_miscompile ? mutate_source(source) : source;
    std::string detail;
    switch (o) {
      case Oracle::kRoundtrip: detail = roundtrip(source); break;
      case Oracle::kRefVsSim: detail = ref_vs_sim(source, mutant); break;
      case Oracle::kSafaraOnOff: detail = safara_on_off(source, mutant); break;
      case Oracle::kDispatch: detail = dispatch(source); break;
      case Oracle::kThreads: detail = threads(source); break;
      case Oracle::kOptVsNoopt: detail = opt_vs_noopt(source, mutant); break;
      case Oracle::kLinearVsColor: detail = linear_vs_color(source, mutant); break;
      case Oracle::kSpillMem: detail = spillmem(source, mutant); break;
    }
    return {o, detail.empty() ? Status::kOk : Status::kDiverged, detail};
  } catch (const std::exception& e) {
    return {o, Status::kError, e.what()};
  }
}

}  // namespace safara::fuzz

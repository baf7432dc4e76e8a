// Compiler-driver API tests: error paths, persona behaviour, multi-region
// programs, reports, the reuse of SAFARA's last feedback compiles, the option
// fingerprint, the shared run-flag table, and the paper-table structural
// facts the benches rely on (seismic has 7 kernels, sp has 10, register
// orderings hold).
#include <gtest/gtest.h>

#include <map>
#include <string_view>

#include "ast/printer.hpp"
#include "driver/run_options.hpp"
#include "fuzz/generator.hpp"
#include "regalloc/regdem.hpp"
#include "sema/sema.hpp"
#include "tests_common.hpp"
#include "workloads/harness.hpp"

namespace safara::test {
namespace {

TEST(DriverApi, ParseErrorThrowsCompileError) {
  driver::Compiler c;
  EXPECT_THROW(c.compile("void f( {"), CompileError);
}

TEST(DriverApi, SemaErrorThrowsCompileError) {
  driver::Compiler c;
  EXPECT_THROW(c.compile("void f(int n, float *x) { for(i=0;i<n;i++){ x[i] = zz; } }"),
               CompileError);
}

TEST(DriverApi, UnknownFunctionNameThrows) {
  driver::Compiler c;
  EXPECT_THROW(c.compile("void f() { }", "g"), CompileError);
}

TEST(DriverApi, MultipleFunctionsNeedAName) {
  driver::Compiler c;
  const char* two = "void f() { }\nvoid g() { }";
  EXPECT_THROW(c.compile(two), CompileError);
  EXPECT_NO_THROW(c.compile(two, "g"));
}

TEST(DriverApi, KernelNamesFollowFunctionAndIndex) {
  driver::Compiler c;
  auto prog = c.compile(R"(
void pipeline(int n, float *x) {
  #pragma acc parallel loop gang vector
  for (i = 0; i < n; i++) { x[i] = 1.0f; }
  #pragma acc parallel loop gang vector
  for (i = 0; i < n; i++) { x[i] = 2.0f; }
})");
  ASSERT_EQ(prog.kernels.size(), 2u);
  EXPECT_EQ(prog.kernels[0].name, "pipeline_k0");
  EXPECT_EQ(prog.kernels[1].name, "pipeline_k1");
  EXPECT_NE(prog.kernels[0].ptxas_info().find("pipeline_k0"), std::string::npos);
}

TEST(DriverApi, TransformedAstIsIndependentOfInput) {
  DiagnosticEngine diags;
  ast::Program p = parse::parse_source(R"(
void f(int n, const float *b, float *a) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    #pragma acc loop seq
    for (k = 1; k < 8; k++) {
      a[i] = b[i] * b[i];
    }
  }
})", diags);
  std::string before = ast::to_source(*p.functions[0]);
  driver::Compiler c(driver::CompilerOptions::openuh_safara());
  auto prog = c.compile(*p.functions[0]);
  // SR rewrote the clone, not the input.
  EXPECT_EQ(ast::to_source(*p.functions[0]), before);
  EXPECT_NE(ast::to_source(*prog.transformed), before);
}

TEST(DriverApi, SafaraBudgetClampedToDeviceLimit) {
  driver::CompilerOptions opts = driver::CompilerOptions::openuh_safara();
  opts.safara.max_registers = 100000;  // silly; must clamp to 255
  driver::Compiler c(opts);
  auto prog = c.compile(R"(
void f(int n, const float *b, float *a) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) { a[i] = b[i] * b[i]; }
})");
  ASSERT_FALSE(prog.safara.regions.empty());
  bool mentions_255 = false;
  for (const auto& line : prog.safara.regions[0].log) {
    if (line.find("budget 255") != std::string::npos) mentions_255 = true;
  }
  EXPECT_TRUE(mentions_255);
}

TEST(DriverApi, PersonaDefaultsAreDistinct) {
  auto base = driver::CompilerOptions::openuh_base();
  auto pgi = driver::CompilerOptions::pgi_like();
  auto full = driver::CompilerOptions::openuh_safara_clauses();
  EXPECT_EQ(base.persona, driver::Persona::kOpenUH);
  EXPECT_EQ(pgi.persona, driver::Persona::kPgiLike);
  EXPECT_FALSE(base.enable_safara);
  EXPECT_TRUE(full.enable_safara);
  EXPECT_TRUE(full.honor_dim);
  EXPECT_TRUE(full.honor_small);
  EXPECT_FALSE(pgi.honor_dim);
  auto verified = driver::CompilerOptions::openuh_safara_clauses_verified();
  EXPECT_TRUE(verified.verify_clauses);
}

// -- structural facts the paper tables depend on ------------------------------------

TEST(WorkloadStructure, SeismicHasSevenHotKernels) {
  const workloads::Workload* w = workloads::find_workload("355.seismic");
  driver::Compiler c(driver::CompilerOptions::openuh_base());
  auto prog = c.compile(w->source, w->function);
  EXPECT_EQ(prog.kernels.size(), 7u);  // Table I rows
}

TEST(WorkloadStructure, SpHasTenHotKernels) {
  const workloads::Workload* w = workloads::find_workload("356.sp");
  driver::Compiler c(driver::CompilerOptions::openuh_base());
  auto prog = c.compile(w->source, w->function);
  EXPECT_EQ(prog.kernels.size(), 10u);  // Table II rows
}

TEST(WorkloadStructure, SeismicRegisterOrderingHolds) {
  const workloads::Workload* w = workloads::find_workload("355.seismic");
  driver::Compiler base(driver::CompilerOptions::openuh_base());
  driver::Compiler small(driver::CompilerOptions::openuh_small());
  driver::Compiler dim(driver::CompilerOptions::openuh_small_dim());
  auto pb = base.compile(w->source, w->function);
  auto ps = small.compile(w->source, w->function);
  auto pd = dim.compile(w->source, w->function);
  for (std::size_t k = 0; k < pb.kernels.size(); ++k) {
    EXPECT_LT(ps.kernels[k].alloc.regs_used, pb.kernels[k].alloc.regs_used)
        << "HOT" << k + 1;
    EXPECT_LT(pd.kernels[k].alloc.regs_used, ps.kernels[k].alloc.regs_used)
        << "HOT" << k + 1;
    EXPECT_EQ(pb.kernels[k].alloc.spill_bytes, 0) << "HOT" << k + 1;
  }
}

TEST(WorkloadStructure, EveryWorkloadHasMetadata) {
  for (const workloads::Workload& w : workloads::all_workloads()) {
    EXPECT_FALSE(w.description.empty()) << w.name;
    EXPECT_FALSE(w.outputs.empty()) << w.name;
    EXPECT_GE(w.time_steps, 1) << w.name;
    workloads::Dataset d = w.make_dataset();
    EXPECT_FALSE(d.arrays.empty()) << w.name;
    for (const std::string& out : w.outputs) {
      EXPECT_TRUE(d.arrays.count(out)) << w.name << " output " << out;
    }
  }
}

TEST(WorkloadStructure, SpecCUsesPointersNasUsesVlas) {
  // The paper's dim-applicability facts: 303/304/314 are pointer codes;
  // 355/356 use allocatables; NAS uses VLAs (so dim has nothing to add).
  auto kind_of = [](const char* wname, const char* array) {
    const workloads::Workload* w = workloads::find_workload(wname);
    DiagnosticEngine diags;
    ast::Program p = parse::parse_source(w->source, diags);
    ast::Function* fn = p.find(w->function);
    for (const ast::Param& prm : fn->params) {
      if (prm.name == array) return prm.decl_kind;
    }
    return ast::ArrayDeclKind::kScalar;
  };
  EXPECT_EQ(kind_of("303.ostencil", "a0"), ast::ArrayDeclKind::kPointer);
  EXPECT_EQ(kind_of("304.olbm", "src"), ast::ArrayDeclKind::kPointer);
  EXPECT_EQ(kind_of("314.omriq", "kx"), ast::ArrayDeclKind::kPointer);
  EXPECT_EQ(kind_of("355.seismic", "vx"), ast::ArrayDeclKind::kAllocatable);
  EXPECT_EQ(kind_of("356.sp", "u0"), ast::ArrayDeclKind::kAllocatable);
  EXPECT_EQ(kind_of("BT", "q0"), ast::ArrayDeclKind::kVla);
  EXPECT_EQ(kind_of("MG", "u"), ast::ArrayDeclKind::kVla);
}

TEST(WorkloadStructure, SafaraAloneCrushesSeismicOccupancy) {
  // The Fig. 7 mechanism, asserted structurally: SAFARA-alone pushes the
  // fattest seismic kernel across the 2-blocks -> 1-block boundary.
  const workloads::Workload* w = workloads::find_workload("355.seismic");
  workloads::RunResult base =
      workloads::simulate(*w, driver::CompilerOptions::openuh_base());
  workloads::RunResult saf =
      workloads::simulate(*w, driver::CompilerOptions::openuh_safara());
  EXPECT_LT(saf.min_occupancy, base.min_occupancy);
  EXPECT_GT(saf.cycles, base.cycles);  // the headline slowdown
  workloads::RunResult clauses =
      workloads::simulate(*w, driver::CompilerOptions::openuh_safara_clauses());
  EXPECT_LT(clauses.cycles, base.cycles);  // and the recovery
}

// -- SAFARA feedback-compile cache --------------------------------------------

TEST(FeedbackCache, CachedAndUncachedCompilesProduceIdenticalReports) {
  // The cache memoizes a deterministic pipeline, so it must change no
  // SafaraReport field — on any workload.
  for (const workloads::Workload& w : workloads::all_workloads()) {
    SCOPED_TRACE(w.name);
    auto report = [&](bool cache) {
      driver::clear_safara_feedback_cache();
      driver::CompilerOptions opts = driver::CompilerOptions::openuh_safara_clauses();
      opts.safara_feedback_cache = cache;
      driver::Compiler c(opts);
      return c.compile(w.source, w.function).safara.to_json().dump(2);
    };
    EXPECT_EQ(report(false), report(true));
  }
}

TEST(FeedbackCache, RepeatCompilesHitTheCacheWithoutChangingResults) {
  driver::clear_safara_feedback_cache();
  const workloads::Workload* w = workloads::find_workload("355.seismic");
  obs::Collector collector;
  driver::Compiler c(driver::CompilerOptions::openuh_safara_clauses(), &collector);
  driver::CompiledProgram first = c.compile(w->source, w->function);
  EXPECT_GT(driver::safara_feedback_cache_size(), 0u);
  driver::CompiledProgram second = c.compile(w->source, w->function);
  EXPECT_EQ(first.safara.to_json().dump(2), second.safara.to_json().dump(2));

  const obs::json::Value metrics = collector.metrics.to_json();
  const auto* counters = metrics.find("counters");
  ASSERT_NE(counters, nullptr);
  const auto* hits = counters->find("safara.feedback_cache_hits");
  ASSERT_NE(hits, nullptr) << "second compile should replay feedback from the cache";
  EXPECT_GT(hits->as_int(), 0);
  const auto* misses = counters->find("safara.feedback_cache_misses");
  ASSERT_NE(misses, nullptr);
  EXPECT_GT(misses->as_int(), 0);  // the first compile populated the cache
  // The satellite metric for the removed throwaway sema pass: each SAFARA
  // iteration re-analyzes once, and nothing else should.
  const auto* reanalyses = counters->find("safara.sema_reanalyses");
  ASSERT_NE(reanalyses, nullptr);
  EXPECT_EQ(reanalyses->as_int(), counters->find("safara.iterations")->as_int());
}

// -- the last feedback compile becomes the emitted kernel ---------------------

// Compiles every kernel of `prog` again from its post-SAFARA AST through the
// whole back end, as `Compiler::compile` does for a kernel it cannot reuse,
// and requires the same kernel, pass statistics and allocation.
void expect_same_as_full_backend(const driver::CompiledProgram& prog,
                                 const driver::CompilerOptions& opts) {
  DiagnosticEngine diags;
  sema::Sema sema(diags);
  const auto info = sema.analyze(*prog.transformed);
  ASSERT_TRUE(diags.ok()) << diags.render();
  ASSERT_EQ(info->regions.size(), prog.kernels.size());
  codegen::CodegenOptions cg;
  cg.honor_dim = opts.honor_dim;
  cg.honor_small = opts.honor_small;
  cg.licm = true;
  cg.cse_loads_within_stmt = opts.persona == driver::Persona::kPgiLike;
  for (std::size_t r = 0; r < prog.kernels.size(); ++r) {
    const driver::CompiledKernel& ck = prog.kernels[r];
    SCOPED_TRACE(ck.name);
    codegen::CodegenResult res = codegen::generate_kernel(
        *info, info->regions[r], static_cast<int>(r), cg, diags);
    ASSERT_TRUE(diags.ok()) << diags.render();
    const vir::passes::PassStats stats = vir::passes::run_pipeline(res.kernel, opts.opt_level);
    regalloc::AllocationResult alloc = regalloc::allocate(res.kernel, opts.regalloc);
    regalloc::demote_spill_slots(res.kernel, alloc, opts.regalloc, opts.device,
                                 codegen::LaunchPlan::kDefaultVectorLen);
    EXPECT_EQ(vir::to_string(res.kernel), vir::to_string(ck.kernel));
    EXPECT_TRUE(res.kernel == ck.kernel);
    EXPECT_TRUE(stats == ck.vir_stats);
    EXPECT_EQ(alloc.ptxas_info(ck.name), ck.ptxas_info());
    EXPECT_TRUE(alloc == ck.alloc);
  }
}

struct CompileWithMetrics {
  driver::CompiledProgram prog;
  obs::MetricsRegistry metrics;
};

// A compile with a cold feedback cache, so every feedback round compiles.
CompileWithMetrics compile_cold(const driver::CompilerOptions& opts, std::string_view source,
                                const std::string& function = "") {
  driver::clear_safara_feedback_cache();
  obs::Collector collector;
  driver::Compiler c(opts, &collector);
  driver::CompiledProgram prog = c.compile(source, function);
  return {std::move(prog), collector.metrics};
}

TEST(FeedbackReuse, EmittedKernelsMatchTheFullBackend) {
  for (const driver::CompilerOptions& opts : {driver::CompilerOptions::openuh_safara(),
                                              driver::CompilerOptions::openuh_safara_clauses()}) {
    SCOPED_TRACE(opts.honor_dim ? "safara_clauses" : "safara");
    for (const workloads::Workload& w : workloads::all_workloads()) {
      SCOPED_TRACE(w.name);
      const CompileWithMetrics c = compile_cold(opts, w.source, w.function);
      expect_same_as_full_backend(c.prog, opts);
      // On every shipped workload, SAFARA's last round leaves each region
      // as it measured it.
      EXPECT_EQ(c.metrics.counter("driver.kernels_reused"),
                static_cast<std::int64_t>(c.prog.kernels.size()));
    }
    std::int64_t reused = 0;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      SCOPED_TRACE("fuzz seed " + std::to_string(seed));
      const CompileWithMetrics c = compile_cold(opts, fuzz::generate_program(seed));
      expect_same_as_full_backend(c.prog, opts);
      reused += c.metrics.counter("driver.kernels_reused");
    }
    EXPECT_GT(reused, 0);
  }
}

TEST(FeedbackReuse, ARegionChangedAfterItsLastFeedbackCompileIsCompiledAgain) {
  // With one round per region, SAFARA replaces references right after it
  // measured a region, so only a region it had nothing to replace in still
  // equals its feedback kernel.
  const workloads::Workload* w = workloads::find_workload("355.seismic");
  driver::CompilerOptions opts = driver::CompilerOptions::openuh_safara_clauses();
  opts.safara.max_iterations = 1;
  const CompileWithMetrics c = compile_cold(opts, w->source, w->function);
  ASSERT_EQ(c.prog.kernels.size(), 7u);
  EXPECT_EQ(c.metrics.counter("driver.kernels_reused"), 1);
  expect_same_as_full_backend(c.prog, opts);
}

TEST(FeedbackReuse, CacheHitsLeaveNothingToReuse) {
  const workloads::Workload* w = workloads::find_workload("355.seismic");
  const driver::CompilerOptions opts = driver::CompilerOptions::openuh_safara_clauses();
  const CompileWithMetrics first = compile_cold(opts, w->source, w->function);
  obs::Collector collector;
  driver::Compiler c(opts, &collector);
  const driver::CompiledProgram second = c.compile(w->source, w->function);
  EXPECT_EQ(driver::dump_vir(second), driver::dump_vir(first.prog));
  EXPECT_EQ(second.safara.to_json().dump(2), first.prog.safara.to_json().dump(2));
  EXPECT_EQ(collector.metrics.counter("safara.feedback_cache_hits"),
            collector.metrics.counter("safara.iterations"));
  EXPECT_EQ(collector.metrics.counter("driver.kernels_reused"), 0);

  // The pipeline work counts cover exactly the pipelines that ran: only the
  // emitted kernels' on the second compile, the feedback compiles' (which the
  // reused kernels came from) on the first.
  vir::passes::PassStats emitted;
  for (const driver::CompiledKernel& k : second.kernels) {
    emitted.pipeline_iterations += k.vir_stats.pipeline_iterations;
    emitted.dom_builds += k.vir_stats.dom_builds;
    emitted.liveness_runs += k.vir_stats.liveness_runs;
  }
  EXPECT_EQ(collector.metrics.counter("vir.pipeline_iterations"), emitted.pipeline_iterations);
  EXPECT_EQ(collector.metrics.counter("vir.dom_builds"), emitted.dom_builds);
  EXPECT_EQ(collector.metrics.counter("vir.liveness_runs"), emitted.liveness_runs);
  EXPECT_EQ(first.metrics.counter("driver.kernels_reused"), 7);
  EXPECT_GT(first.metrics.counter("safara.feedback_compiles"), 7);
  EXPECT_GT(first.metrics.counter("vir.pipeline_iterations"), emitted.pipeline_iterations);
}

// -- option fingerprint ---------------------------------------------------------

TEST(CacheKey, OptionsFingerprintCoversAllocatorAndDevice) {
  driver::CompilerOptions a = driver::CompilerOptions::openuh_safara_clauses();
  const std::uint64_t base = driver::options_fingerprint(a);

  driver::CompilerOptions b = a;
  b.regalloc.max_registers = 17;
  EXPECT_NE(base, driver::options_fingerprint(b));
  b = a;
  b.regalloc.strategy = regalloc::Strategy::kLinear;
  EXPECT_NE(base, driver::options_fingerprint(b));
  b = a;
  b.regalloc.spill_mem = regalloc::SpillMem::kShared;
  EXPECT_NE(base, driver::options_fingerprint(b));
  b = a;
  b.opt_level = 0;
  EXPECT_NE(base, driver::options_fingerprint(b));
  b = a;
  b.safara.max_registers -= 1;
  EXPECT_NE(base, driver::options_fingerprint(b));
  b = a;
  b.device.max_registers_per_thread += 1;
  EXPECT_NE(base, driver::options_fingerprint(b));

  // The memoization toggle is contractually invisible in results, so it is
  // deliberately NOT part of the fingerprint.
  b = a;
  b.safara_feedback_cache = !b.safara_feedback_cache;
  EXPECT_EQ(base, driver::options_fingerprint(b));
}

// -- the shared command-line layer ----------------------------------------------

/// Runs `args` (after a program name) through `cmd`; returns the flags it saw.
std::vector<std::string_view> parse(const driver::Command& cmd, std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return driver::parse_flags(cmd, static_cast<int>(argv.size()), argv.data());
}

/// Runs `args` through the run-flag table into `run`, next to a binary's own
/// `--fn` row; returns the arguments that row was handed.
std::vector<std::string> parse_run_flags(std::vector<std::string> args,
                                         driver::RunOptions& run) {
  std::vector<std::string> rest;
  driver::Command cmd{
      .prog = "prog",
      .synopsis = "[flags]",
      .flags = driver::run_flags(run),
      .operand = nullptr,
      .epilogue = "",
  };
  cmd.flags.push_back({"--fn", "a function name", [&rest](std::string_view value) {
                         rest.insert(rest.end(), {"--fn", std::string(value)});
                         return true;
                       }});
  parse(cmd, std::move(args));
  return rest;
}

TEST(RunFlags, EveryCompilerFlagMovesTheFingerprint) {
  // Every row gets a non-default value: a row added without one fails here,
  // and so does a compiler row whose field the fingerprint misses (the
  // feedback cache would then answer a compile made under other options).
  const std::map<std::string_view, std::string_view> non_default = {
      {"--sim-threads", "3"},   {"--sim-dispatch", "ref"}, {"--sim-check-overlap", ""},
      {"--regalloc", "linear"}, {"--spill-mem", "auto"},   {"--opt-level", "0"},
  };
  driver::RunOptions base;
  base.sim.check_overlap = false;  // leaves the switch something to arm in every build
  const std::uint64_t fingerprint = driver::options_fingerprint(base.compiler);
  driver::RunOptions run;
  for (const driver::Flag& flag : driver::run_flags(run)) {
    SCOPED_TRACE(std::string(flag.name));
    const auto value = non_default.find(flag.name);
    ASSERT_NE(value, non_default.end()) << "no non-default value for this flag";
    run = base;
    ASSERT_TRUE(flag.apply(value->second));
    if (run.sim != base.sim) continue;  // a simulator flag
    EXPECT_NE(driver::options_fingerprint(run.compiler), fingerprint);
  }
}

TEST(RunFlags, AcceptsBothFormsAndLeavesOtherArguments) {
  driver::RunOptions run;
  run.sim.check_overlap = false;
  const std::vector<std::string> rest =
      parse_run_flags({"--regalloc", "linear", "--opt-level=1", "--fn", "f", "--sim-check-overlap",
                       "--sim-dispatch=ref", "--sim-threads", "3", "--spill-mem", "shared"},
                      run);
  EXPECT_EQ(rest, (std::vector<std::string>{"--fn", "f"}));
  EXPECT_EQ(run.compiler.regalloc.strategy, regalloc::Strategy::kLinear);
  EXPECT_EQ(run.compiler.regalloc.spill_mem, regalloc::SpillMem::kShared);
  EXPECT_EQ(run.compiler.opt_level, 1);
  EXPECT_EQ(run.sim.threads, 3);
  EXPECT_EQ(run.sim.dispatch, vgpu::SimDispatch::kRef);
  EXPECT_TRUE(run.sim.check_overlap);
}

TEST(RunFlags, BadValuesExitWithAUsageError) {
  // Re-exec rather than fork: an earlier test may have started the shared
  // thread pool, whose destructor std::exit would run in a forked child that
  // has none of its threads.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  driver::RunOptions run;
  EXPECT_EXIT(parse_run_flags({"--opt-level", "3"}, run), ::testing::ExitedWithCode(2),
              "prog: --opt-level expects 0, 1, or 2, got '3'");
  EXPECT_EXIT(parse_run_flags({"--sim-threads=4x"}, run), ::testing::ExitedWithCode(2),
              "prog: --sim-threads expects an integer, got '4x'");
  EXPECT_EXIT(parse_run_flags({"--regalloc", "greedy"}, run), ::testing::ExitedWithCode(2),
              "prog: --regalloc expects 'linear' or 'color', got 'greedy'");
  EXPECT_EXIT(parse_run_flags({"--sim-dispatch"}, run), ::testing::ExitedWithCode(2),
              "prog: missing value for '--sim-dispatch'");
}

/// A throwaway command line: a text row, a ranged integer row named like a
/// run flag, a switch and a repeatable row, writing the fields below. Its
/// rows hold its address, so it is neither copied nor moved.
struct Scratch {
  Scratch() = default;
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  std::string name;
  int threads = 0;
  bool on = false;
  std::vector<std::string> oracles;
  driver::Command cmd{
      .prog = "prog",
      .synopsis = "[flags]",
      .flags = {
          driver::text_flag("--name", "a name", name),
          driver::int_flag("--sim-threads", threads, 1, 64),
          driver::switch_flag("--switch", on),
          {"--oracle", "an oracle name",
           [this](std::string_view value) {
             oracles.emplace_back(value);
             return true;
           }},
      },
      .operand = nullptr,
      .epilogue = "",
  };
};

TEST(ParseFlags, AppliesBothFormsAndListsTheFlagsSeenInArgvOrder) {
  Scratch s;
  const std::vector<std::string_view> seen =
      parse(s.cmd, {"--oracle", "dispatch", "--sim-threads=4", "--switch", "--name", "x",
                    "--oracle=threads"});
  EXPECT_EQ(seen, (std::vector<std::string_view>{"--oracle", "--sim-threads", "--switch",
                                                 "--name", "--oracle"}));
  EXPECT_EQ(s.oracles, (std::vector<std::string>{"dispatch", "threads"}));
  EXPECT_EQ(s.threads, 4);
  EXPECT_TRUE(s.on);
  EXPECT_EQ(s.name, "x");
  // A value is taken verbatim, even one that looks like a flag.
  EXPECT_EQ(parse(s.cmd, {"--name", "--switch"}), (std::vector<std::string_view>{"--name"}));
  EXPECT_EQ(s.name, "--switch");
}

TEST(ParseFlags, MalformedArgumentsExitWithOneWording) {
  // Re-exec rather than fork, as in RunFlags.BadValuesExitWithAUsageError.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Scratch s;
  EXPECT_EXIT(parse(s.cmd, {"--name="}), ::testing::ExitedWithCode(2),
              "prog: missing value for '--name'\nusage: prog \\[flags\\]");
  EXPECT_EXIT(parse(s.cmd, {"--switch", "--name"}), ::testing::ExitedWithCode(2),
              "prog: missing value for '--name'");
  EXPECT_EXIT(parse(s.cmd, {"--sim-thread", "4"}), ::testing::ExitedWithCode(2),
              "prog: unknown argument '--sim-thread'");
  EXPECT_EXIT(parse(s.cmd, {"--switch=1"}), ::testing::ExitedWithCode(2),
              "prog: unknown argument '--switch=1'");
  EXPECT_EXIT(parse(s.cmd, {"input.acc"}), ::testing::ExitedWithCode(2),
              "prog: unknown argument 'input.acc'");
  EXPECT_EXIT(parse(s.cmd, {"--sim-threads", "65"}), ::testing::ExitedWithCode(2),
              "prog: --sim-threads expects an integer in \\[1, 64\\], got '65'");
  EXPECT_EXIT(parse(s.cmd, {"--sim-threads=4x"}), ::testing::ExitedWithCode(2),
              "prog: --sim-threads expects an integer in \\[1, 64\\], got '4x'");
  EXPECT_EXIT(parse(s.cmd, {"--help"}), ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(parse(s.cmd, {"--bogus", "-h"}), ::testing::ExitedWithCode(2),
              "prog: unknown argument '--bogus'");
}

TEST(ParseFlags, AnOperandGoesToTheCommandThatTakesOne) {
  Scratch s;
  std::string input;
  s.cmd.operand = &input;
  EXPECT_EQ(parse(s.cmd, {"--switch", "input.acc"}), (std::vector<std::string_view>{"--switch"}));
  EXPECT_EQ(input, "input.acc");
}

}  // namespace
}  // namespace safara::test

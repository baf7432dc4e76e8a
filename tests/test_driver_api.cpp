// Compiler-driver API tests: error paths, persona behaviour, multi-region
// programs, reports, the option fingerprint, and the paper-table structural
// facts the benches rely on (seismic has 7 kernels, sp has 10, register
// orderings hold).
#include <gtest/gtest.h>

#include "ast/printer.hpp"
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

}  // namespace
}  // namespace safara::test

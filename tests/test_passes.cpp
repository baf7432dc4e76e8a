// Optimization pass tests: the scalar-replacement transform itself (AST
// shapes + functional equivalence), the SAFARA feedback pass, the
// Carr-Kennedy baseline with its sequentialization hazard, and the
// machine-independent VIR pass pipeline's structural properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "ast/printer.hpp"
#include "fuzz/generator.hpp"
#include "opt/carr_kennedy.hpp"
#include "opt/safara.hpp"
#include "opt/scalar_replacement.hpp"
#include "tests_common.hpp"
#include "vir/cfg.hpp"
#include "vir/passes/passes.hpp"
#include "workloads/workloads.hpp"

namespace safara::test {
namespace {

struct PassCtx {
  DiagnosticEngine diags;
  ast::Program program;
  std::unique_ptr<sema::FunctionInfo> info;

  ast::Function& fn() { return *program.functions.front(); }
};

std::unique_ptr<PassCtx> make(std::string_view src) {
  auto c = std::make_unique<PassCtx>();
  c->program = parse::parse_source(src, c->diags);
  EXPECT_TRUE(c->diags.ok()) << c->diags.render();
  sema::Sema sema(c->diags);
  c->info = sema.analyze(*c->program.functions.front());
  EXPECT_TRUE(c->diags.ok()) << c->diags.render();
  return c;
}

constexpr const char* kSweep = R"(
void f(int n, int m, const float b[n][m], const float w[n][m], float a[n][m]) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    #pragma acc loop seq
    for (k = 1; k < m - 1; k++) {
      a[i][k] = (b[i][k+1] - 2.0f * b[i][k] + b[i][k-1]) * w[i][0];
    }
  }
})";

// -- the transform ---------------------------------------------------------------

TEST(ScalarReplacement, CarriedGroupProducesRotation) {
  auto c = make(kSweep);
  auto& region = c->info->regions[0];
  auto accesses = analysis::analyze_accesses(region);
  auto groups = analysis::find_reuse_groups(region, accesses, {});
  const analysis::ReuseGroup* carried = nullptr;
  for (const auto& g : groups) {
    if (g.kind == analysis::ReuseKind::kCarried) carried = &g;
  }
  ASSERT_NE(carried, nullptr);

  opt::SrNameGen names;
  int scalars = opt::apply_scalar_replacement(*region.loop, *carried, names, c->diags);
  EXPECT_TRUE(c->diags.ok()) << c->diags.render();
  EXPECT_EQ(scalars, 3);  // distance 2 -> 3 rotating scalars

  std::string after = ast::to_source(c->fn());
  // Preheader loads + rotation at the bottom (the paper's Fig. 6 shape).
  EXPECT_NE(after.find("__sr0_b"), std::string::npos);
  EXPECT_NE(after.find("__sr1_b = __sr2_b"), std::string::npos) << after;
  // Only one load of b remains inside the loop (the leading load).
  std::size_t pos = after.find("for (k");
  int b_loads = 0;
  for (std::size_t p = after.find("b[i]", pos); p != std::string::npos;
       p = after.find("b[i]", p + 1)) {
    ++b_loads;
  }
  EXPECT_EQ(b_loads, 1) << after;
}

TEST(ScalarReplacement, TransformPreservesSemantics) {
  // Apply SR by hand, then run both versions through the CPU reference.
  auto plain = make(kSweep);
  auto transformed = make(kSweep);
  {
    auto& region = transformed->info->regions[0];
    auto accesses = analysis::analyze_accesses(region);
    auto groups = analysis::find_reuse_groups(region, accesses, {});
    opt::SrNameGen names;
    for (const auto& g : groups) {
      opt::apply_scalar_replacement(*region.loop, g, names, transformed->diags);
    }
    ASSERT_TRUE(transformed->diags.ok()) << transformed->diags.render();
  }

  const int n = 16, m = 24;
  auto make_data = [&] {
    workloads::Dataset d;
    d.arrays.emplace("b", f32_array({{0, n}, {0, m}}));
    d.arrays.emplace("w", f32_array({{0, n}, {0, m}}));
    d.arrays.emplace("a", f32_array({{0, n}, {0, m}}));
    fill_pattern(d.array("b"), 1);
    fill_pattern(d.array("w"), 2);
    d.scalars.emplace("n", rt::ScalarValue::of_i32(n));
    d.scalars.emplace("m", rt::ScalarValue::of_i32(m));
    return d;
  };
  workloads::Dataset d1 = make_data();
  workloads::Dataset d2 = make_data();
  {
    auto args = d1.ref_args();
    driver::run_reference(plain->fn(), args);
  }
  {
    auto args = d2.ref_args();
    driver::run_reference(transformed->fn(), args);
  }
  expect_arrays_near(d1.array("a"), d2.array("a"), 0.0, "a");
}

TEST(ScalarReplacement, InvariantGroupHoistsBeforeLoop) {
  auto c = make(kSweep);
  auto& region = c->info->regions[0];
  auto accesses = analysis::analyze_accesses(region);
  auto groups = analysis::find_reuse_groups(region, accesses, {});
  const analysis::ReuseGroup* inv = nullptr;
  for (const auto& g : groups) {
    if (g.kind == analysis::ReuseKind::kInvariant) inv = &g;
  }
  ASSERT_NE(inv, nullptr);
  opt::SrNameGen names;
  EXPECT_EQ(opt::apply_scalar_replacement(*region.loop, *inv, names, c->diags), 1);
  std::string after = ast::to_source(c->fn());
  // The load appears before the k loop, not inside it.
  std::size_t decl_at = after.find("__sr0_w = w[i][0]");
  std::size_t loop_at = after.find("for (k");
  ASSERT_NE(decl_at, std::string::npos) << after;
  EXPECT_LT(decl_at, loop_at);
}

TEST(ScalarReplacement, NegativeOffsetsNormalize) {
  auto c = make(R"(
void f(int n, int m, const float b[n][m], float a[n][m]) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    #pragma acc loop seq
    for (k = 2; k < m; k++) {
      a[i][k] = b[i][k-1] + b[i][k-2];
    }
  }
})");
  auto& region = c->info->regions[0];
  auto accesses = analysis::analyze_accesses(region);
  auto groups = analysis::find_reuse_groups(region, accesses, {});
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].distance, 1);
  opt::SrNameGen names;
  EXPECT_EQ(opt::apply_scalar_replacement(*region.loop, groups[0], names, c->diags), 2);

  // Semantics preserved for a downward-offset group.
  const int n = 8, m = 16;
  workloads::Dataset d1, d2;
  for (workloads::Dataset* d : {&d1, &d2}) {
    d->arrays.emplace("b", f32_array({{0, n}, {0, m}}));
    d->arrays.emplace("a", f32_array({{0, n}, {0, m}}));
    fill_pattern(d->array("b"), 77);
    d->scalars.emplace("n", rt::ScalarValue::of_i32(n));
    d->scalars.emplace("m", rt::ScalarValue::of_i32(m));
  }
  auto fresh = make(R"(
void f(int n, int m, const float b[n][m], float a[n][m]) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    #pragma acc loop seq
    for (k = 2; k < m; k++) {
      a[i][k] = b[i][k-1] + b[i][k-2];
    }
  }
})");
  auto a1 = d1.ref_args();
  driver::run_reference(fresh->fn(), a1);
  auto a2 = d2.ref_args();
  driver::run_reference(c->fn(), a2);
  expect_arrays_near(d1.array("a"), d2.array("a"), 0.0, "a");
}

// -- SAFARA -----------------------------------------------------------------------

TEST(Safara, RespectsRegisterBudget) {
  driver::CompilerOptions opts = driver::CompilerOptions::openuh_safara();
  opts.safara.max_registers = 40;
  driver::Compiler compiler(opts);
  auto prog = compiler.compile(kSweep);
  for (const auto& k : prog.kernels) {
    // The pass stops replacing once the feedback says the budget is spent;
    // allow the final kernel a small overshoot from the last batch.
    EXPECT_LE(k.alloc.regs_used, 40 + 8) << k.name;
  }
}

TEST(Safara, ReportsIterationLog) {
  driver::Compiler compiler(driver::CompilerOptions::openuh_safara());
  auto prog = compiler.compile(kSweep);
  ASSERT_EQ(prog.safara.regions.size(), 1u);
  EXPECT_GE(prog.safara.regions[0].iterations, 1);
  EXPECT_GT(prog.safara.total_groups(), 0);
  bool mentions_ptxas = false;
  for (const auto& line : prog.safara.regions[0].log) {
    if (line.find("ptxas reports") != std::string::npos) mentions_ptxas = true;
  }
  EXPECT_TRUE(mentions_ptxas);
}

TEST(Safara, NeverIncreasesGlobalLoadCount) {
  for (const char* src : {kSweep}) {
    driver::Compiler base(driver::CompilerOptions::openuh_base());
    driver::Compiler saf(driver::CompilerOptions::openuh_safara());
    auto count_loads = [](const driver::CompiledProgram& p) {
      int n = 0;
      for (const auto& k : p.kernels) {
        for (const auto& in : k.kernel.code) {
          if (in.op == vir::Opcode::kLdGlobal) ++n;
        }
      }
      return n;
    };
    EXPECT_LE(count_loads(saf.compile(src)), count_loads(base.compile(src)));
  }
}

TEST(Safara, ZeroBudgetReplacesNothing) {
  driver::CompilerOptions opts = driver::CompilerOptions::openuh_safara();
  opts.safara.max_registers = 1;
  driver::Compiler compiler(opts);
  auto prog = compiler.compile(kSweep);
  EXPECT_EQ(prog.safara.total_groups(), 0);
}

TEST(Safara, DeterministicAcrossCompiles) {
  driver::Compiler c1(driver::CompilerOptions::openuh_safara());
  driver::Compiler c2(driver::CompilerOptions::openuh_safara());
  auto p1 = c1.compile(kSweep);
  auto p2 = c2.compile(kSweep);
  ASSERT_EQ(p1.kernels.size(), p2.kernels.size());
  for (std::size_t i = 0; i < p1.kernels.size(); ++i) {
    EXPECT_EQ(p1.kernels[i].alloc.regs_used, p2.kernels[i].alloc.regs_used);
    EXPECT_EQ(p1.kernels[i].kernel.code.size(), p2.kernels[i].kernel.code.size());
  }
  EXPECT_EQ(ast::to_source(*p1.transformed), ast::to_source(*p2.transformed));
}

// -- Carr-Kennedy -------------------------------------------------------------------

constexpr const char* kParallelCarried = R"(
void f(int n, int m, const float b[n][m], float a[n][m]) {
  #pragma acc parallel loop gang
  for (j = 0; j < n; j++) {
    #pragma acc loop vector(64)
    for (i = 1; i < m - 1; i++) {
      a[j][i] = (b[j][i] + b[j][i+1]) / 2.0f;
    }
  }
})";

TEST(CarrKennedy, SequentializesParallelLoop) {
  driver::CompilerOptions opts = driver::CompilerOptions::openuh_base();
  opts.enable_carr_kennedy = true;
  driver::Compiler compiler(opts);
  auto prog = compiler.compile(kParallelCarried);
  EXPECT_GE(prog.carr_kennedy.groups_replaced, 1);
  EXPECT_EQ(prog.carr_kennedy.loops_sequentialized, 1);
  // The transformed source now marks the inner loop seq.
  std::string after = ast::to_source(*prog.transformed);
  EXPECT_NE(after.find("loop seq"), std::string::npos) << after;
}

TEST(CarrKennedy, StillComputesCorrectResults) {
  workloads::Dataset data;
  const int n = 24, m = 96;
  data.arrays.emplace("b", f32_array({{0, n}, {0, m}}));
  data.arrays.emplace("a", f32_array({{0, n}, {0, m}}));
  fill_pattern(data.array("b"), 5);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(n));
  data.scalars.emplace("m", rt::ScalarValue::of_i32(m));
  driver::CompilerOptions opts = driver::CompilerOptions::openuh_base();
  opts.enable_carr_kennedy = true;
  check_against_reference(kParallelCarried, opts, data, 0.0);
}

TEST(CarrKennedy, RespectsRegisterBudget) {
  driver::CompilerOptions opts = driver::CompilerOptions::openuh_base();
  opts.enable_carr_kennedy = true;
  opts.carr_kennedy.register_budget = 0;
  driver::Compiler compiler(opts);
  auto prog = compiler.compile(kParallelCarried);
  EXPECT_EQ(prog.carr_kennedy.groups_replaced, 0);
  EXPECT_EQ(prog.carr_kennedy.loops_sequentialized, 0);
}

TEST(CarrKennedy, SafaraDoesNotSequentialize) {
  driver::Compiler compiler(driver::CompilerOptions::openuh_safara());
  auto prog = compiler.compile(kParallelCarried);
  std::string after = ast::to_source(*prog.transformed);
  EXPECT_EQ(after.find("loop seq"), std::string::npos) << after;
}

// -- VIR pass pipeline --------------------------------------------------------------
//
// Property tests over every workload in the suite: the raw (--opt-level 0)
// kernels are the richest VIR corpus in the repo, so the structural
// invariants below run against all of them rather than hand-built inputs.
// The pipeline properties also run on generated fuzz programs, whose
// feature mix reaches shapes the 16 fixed kernels do not, and under every
// named config, whose lowering reaches shapes `base` does not.

/// Raw VIR kernels for one program under one named config: compiled at
/// opt-level 0 so the pipeline under test sees exactly what codegen produced.
std::vector<vir::Kernel> raw_kernels(std::string_view source, const std::string& function,
                                     std::string_view config = "base") {
  driver::CompilerOptions opts = *driver::named_config(config);
  opts.opt_level = 0;
  driver::Compiler compiler(opts);
  driver::CompiledProgram prog = compiler.compile(source, function);
  std::vector<vir::Kernel> out;
  for (auto& k : prog.kernels) out.push_back(std::move(k.kernel));
  return out;
}

std::vector<vir::Kernel> raw_kernels(const workloads::Workload& w) {
  return raw_kernels(w.source, w.function);
}

struct CorpusKernel {
  std::string label;  // "<config> <workload or fuzz seed>/<kernel>"
  vir::Kernel kernel;
};

/// The raw kernels of every workload and of fuzz seeds 1-100, under every
/// named config: SAFARA's rotating scalars, `small`'s 32-bit offsets, `dim`'s
/// shared dope values and PGI's statement-level load CSE each lower to
/// shapes of their own.
const std::vector<CorpusKernel>& pass_corpus() {
  static const std::vector<CorpusKernel> corpus = [] {
    std::vector<CorpusKernel> out;
    for (std::string_view config : driver::config_names()) {
      const std::string prefix = std::string(config) + " ";
      for (const workloads::Workload& w : workloads::all_workloads()) {
        for (vir::Kernel& k : raw_kernels(w.source, w.function, config)) {
          out.push_back({prefix + w.name + "/" + k.name, std::move(k)});
        }
      }
      for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        for (vir::Kernel& k : raw_kernels(fuzz::generate_program(seed), "", config)) {
          out.push_back({prefix + "fuzz seed " + std::to_string(seed) + "/" + k.name,
                         std::move(k)});
        }
      }
    }
    return out;
  }();
  return corpus;
}

template <typename Pred>
int count_ops(const vir::Kernel& k, Pred pred) {
  return static_cast<int>(std::count_if(k.code.begin(), k.code.end(),
                                        [&](const vir::Instr& in) { return pred(in.op); }));
}

TEST(VirPasses, EveryPassIsIdempotent) {
  // Running any pass a second time on its own output must change nothing:
  // a pass that keeps finding work on its own output either loops or
  // oscillates between two forms.
  using Runner = int (*)(vir::Kernel&);
  const std::pair<const char*, Runner> passes[] = {
      {"copy-propagation", vir::passes::run_copy_propagation},
      {"gvn",
       [](vir::Kernel& k) {
         vir::Analyses a(k);
         return vir::passes::run_gvn(k, a);
       }},
      {"dce", vir::passes::run_dce},
      {"strength-reduction", vir::passes::run_strength_reduction},
      {"scheduling",
       [](vir::Kernel& k) {
         vir::Analyses a(k);
         return vir::passes::run_pressure_scheduling(k, a);
       }},
  };
  for (const auto& [label, k] : pass_corpus()) {
    for (const auto& [name, run] : passes) {
      vir::Kernel copy = k;
      run(copy);
      const std::string once = vir::to_string(copy);
      const int second = run(copy);
      EXPECT_EQ(second, 0) << label << ": " << name << " found work on its own output";
      EXPECT_EQ(vir::to_string(copy), once) << label << ": " << name << " is not idempotent";
    }
  }
}

TEST(VirPasses, PipelineIsAFixpoint) {
  // The pipeline runs one SSA round, so it is a fixpoint only if that round
  // leaves nothing a second round would keep: running it again must report
  // no work and leave the kernel byte-identical.
  for (const auto& [label, raw] : pass_corpus()) {
    for (int level : {1, 2}) {
      vir::Kernel k = raw;
      vir::passes::run_pipeline(k, level);
      const std::string once = vir::to_string(k);
      vir::passes::PassStats again = vir::passes::run_pipeline(k, level);
      EXPECT_EQ(again.copyprop_removed + again.gvn_hits + again.dce_removed +
                    again.strength_reduced + again.sched_moves,
                0)
          << label << " at opt-level " << level << ": second pipeline run found work";
      EXPECT_EQ(vir::to_string(k), once) << label << " at opt-level " << level;
    }
  }
}

TEST(VirPasses, SideEffectsAreNeverRemoved) {
  // Stores, atomics and control flow are the kernel's observable behaviour;
  // no pass combination may change their counts.
  const auto is_side_effect = [](vir::Opcode op) {
    return op == vir::Opcode::kStGlobal || op == vir::Opcode::kAtomAdd;
  };
  const auto is_branch = [](vir::Opcode op) {
    return op == vir::Opcode::kBra || op == vir::Opcode::kCbr ||
           op == vir::Opcode::kExit;
  };
  for (const workloads::Workload& w : workloads::all_workloads()) {
    for (vir::Kernel k : raw_kernels(w)) {
      const int effects_before = count_ops(k, is_side_effect);
      const int branches_before = count_ops(k, is_branch);
      vir::passes::run_pipeline(k, 2);
      EXPECT_EQ(count_ops(k, is_side_effect), effects_before)
          << w.name << "/" << k.name << ": a store or atomic was deleted";
      EXPECT_EQ(count_ops(k, is_branch), branches_before)
          << w.name << "/" << k.name << ": control flow changed shape";
    }
  }
}

TEST(VirPasses, PipelineNeverRaisesLivePressure) {
  // The contract the SAFARA feedback loop depends on: optimizing must never
  // make the register situation worse, on any workload, at any level.
  for (const auto& [label, k] : pass_corpus()) {
    for (int level : {1, 2}) {
      vir::Kernel copy = k;
      vir::passes::PassStats s = vir::passes::run_pipeline(copy, level);
      EXPECT_LE(s.pressure_after, s.pressure_before) << label << " at opt-level " << level;
      vir::Analyses a(copy);
      EXPECT_EQ(s.pressure_after, vir::passes::max_live_pressure(copy, a))
          << label << ": stats disagree with the kernel";
    }
  }
}

TEST(VirPasses, MaxLivePressureMatchesIntervals) {
  // max_live_pressure works from per-vreg extents; it must report the same
  // peak as a sweep over the allocator's own intervals, before and after
  // the pipeline reshapes the kernel.
  auto interval_peak = [](const vir::Kernel& k) {
    std::vector<int> delta(k.code.size() + 2, 0);
    for (const vir::LiveInterval& iv : vir::compute_live_intervals(k)) {
      const int w = vir::registers_of(k.vreg_types[iv.vreg]);
      delta[static_cast<std::size_t>(iv.start)] += w;
      delta[static_cast<std::size_t>(iv.end) + 1] -= w;
    }
    int cur = 0, peak = 0;
    for (int d : delta) {
      cur += d;
      peak = std::max(peak, cur);
    }
    return peak;
  };
  for (const auto& [label, raw] : pass_corpus()) {
    vir::Kernel k = raw;
    vir::Analyses raw_analyses(k);
    EXPECT_EQ(vir::passes::max_live_pressure(k, raw_analyses), interval_peak(k))
        << label << " (raw)";
    vir::passes::run_pipeline(k, 2);
    vir::Analyses o2_analyses(k);
    EXPECT_EQ(vir::passes::max_live_pressure(k, o2_analyses), interval_peak(k))
        << label << " (O2)";
  }
}

TEST(VirPasses, GvnScopesValuesToDominators) {
  // A diamond: entry computes E = n + 3 and branches; each arm and the join
  // recompute values. Only a dominating definition may absorb a duplicate.
  using vir::Instr;
  using vir::Opcode;
  using vir::VType;
  vir::Kernel k;
  auto reg = [&k](VType t) {
    k.vreg_types.push_back(t);
    k.vreg_names.push_back("");
    return k.num_vregs() - 1;
  };
  auto emit = [&k](Opcode op, VType t, std::uint32_t dst, std::uint32_t a = vir::kNoReg,
                   std::uint32_t b = vir::kNoReg) -> Instr& {
    Instr in;
    in.op = op;
    in.type = t;
    in.dst = dst;
    in.a = a;
    in.b = b;
    in.loc = SourceLoc{1, 1};
    k.code.push_back(in);
    return k.code.back();
  };
  const VType i32 = VType::kI32;
  const std::uint32_t n = reg(i32), three = reg(i32), e = reg(i32), p = reg(VType::kPred);
  const std::uint32_t e_arm = reg(i32), sq_then = reg(i32), sq_else = reg(i32), e_join = reg(i32);
  k.labels = {-1, -1};  // 0: else arm, 1: join
  emit(Opcode::kLdParam, i32, n).imm = 0;
  emit(Opcode::kMovImmI, i32, three).imm = 3;
  emit(Opcode::kAdd, i32, e, n, three);
  emit(Opcode::kSetLt, i32, p, n, three);
  Instr& br = emit(Opcode::kCbr, i32, vir::kNoReg, p);
  br.imm = 0;
  br.imm2 = 1;
  emit(Opcode::kAdd, i32, e_arm, n, three);      // then: E again
  emit(Opcode::kMul, i32, sq_then, n, n);        // then-only value
  emit(Opcode::kStGlobal, i32, vir::kNoReg, e_arm, sq_then);
  emit(Opcode::kBra, i32, vir::kNoReg).imm = 1;
  k.labels[0] = static_cast<std::int32_t>(k.code.size());
  emit(Opcode::kMul, i32, sq_else, n, n);        // else: the sibling's value
  emit(Opcode::kStGlobal, i32, vir::kNoReg, n, sq_else);
  k.labels[1] = static_cast<std::int32_t>(k.code.size());
  emit(Opcode::kAdd, i32, e_join, three, n);     // join: E, operands commuted
  emit(Opcode::kStGlobal, i32, vir::kNoReg, e_join, e);
  emit(Opcode::kExit, i32, vir::kNoReg);

  vir::Analyses a(k);
  ASSERT_EQ(vir::passes::run_gvn(k, a), 2) << vir::to_string(k);
  int muls = 0;
  for (const Instr& in : k.code) {
    // E recomputed in an arm and in the join is merged into the entry's E...
    EXPECT_NE(in.dst, e_arm) << vir::to_string(k);
    EXPECT_NE(in.dst, e_join) << vir::to_string(k);
    EXPECT_TRUE(in.a != e_arm && in.a != e_join && in.b != e_arm && in.b != e_join)
        << "a use of a merged value was not redirected:\n" << vir::to_string(k);
    // ...but the arms' n*n values do not dominate each other, so both stay.
    if (in.op == Opcode::kMul) ++muls;
  }
  EXPECT_EQ(muls, 2) << vir::to_string(k);
  // The redirected uses read E: one in the then arm, one in the join.
  int reads_e = 0;
  for (const Instr& in : k.code) {
    if (in.op == Opcode::kStGlobal && in.a == e) ++reads_e;
  }
  EXPECT_EQ(reads_e, 2) << vir::to_string(k);
}

TEST(VirPasses, LevelZeroIsIdentity) {
  for (const workloads::Workload& w : workloads::all_workloads()) {
    for (vir::Kernel k : raw_kernels(w)) {
      const std::string before = vir::to_string(k);
      vir::passes::PassStats s = vir::passes::run_pipeline(k, 0);
      EXPECT_EQ(vir::to_string(k), before) << w.name << "/" << k.name;
      EXPECT_EQ(s.pressure_before, s.pressure_after);
    }
  }
}

TEST(VirPasses, PipelineShrinksAtLeastOneWorkload) {
  // Guard against the pipeline silently becoming a no-op: across the whole
  // suite it must delete a meaningful amount of code.
  int removed = 0;
  for (const workloads::Workload& w : workloads::all_workloads()) {
    for (vir::Kernel k : raw_kernels(w)) {
      const int before = static_cast<int>(k.code.size());
      vir::passes::run_pipeline(k, 2);
      removed += before - static_cast<int>(k.code.size());
    }
  }
  EXPECT_GE(removed, 20) << "the pipeline stopped finding work across the suite";
}

}  // namespace
}  // namespace safara::test

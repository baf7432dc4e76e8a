// Tests for the extension features beyond the paper's core: the loop
// unrolling pass (the stated future work) and runtime clause verification
// with two-version kernels (the Section IV fallback scheme).
#include <gtest/gtest.h>

#include "ast/printer.hpp"
#include "driver/verified_launch.hpp"
#include "opt/unroll.hpp"
#include "tests_common.hpp"

namespace safara::test {
namespace {

constexpr const char* kSweep = R"(
void f(int n, int m, const float b[n][m], float a[n][m]) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    #pragma acc loop seq
    for (k = 1; k < m - 1; k++) {
      float t = b[i][k] * 0.5f;
      a[i][k] = t + b[i][k-1];
    }
  }
})";

workloads::Dataset sweep_data(int n = 20, int m = 37) {
  workloads::Dataset d;
  d.arrays.emplace("b", f32_array({{0, n}, {0, m}}));
  d.arrays.emplace("a", f32_array({{0, n}, {0, m}}));
  fill_pattern(d.array("b"), 3);
  d.scalars.emplace("n", rt::ScalarValue::of_i32(n));
  d.scalars.emplace("m", rt::ScalarValue::of_i32(m));
  return d;
}

// -- unrolling ------------------------------------------------------------------

TEST(Unroll, TransformsInnerSeqLoop) {
  driver::CompilerOptions opts = driver::CompilerOptions::openuh_base();
  opts.enable_unroll = true;
  opts.unroll.factor = 4;
  driver::Compiler compiler(opts);
  auto prog = compiler.compile(kSweep);
  EXPECT_EQ(prog.unroll.loops_unrolled, 1);
  std::string after = ast::to_source(*prog.transformed);
  EXPECT_NE(after.find("__unroll_next"), std::string::npos) << after;
  EXPECT_NE(after.find("t__u1"), std::string::npos) << after;  // renamed locals
  EXPECT_NE(after.find("k__r"), std::string::npos) << after;   // remainder loop
}

class UnrollFactors : public ::testing::TestWithParam<int> {};

TEST_P(UnrollFactors, PreservesSemantics) {
  driver::CompilerOptions opts = driver::CompilerOptions::openuh_base();
  opts.enable_unroll = true;
  opts.unroll.factor = GetParam();
  // Trip counts chosen to exercise remainder loops of every phase.
  for (int m : {3, 8, 16, 37}) {
    workloads::Dataset data = sweep_data(12, m);
    check_against_reference(kSweep, opts, data, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Factors, UnrollFactors, ::testing::Values(2, 3, 4, 8));

TEST(Unroll, ComposesWithSafara) {
  driver::CompilerOptions opts = driver::CompilerOptions::openuh_safara_clauses();
  opts.enable_unroll = true;
  opts.unroll.factor = 4;
  workloads::Dataset data = sweep_data();
  check_against_reference(kSweep, opts, data, 0.0);

  driver::Compiler compiler(opts);
  auto prog = compiler.compile(kSweep);
  EXPECT_EQ(prog.unroll.loops_unrolled, 1);
  EXPECT_GT(prog.safara.total_groups(), 0);
}

TEST(Unroll, SkipsScheduledLoops) {
  const char* src = R"(
void f(int n, float *x) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) { x[i] = 1.0f; }
})";
  driver::CompilerOptions opts = driver::CompilerOptions::openuh_base();
  opts.enable_unroll = true;
  driver::Compiler compiler(opts);
  auto prog = compiler.compile(src);
  EXPECT_EQ(prog.unroll.loops_unrolled, 0);
}

TEST(Unroll, SkipsLargeBodies) {
  driver::CompilerOptions opts = driver::CompilerOptions::openuh_base();
  opts.enable_unroll = true;
  opts.unroll.max_body_statements = 1;  // the sweep body has 2 statements
  driver::Compiler compiler(opts);
  auto prog = compiler.compile(kSweep);
  EXPECT_EQ(prog.unroll.loops_unrolled, 0);
}

TEST(Unroll, DownwardLoop) {
  const char* src = R"(
void f(int n, int m, const float b[n][m], float a[n][m]) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    #pragma acc loop seq
    for (k = m - 1; k >= 0; k--) {
      a[i][k] = b[i][k] * 2.0f;
    }
  }
})";
  driver::CompilerOptions opts = driver::CompilerOptions::openuh_base();
  opts.enable_unroll = true;
  opts.unroll.factor = 3;
  workloads::Dataset data = sweep_data(10, 17);
  check_against_reference(src, opts, data, 0.0);
}

TEST(Unroll, IncreasesIntraReuseForSafara) {
  // Unrolling turns the k / k-1 pair into cross-copy matches; SAFARA should
  // find at least as many replaceable references as without unrolling.
  driver::CompilerOptions plain = driver::CompilerOptions::openuh_safara();
  driver::CompilerOptions unrolled = plain;
  unrolled.enable_unroll = true;
  unrolled.unroll.factor = 4;
  driver::Compiler c1(plain);
  driver::Compiler c2(unrolled);
  auto p1 = c1.compile(kSweep);
  auto p2 = c2.compile(kSweep);
  int s1 = 0, s2 = 0;
  for (const auto& r : p1.safara.regions) s1 += r.scalars_introduced;
  for (const auto& r : p2.safara.regions) s2 += r.scalars_introduced;
  EXPECT_GE(s2, s1);
}

// -- runtime clause verification ----------------------------------------------------

constexpr const char* kDimKernel = R"(
void f(int n, int m, const float p[?][?], const float q[?][?], float o[?][?]) {
  #pragma acc parallel loop gang vector(64) dim((0:n, 0:m)(p, q, o)) small(p, q, o)
  for (i = 0; i < n; i++) {
    #pragma acc loop seq
    for (k = 0; k < m; k++) {
      o[i][k] = p[i][k] + q[i][k];
    }
  }
})";

struct VerifiedSetup {
  rt::Device dev;
  rt::Runtime runtime{dev};
  std::map<std::string, rt::Buffer> buffers;
  rt::ArgMap args;

  void add(const std::string& name, std::vector<rt::Dim> dims) {
    buffers.emplace(name, runtime.alloc(ast::ScalarType::kF32, std::move(dims)));
    args.emplace(name, &buffers.at(name));
  }
};

TEST(VerifiedLaunch, PassesWhenClausesHold) {
  driver::Compiler compiler(driver::CompilerOptions::openuh_safara_clauses_verified());
  auto prog = compiler.compile(kDimKernel);
  ASSERT_NE(prog.fallback, nullptr);

  VerifiedSetup s;
  s.add("p", {{0, 8}, {0, 16}});
  s.add("q", {{0, 8}, {0, 16}});
  s.add("o", {{0, 8}, {0, 16}});
  s.args.emplace("n", rt::ScalarValue::of_i32(8));
  s.args.emplace("m", rt::ScalarValue::of_i32(16));

  auto result = driver::launch_verified(s.runtime, prog, 0, s.args);
  EXPECT_FALSE(result.used_fallback);
  EXPECT_TRUE(result.violations.empty());
}

TEST(VerifiedLaunch, FallsBackOnShapeMismatch) {
  driver::Compiler compiler(driver::CompilerOptions::openuh_safara_clauses_verified());
  auto prog = compiler.compile(kDimKernel);

  VerifiedSetup s;
  s.add("p", {{0, 8}, {0, 16}});
  s.add("q", {{0, 8}, {0, 20}});  // violates the dim group (shape differs)
  s.add("o", {{0, 8}, {0, 16}});
  s.args.emplace("n", rt::ScalarValue::of_i32(8));
  s.args.emplace("m", rt::ScalarValue::of_i32(16));

  auto result = driver::launch_verified(s.runtime, prog, 0, s.args);
  EXPECT_TRUE(result.used_fallback);
  ASSERT_FALSE(result.violations.empty());
  EXPECT_NE(result.violations[0].find("dim"), std::string::npos);
}

TEST(VerifiedLaunch, FallbackComputesCorrectResultOnMismatch) {
  // With q shaped differently, the fallback (per-array dope) kernel must
  // still compute the right answer; the optimized kernel would have read q
  // with p's strides. workloads::run launches a program compiled with
  // verify_clauses through launch_verified.
  workloads::Dataset data;
  data.arrays.emplace("p", f32_array({{0, 8}, {0, 16}}));
  data.arrays.emplace("q", f32_array({{0, 8}, {0, 20}}));
  data.arrays.emplace("o", f32_array({{0, 8}, {0, 16}}));
  fill_pattern(data.array("p"), 13);
  fill_pattern(data.array("q"), 7);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(8));
  data.scalars.emplace("m", rt::ScalarValue::of_i32(16));
  check_against_reference(kDimKernel,
                          driver::CompilerOptions::openuh_safara_clauses_verified(), data, 0.0);
}

TEST(VerifiedLaunch, FailsOnExplicitBoundMismatch) {
  driver::Compiler compiler(driver::CompilerOptions::openuh_safara_clauses_verified());
  auto prog = compiler.compile(kDimKernel);

  VerifiedSetup s;
  // All three match each other but not the clause's (0:n, 0:m) = (8, 16).
  s.add("p", {{0, 8}, {0, 24}});
  s.add("q", {{0, 8}, {0, 24}});
  s.add("o", {{0, 8}, {0, 24}});
  s.args.emplace("n", rt::ScalarValue::of_i32(8));
  s.args.emplace("m", rt::ScalarValue::of_i32(16));

  auto result = driver::launch_verified(s.runtime, prog, 0, s.args);
  EXPECT_TRUE(result.used_fallback);
}

TEST(VerifiedLaunch, ThrowsWithoutFallback) {
  driver::CompilerOptions opts = driver::CompilerOptions::openuh_safara_clauses();
  // verify_clauses off: no fallback compiled.
  driver::Compiler compiler(opts);
  auto prog = compiler.compile(kDimKernel);
  ASSERT_EQ(prog.fallback, nullptr);

  VerifiedSetup s;
  s.add("p", {{0, 8}, {0, 16}});
  s.add("q", {{0, 8}, {0, 20}});
  s.add("o", {{0, 8}, {0, 16}});
  s.args.emplace("n", rt::ScalarValue::of_i32(8));
  s.args.emplace("m", rt::ScalarValue::of_i32(16));
  EXPECT_THROW(driver::launch_verified(s.runtime, prog, 0, s.args), std::runtime_error);
}

TEST(VerifiedLaunch, SmallViolationDetected) {
  const char* src = R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector(64) small(x, y)
  for (i = 0; i < n; i++) { y[i] = x[i]; }
})";
  driver::Compiler compiler(driver::CompilerOptions::openuh_safara_clauses_verified());
  auto prog = compiler.compile(src);
  // Forge a buffer descriptor that claims 2^31 elements (no storage needed:
  // verification only reads the dope).
  rt::Buffer huge;
  huge.elem = ast::ScalarType::kF32;
  huge.dims = {{0, std::int64_t{1} << 31}};
  rt::ArgMap args;
  args.emplace("n", rt::ScalarValue::of_i32(4));
  args.emplace("x", &huge);
  args.emplace("y", &huge);
  auto violations = driver::verify_clauses(prog.kernels[0], args);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("small"), std::string::npos);
}

}  // namespace
}  // namespace safara::test

// -- collapse clause (bonus coverage) -----------------------------------------------

namespace safara::test {
namespace {

TEST(Collapse, TwoLevelCollapseMatchesReference) {
  const char* src = R"(
void col(int n, int m, const float a[n][m], float b[n][m]) {
  #pragma acc parallel loop gang vector(8) collapse(2)
  for (j = 0; j < n; j++) {
    for (i = 0; i < m; i++) {
      b[j][i] = a[j][i] * 2.0f + float(j) - float(i);
    }
  }
})";
  workloads::Dataset data;
  data.arrays.emplace("a", f32_array({{0, 30}, {0, 50}}));
  data.arrays.emplace("b", f32_array({{0, 30}, {0, 50}}));
  fill_pattern(data.array("a"), 13);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(30));
  data.scalars.emplace("m", rt::ScalarValue::of_i32(50));
  for (int cfg = 0; cfg < 2; ++cfg) {
    check_against_reference(src, cfg == 0 ? driver::CompilerOptions::openuh_base()
                                          : driver::CompilerOptions::openuh_safara(),
                            data, 0.0);
  }
}

TEST(Collapse, CollapsedLoopsAreScheduled) {
  const char* src = R"(
void col(int n, int m, const float a[n][m], float b[n][m]) {
  #pragma acc parallel loop gang collapse(2)
  for (j = 0; j < n; j++) {
    for (i = 0; i < m; i++) {
      b[j][i] = a[j][i];
    }
  }
})";
  DiagnosticEngine diags;
  ast::Program p = parse::parse_source(src, diags);
  sema::Sema sema(diags);
  auto info = sema.analyze(*p.functions.front());
  ASSERT_TRUE(diags.ok()) << diags.render();
  ASSERT_EQ(info->regions.size(), 1u);
  EXPECT_EQ(info->regions[0].scheduled_loops.size(), 2u);
}

}  // namespace
}  // namespace safara::test

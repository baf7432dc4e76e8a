// End-to-end pipeline tests: ACC-C source -> compile -> simulate -> compare
// with the sequential CPU reference, across every compiler configuration.
#include <gtest/gtest.h>

#include "tests_common.hpp"

namespace safara::test {
namespace {

const char* kSaxpy = R"(
void saxpy(int n, float alpha, float *x, float *y) {
  #pragma acc parallel loop gang vector(128)
  for (i = 0; i < n; i++) {
    y[i] = alpha * x[i] + y[i];
  }
}
)";

TEST(EndToEnd, SaxpyBase) {
  workloads::Dataset data;
  data.arrays.emplace("x", f32_array({{0, 1000}}));
  data.arrays.emplace("y", f32_array({{0, 1000}}));
  fill_pattern(data.array("x"), 1);
  fill_pattern(data.array("y"), 2);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(1000));
  data.scalars.emplace("alpha", rt::ScalarValue::of_f32(1.5f));

  auto stats = check_against_reference(kSaxpy, driver::CompilerOptions::openuh_base(), data);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_GT(stats[0].cycles, 0u);
  EXPECT_GT(stats[0].global_loads, 0u);
}

const char* kStencil2D = R"(
void stencil(int n, int m, const float src[n][m], float dst[n][m]) {
  #pragma acc parallel loop gang
  for (j = 1; j < n - 1; j++) {
    #pragma acc loop vector(64)
    for (i = 1; i < m - 1; i++) {
      dst[j][i] = 0.25f * (src[j-1][i] + src[j+1][i] + src[j][i-1] + src[j][i+1]);
    }
  }
}
)";

class StencilAllConfigs : public ::testing::TestWithParam<int> {};

driver::CompilerOptions config_by_index(int i) {
  switch (i) {
    case 0: return driver::CompilerOptions::openuh_base();
    case 1: return driver::CompilerOptions::openuh_small();
    case 2: return driver::CompilerOptions::openuh_small_dim();
    case 3: return driver::CompilerOptions::openuh_safara();
    case 4: return driver::CompilerOptions::openuh_safara_clauses();
    default: return driver::CompilerOptions::pgi_like();
  }
}

TEST_P(StencilAllConfigs, MatchesReference) {
  workloads::Dataset data;
  data.arrays.emplace("src", f32_array({{0, 64}, {0, 64}}));
  data.arrays.emplace("dst", f32_array({{0, 64}, {0, 64}}));
  fill_pattern(data.array("src"), 7);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(64));
  data.scalars.emplace("m", rt::ScalarValue::of_i32(64));

  check_against_reference(kStencil2D, config_by_index(GetParam()), data);
}

INSTANTIATE_TEST_SUITE_P(Configs, StencilAllConfigs, ::testing::Range(0, 6));

// The paper's running example (Fig. 5 / Fig. 8 shape): outer parallel loop,
// inner sequential loop with carried reuse on a read-only array.
const char* kSeismicLike = R"(
void sweep(int nx, int nz, float h,
           const float vz1[?][?], const float vz2[?][?], const float vz3[?][?],
           float out[?][?]) {
  #pragma acc parallel loop gang vector(64) dim((0:nx, 0:nz)(vz1, vz2, vz3)) small(vz1, vz2, vz3, out)
  for (i = 0; i < nx; i++) {
    #pragma acc loop seq
    for (k = 1; k < nz; k++) {
      out[i][k] = (vz1[i][k] - vz1[i][k-1]) / h
                + (vz2[i][k] - vz2[i][k-1]) / h
                + (vz3[i][k] - vz3[i][k-1]) / h;
    }
  }
}
)";

class SeismicAllConfigs : public ::testing::TestWithParam<int> {};

TEST_P(SeismicAllConfigs, MatchesReference) {
  const int nx = 32, nz = 40;
  workloads::Dataset data;
  for (const char* name : {"vz1", "vz2", "vz3", "out"}) {
    data.arrays.emplace(name, f32_array({{0, nx}, {0, nz}}));
  }
  fill_pattern(data.array("vz1"), 11);
  fill_pattern(data.array("vz2"), 12);
  fill_pattern(data.array("vz3"), 13);
  data.scalars.emplace("nx", rt::ScalarValue::of_i32(nx));
  data.scalars.emplace("nz", rt::ScalarValue::of_i32(nz));
  data.scalars.emplace("h", rt::ScalarValue::of_f32(0.5f));

  check_against_reference(kSeismicLike, config_by_index(GetParam()), data);
}

INSTANTIATE_TEST_SUITE_P(Configs, SeismicAllConfigs, ::testing::Range(0, 6));

TEST(EndToEnd, DimAndSmallReduceRegisters) {
  driver::Compiler base(driver::CompilerOptions::openuh_base());
  driver::Compiler clauses(driver::CompilerOptions::openuh_small_dim());
  auto p_base = base.compile(kSeismicLike);
  auto p_clauses = clauses.compile(kSeismicLike);
  ASSERT_EQ(p_base.kernels.size(), 1u);
  ASSERT_EQ(p_clauses.kernels.size(), 1u);
  EXPECT_LT(p_clauses.kernels[0].alloc.regs_used, p_base.kernels[0].alloc.regs_used)
      << "dim+small should reduce the ptxas register count";
}

TEST(EndToEnd, SafaraRemovesLoads) {
  driver::Compiler base(driver::CompilerOptions::openuh_base());
  driver::Compiler saf(driver::CompilerOptions::openuh_safara());
  auto p_base = base.compile(kSeismicLike);
  auto p_saf = saf.compile(kSeismicLike);

  workloads::Dataset data;
  const int nx = 32, nz = 40;
  for (const char* name : {"vz1", "vz2", "vz3", "out"}) {
    data.arrays.emplace(name, f32_array({{0, nx}, {0, nz}}));
  }
  fill_pattern(data.array("vz1"), 11);
  fill_pattern(data.array("vz2"), 12);
  fill_pattern(data.array("vz3"), 13);
  data.scalars.emplace("nx", rt::ScalarValue::of_i32(nx));
  data.scalars.emplace("nz", rt::ScalarValue::of_i32(nz));
  data.scalars.emplace("h", rt::ScalarValue::of_f32(0.5f));

  workloads::Dataset d1 = data;
  workloads::Dataset d2 = data;
  auto s_base = workloads::run(p_base, d1);
  auto s_saf = workloads::run(p_saf, d2);
  EXPECT_GT(p_saf.safara.total_groups(), 0);
  EXPECT_LT(s_saf[0].global_loads, s_base[0].global_loads)
      << "SAFARA should eliminate redundant global loads";
  expect_arrays_near(d1.array("out"), d2.array("out"), 1e-6, "out");
}

}  // namespace
}  // namespace safara::test

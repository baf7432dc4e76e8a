// Workload validation: every SPEC/NAS workload, under every compiler
// configuration, must produce the same results as the sequential CPU
// reference (reduction outputs get a looser tolerance: atomic float sums
// reassociate).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "workloads/harness.hpp"

namespace safara::workloads {
namespace {

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

const char* config_name(int i) {
  switch (i) {
    case 0: return "base";
    case 1: return "small";
    case 2: return "small_dim";
    case 3: return "safara";
    case 4: return "safara_clauses";
    default: return "pgi_like";
  }
}

using Param = std::tuple<int, int>;  // (workload index, config index)

class WorkloadVsReference : public ::testing::TestWithParam<Param> {};

TEST_P(WorkloadVsReference, ChecksumMatches) {
  const auto [wi, ci] = GetParam();
  const Workload& w = all_workloads()[static_cast<std::size_t>(wi)];
  RunResult sim = simulate(w, config_by_index(ci));
  RunResult ref = run_reference(w);

  double denom = std::max({std::fabs(sim.checksum), std::fabs(ref.checksum), 1e-30});
  EXPECT_LE(std::fabs(sim.checksum - ref.checksum) / denom, 2e-3)
      << w.name << " under " << config_name(ci) << ": sim=" << sim.checksum
      << " ref=" << ref.checksum;
  EXPECT_GT(sim.cycles, 0u) << w.name;
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto [wi, ci] = info.param;
  std::string n = all_workloads()[static_cast<std::size_t>(wi)].name;
  for (char& c : n) {
    if (c == '.' || c == '-') c = '_';
  }
  return n + "_" + config_name(ci);
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadVsReference,
    ::testing::Combine(::testing::Range(0, static_cast<int>(all_workloads().size())),
                       ::testing::Range(0, 6)),
    param_name);

TEST(Harness, SimulateRunsOnTheOptionsDevice) {
  // The device a run compiles for is the device it simulates on: half the
  // K20Xm's SMs leave each one twice the blocks to get through.
  const Workload* w = find_workload("303.ostencil");
  ASSERT_NE(w, nullptr);
  driver::CompilerOptions seven_sms;
  seven_sms.device.num_sms = 7;
  EXPECT_GT(simulate(*w, seven_sms).cycles, simulate(*w, driver::CompilerOptions{}).cycles);
}

TEST(Workloads, RegistryIsComplete) {
  EXPECT_EQ(all_workloads().size(), 16u);
  EXPECT_EQ(spec_suite().size(), 10u);
  EXPECT_EQ(nas_suite().size(), 6u);
  EXPECT_NE(find_workload("355.seismic"), nullptr);
  EXPECT_NE(find_workload("BT"), nullptr);
  EXPECT_EQ(find_workload("nope"), nullptr);
}

}  // namespace
}  // namespace safara::workloads

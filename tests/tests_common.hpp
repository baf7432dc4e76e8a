// Shared helpers for the test suite: compile ACC-C, run on the simulator
// (workloads::run, the one run path), run the CPU reference, and compare.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "driver/compiler.hpp"
#include "driver/reference.hpp"
#include "parse/parser.hpp"
#include "workloads/harness.hpp"

namespace safara::test {

/// Element-wise comparison of an array across two datasets.
inline void expect_arrays_near(const driver::HostArray& a, const driver::HostArray& b,
                               double rel_tol, const std::string& label) {
  ASSERT_EQ(a.element_count(), b.element_count()) << label;
  for (std::int64_t i = 0; i < a.element_count(); ++i) {
    double x = a.get(i);
    double y = b.get(i);
    double denom = std::max({std::fabs(x), std::fabs(y), 1e-30});
    ASSERT_LE(std::fabs(x - y) / denom, rel_tol)
        << label << " differs at linear index " << i << ": " << x << " vs " << y;
  }
}

/// Compiles with `opts`, runs on the simulator, and checks every array in
/// `data` against the sequential reference. Returns the simulator stats.
inline std::vector<vgpu::LaunchStats> check_against_reference(
    const std::string& source, const driver::CompilerOptions& opts,
    const workloads::Dataset& data, double rel_tol = 1e-6) {
  driver::Compiler compiler(opts);
  driver::CompiledProgram prog = compiler.compile(source);

  workloads::Dataset sim_data = data;
  auto stats = workloads::run(prog, sim_data);

  workloads::Dataset ref_data = data;
  {
    DiagnosticEngine diags;
    ast::Program program = parse::parse_source(source, diags);
    if (!diags.ok()) throw CompileError(diags.render());
    driver::RefArgMap args = ref_data.ref_args();
    driver::run_reference(*program.functions.front(), args);
  }

  for (auto& [name, arr] : sim_data.arrays) {
    expect_arrays_near(arr, ref_data.arrays.at(name), rel_tol, name);
  }
  return stats;
}

/// Convenience constructors.
inline driver::HostArray f32_array(std::vector<rt::Dim> dims) {
  return driver::HostArray::make(ast::ScalarType::kF32, std::move(dims));
}
inline driver::HostArray f64_array(std::vector<rt::Dim> dims) {
  return driver::HostArray::make(ast::ScalarType::kF64, std::move(dims));
}
inline driver::HostArray i32_array(std::vector<rt::Dim> dims) {
  return driver::HostArray::make(ast::ScalarType::kI32, std::move(dims));
}

/// Deterministic pseudo-random fill (xorshift; no <random> jitter across
/// platforms).
inline void fill_pattern(driver::HostArray& arr, std::uint64_t seed = 12345) {
  std::uint64_t s = seed * 2654435761u + 1;
  for (std::int64_t i = 0; i < arr.element_count(); ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    double v = 0.25 + static_cast<double>(s % 1000) / 1000.0;
    if (ast::is_float(arr.elem)) {
      arr.set(i, v);
    } else {
      arr.set_int(i, static_cast<std::int64_t>(s % 97));
    }
  }
}

// -- simulation determinism ---------------------------------------------------
//
// The contract of vgpu/sim.hpp: neither the dispatch engine nor the number of
// host threads a launch's SMs spread over may change a bit of a result. Three
// tests split the {ref, super} x {1, 2, 4, max(4, cores)} thread matrix, each
// simulating every workload under safara_clauses once per cell it owns:
//   SuperblockDispatch.AllWorkloadsBitIdenticalToReference     super@1 vs ref@1
//   SimDeterminism.AllWorkloadsBitIdenticalAcrossThreadCounts  super@N vs super@1
//   Attribution.BitIdenticalAcrossEnginesAndThreadCounts       ref@N vs super@1
// Equality is transitive, so together they pin every cell to ref@1.

/// What one simulation of a workload produces that the contract covers.
struct SimSnapshot {
  std::string result;    // RunResult::to_json — merged LaunchStats, all fields
  std::string profiles;  // Collector::sim_to_json — per-SM profiles per launch,
                         // per-pc attribution and occupancy timelines included
  double checksum = 0.0;
  std::uint64_t cycles = 0;
  std::size_t launches = 0;  // launch profiles the collector recorded
};

inline SimSnapshot snapshot_workload(const workloads::Workload& w,
                                     vgpu::SimDispatch dispatch, int threads) {
  obs::Collector collector;
  workloads::RunResult r =
      workloads::simulate(w, driver::CompilerOptions::openuh_safara_clauses(), &collector,
                          {.threads = threads, .dispatch = dispatch});
  SimSnapshot s;
  s.result = r.to_json().dump(2);
  s.profiles = collector.sim_to_json().dump(2);
  s.checksum = r.checksum;
  s.cycles = r.cycles;
  s.launches = collector.sim_profiles.size();
  return s;
}

/// The host thread counts above one that the contract is checked at: 2, 4
/// and max(4, cores), deduplicated (counts above the core count are valid).
inline std::vector<int> parallel_thread_counts() {
  const int wide = std::max(4, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<int> counts = {2, 4, wide};
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

inline void expect_bit_identical(const SimSnapshot& expected, const SimSnapshot& actual) {
  EXPECT_EQ(expected.result, actual.result);
  EXPECT_EQ(expected.profiles, actual.profiles);
  EXPECT_EQ(expected.checksum, actual.checksum);  // exact: same bits, not "close"
}

}  // namespace safara::test

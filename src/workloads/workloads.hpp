// The benchmark workloads: ACC-C re-implementations of the hot offload
// regions of the SPEC ACCEL and NAS (NPB-ACC) benchmarks the paper evaluates.
// Each workload preserves the property that matters to the paper's
// optimizations — loop structure, reuse distances, coalescing behaviour, and
// dope-vector shape (allocatable vs VLA vs pointer arrays) — at simulation-
// friendly problem sizes. See DESIGN.md for the per-benchmark substitution
// notes.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "driver/reference.hpp"
#include "rt/args.hpp"

namespace safara::workloads {

/// Host-side data for one program run: named arrays and named scalars.
struct Dataset {
  std::map<std::string, driver::HostArray> arrays;
  std::map<std::string, rt::ScalarValue> scalars;

  driver::HostArray& array(const std::string& name) { return arrays.at(name); }
  const driver::HostArray& array(const std::string& name) const {
    return arrays.at(name);
  }

  /// The CPU reference's arguments: every array by pointer, so the reference
  /// computes in place, and every scalar by value.
  driver::RefArgMap ref_args() {
    driver::RefArgMap args;
    for (auto& [name, arr] : arrays) args.emplace(name, &arr);
    for (auto& [name, sv] : scalars) args.emplace(name, sv);
    return args;
  }
};

struct Workload {
  std::string name;         // e.g. "355.seismic"
  std::string suite;        // "SPEC" or "NPB"
  std::string description;  // one line: what the original benchmark is
  std::string source;       // ACC-C program (may contain several functions)
  std::string function;     // entry function compiled & executed
  int time_steps = 1;       // kernel-sequence repetitions per run
  std::vector<std::string> outputs;  // arrays folded into the checksum
  std::function<Dataset()> make_dataset;
};

/// Every workload, SPEC first then NPB.
const std::vector<Workload>& all_workloads();
std::vector<const Workload*> spec_suite();
std::vector<const Workload*> nas_suite();
const Workload* find_workload(std::string_view name);

/// Deterministic data fill shared by the dataset builders.
void fill(driver::HostArray& arr, std::uint64_t seed, double lo = 0.25, double hi = 1.25);

}  // namespace safara::workloads

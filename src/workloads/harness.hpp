// Execution harness: runs a workload under a compiler configuration on the
// simulated GPU (or under the CPU reference) and reports the metrics the
// paper's figures are built from.
#pragma once

#include "driver/compiler.hpp"
#include "obs/collector.hpp"
#include "vgpu/sim.hpp"
#include "workloads/workloads.hpp"

namespace safara::workloads {

struct KernelMetrics {
  std::string name;
  int regs = 0;
  int spill_bytes = 0;
  int shared_spill_bytes = 0;  // RegDem-demoted slots (per thread)
  double occupancy = 0.0;
  std::uint64_t cycles = 0;  // summed over time steps

  obs::json::Value to_json() const;
};

struct RunResult {
  std::uint64_t cycles = 0;  // total simulated device cycles
  std::uint64_t warp_instructions = 0;
  std::uint64_t global_loads = 0;
  std::uint64_t mem_transactions = 0;
  std::uint64_t spill_accesses = 0;
  std::uint64_t shared_accesses = 0;
  std::uint64_t shared_bank_conflicts = 0;
  int max_regs = 0;
  double min_occupancy = 1.0;
  double checksum = 0.0;
  std::vector<KernelMetrics> kernels;

  /// Host wall-clock spent compiling / simulating, for the bench harness's
  /// speedup tracking. Deliberately excluded from to_json(): tool output
  /// (e.g. safcc --metrics-out) stays byte-identical across runs.
  double compile_ms = 0.0;
  double sim_ms = 0.0;

  obs::json::Value to_json() const;
};

/// Checksum over the workload's declared output arrays.
double checksum_of(const Dataset& data, const std::vector<std::string>& outputs);

/// Compiles `w` with `opts` and runs it for `w.time_steps` steps on
/// `opts.device`, every launch under `sim`. A non-null `collector` observes
/// both the compilation (pass spans, SAFARA iterations) and every simulated
/// launch (cycle/stall profiles).
RunResult simulate(const Workload& w, const driver::CompilerOptions& opts,
                   obs::Collector* collector = nullptr, const vgpu::SimOptions& sim = {});

/// Runs the sequential CPU reference (same dataset builder).
RunResult run_reference(const Workload& w);

}  // namespace safara::workloads

// Execution harness: the one run path from host data to the simulated GPU
// and back (`run`), used by the workloads, the fuzz oracles, the tests and
// safcc; and the workload runs on it (or under the CPU reference) that report
// the metrics the paper's figures are built from.
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

  /// Host wall-clock spent compiling / running, for the bench harness's
  /// speedup tracking. `sim_ms` covers the whole of workloads::run: buffer
  /// allocation and the copies around the launches as well as the launches.
  /// Deliberately excluded from to_json(): tool output (e.g. safcc
  /// --metrics-out) stays byte-identical across runs.
  double compile_ms = 0.0;
  double sim_ms = 0.0;

  obs::json::Value to_json() const;
};

/// Checksum over the workload's declared output arrays.
double checksum_of(const Dataset& data, const std::vector<std::string>& outputs);

/// The one code path that runs a compiled program on the simulator. On a
/// fresh `spec` device it allocates a buffer per array of `data` and copies
/// it in, launches every kernel `steps` times in program order under `sim`,
/// and copies every array back into `data`. A program compiled with
/// `verify_clauses` checks each launch's `dim`/`small` assertions and runs
/// the clause-ignoring twin when one is false (driver::launch_verified).
/// Returns one LaunchStats per launch, in launch order. A non-null
/// `collector` records the copy spans and every launch's profile.
std::vector<vgpu::LaunchStats> run(const driver::CompiledProgram& prog, Dataset& data,
                                   const vgpu::DeviceSpec& spec = vgpu::DeviceSpec::k20xm(),
                                   obs::Collector* collector = nullptr,
                                   const vgpu::SimOptions& sim = {}, int steps = 1);

/// Runs `prog`, compiled from `w`, for `w.time_steps` steps on `spec` over a
/// fresh `w.make_dataset()`, every launch under `sim`, and folds the launches
/// into a RunResult. A non-null `collector` observes every simulated launch
/// (cycle/stall profiles) and the run's host phases (dataset, copies,
/// checksum).
RunResult simulate(const Workload& w, const driver::CompiledProgram& prog,
                   const vgpu::DeviceSpec& spec, obs::Collector* collector = nullptr,
                   const vgpu::SimOptions& sim = {});

/// Compiles `w` with `opts` and simulates it on `opts.device` (the overload
/// above). A non-null `collector` observes the compilation too (pass spans,
/// SAFARA iterations).
RunResult simulate(const Workload& w, const driver::CompilerOptions& opts,
                   obs::Collector* collector = nullptr, const vgpu::SimOptions& sim = {});

/// Runs the sequential CPU reference (same dataset builder).
RunResult run_reference(const Workload& w);

}  // namespace safara::workloads

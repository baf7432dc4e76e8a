// The cross-cutting observability context threaded through the pipeline.
//
// A Collector bundles the three sinks every layer reports into:
//   * tracer   — timed spans (compiler passes, SAFARA iterations, launches);
//   * metrics  — deterministic counters/gauges;
//   * sim      — per-kernel, per-SM cycle/stall profiles from the GPU
//                simulator.
//
// Call sites take `obs::Collector*` defaulting to nullptr. The null path is
// a single pointer test: no allocation, no timing, and — enforced by test —
// bit-identical simulator cycle counts whether or not a collector is
// attached (profiling observes the schedule, it never perturbs it).
//
// This header deliberately knows nothing about the AST, VIR, or device
// model, so every subsystem (opt, vgpu, rt, driver, workloads, tools) can
// depend on it without cycles.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace safara::obs {

/// Per-machine-instruction (pc) attribution within one SM: how often this
/// instruction issued and how many stall cycles were charged to a warp
/// blocked at it, split by cause. Summing a field over all pcs reproduces
/// the SM-level counter exactly (tested), which is what makes source-line
/// rollups conservative: no cycle is counted twice or dropped.
struct PcProfile {
  std::uint64_t issued = 0;        // dynamic issues of this instruction
  std::uint64_t issue_cycles = 0;  // cycles whose first issue was this pc
  std::uint64_t stall_scoreboard = 0;
  std::uint64_t stall_memory = 0;

  bool any() const {
    return issued | issue_cycles | stall_scoreboard | stall_memory;
  }
  bool operator==(const PcProfile&) const = default;
};

/// One (cycle, resident warps) occupancy sample; recorded whenever a block
/// is admitted to or retired from the SM.
struct WarpSample {
  std::uint64_t cycle = 0;
  std::uint32_t warps = 0;

  bool operator==(const WarpSample&) const = default;
};

/// Cycle breakdown for one SM over one kernel launch. Stall cycles classify
/// every cycle in which the SM issued nothing by what the earliest-unblocking
/// warp was waiting on.
struct SmProfile {
  int sm = 0;
  std::uint64_t cycles = 0;
  std::uint64_t issue_cycles = 0;       // cycles with >= 1 instruction issued
  std::uint64_t issued_instructions = 0;
  std::uint64_t stall_scoreboard = 0;   // waiting on a non-memory result
  std::uint64_t stall_memory = 0;       // waiting on a memory result
  std::uint64_t stall_no_warp = 0;      // no runnable warp resident at all
  std::uint64_t blocks_executed = 0;
  std::uint64_t max_resident_warps = 0;
  /// Per-instruction attribution, indexed by pc (sized to the kernel's code
  /// length when a collector is attached). Bit-identical between dispatch
  /// engines and thread counts, like every other field here.
  std::vector<PcProfile> pcs;
  /// Occupancy timeline: resident-warp count at each admit/retire event.
  std::vector<WarpSample> warp_timeline;

  json::Value to_json() const;
};

/// One kernel launch as the simulator saw it: per-SM breakdowns plus the
/// launch-wide counter snapshot the caller attaches.
struct KernelSimProfile {
  std::string kernel;
  int launch_index = 0;  // ordinal of this launch within the collector
  std::vector<SmProfile> sms;
  json::Value launch_stats;  // LaunchStats::to_json() snapshot

  SmProfile totals() const;
  json::Value to_json() const;
};

class Collector {
 public:
  Tracer tracer;
  MetricsRegistry metrics;
  std::vector<KernelSimProfile> sim_profiles;
  /// Running virtual-time base for simulator counter tracks: launches place
  /// their occupancy samples at `sim_cycle_offset + cycle` so consecutive
  /// launches lay out end to end on one timeline, then advance the offset.
  std::uint64_t sim_cycle_offset = 0;

  /// Starts the profile record for one launch; the simulator fills it in.
  KernelSimProfile& begin_kernel_profile(std::string kernel_name) {
    KernelSimProfile p;
    p.kernel = std::move(kernel_name);
    p.launch_index = static_cast<int>(sim_profiles.size());
    sim_profiles.push_back(std::move(p));
    return sim_profiles.back();
  }

  /// {"launches": [...]} — every kernel profile collected so far.
  json::Value sim_to_json() const;

  /// The combined metrics + simulator document `--metrics-out` writes.
  json::Value report() const;
};

/// Null-safe accessors so call sites can write
/// `obs::tracer_of(collector)` instead of `collector ? &collector->tracer : nullptr`.
inline Tracer* tracer_of(Collector* c) { return c ? &c->tracer : nullptr; }

}  // namespace safara::obs

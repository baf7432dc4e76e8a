// The GPU timing + functional simulator.
//
// Execution model: thread blocks are distributed round-robin over the SMs;
// each SM keeps up to `Occupancy::blocks_per_sm` blocks resident and runs
// their warps under a greedy round-robin scheduler with a per-warp register
// scoreboard (an in-order Kepler-style core). Divergence uses a SIMT
// reconvergence stack driven by the structured reconvergence labels codegen
// attaches to every conditional branch.
//
// Timing: every instruction has an issue cost and a result latency; memory
// instructions derive their latency from the number of 128-byte transactions
// the warp's 32 lane addresses coalesce into, and from the read-only data
// cache for `@ro` loads. Reads/writes of spilled virtual registers charge
// local-memory latency (the performance cost of spilling). Occupancy —
// derived from the ptxas-sim register count — bounds how many warps are
// resident to hide those latencies, which is exactly the register-pressure /
// latency-hiding tradeoff the paper's optimizations navigate.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/collector.hpp"
#include "regalloc/regalloc.hpp"
#include "vgpu/device.hpp"
#include "vgpu/memory.hpp"
#include "vgpu/occupancy.hpp"
#include "vir/vir.hpp"

namespace safara::vgpu {

struct LaunchConfig {
  int grid[3] = {1, 1, 1};
  int block[3] = {1, 1, 1};

  int threads_per_block() const { return block[0] * block[1] * block[2]; }
  std::int64_t total_blocks() const {
    return static_cast<std::int64_t>(grid[0]) * grid[1] * grid[2];
  }
};

struct LaunchStats {
  std::uint64_t cycles = 0;             // max over SMs
  std::uint64_t warp_instructions = 0;  // dynamic warp-level instructions
  std::uint64_t mem_transactions = 0;
  std::uint64_t global_loads = 0;
  std::uint64_t global_stores = 0;
  std::uint64_t ro_hits = 0;
  std::uint64_t ro_misses = 0;
  std::uint64_t atomics = 0;
  std::uint64_t spill_accesses = 0;
  /// Subset of spill_accesses served by shared memory (RegDem-demoted
  /// slots), and the extra bank-serialized transactions those accesses cost
  /// (one warp access of an 8-byte slot on 32x4B banks conflicts 2-way and
  /// counts 1 here).
  std::uint64_t shared_accesses = 0;
  std::uint64_t shared_bank_conflicts = 0;
  int regs_per_thread = 0;
  double occupancy = 0.0;
  OccupancyLimiter occupancy_limiter = OccupancyLimiter::kWarps;

  double milliseconds(const DeviceSpec& spec) const {
    return static_cast<double>(cycles) / (spec.clock_ghz * 1e6);
  }

  obs::json::Value to_json() const;
};

// -- host threading ------------------------------------------------------------
//
// SMs are architecturally independent, so the simulator can run each SM's
// block list on its own host thread. Every per-SM counter and profile is
// accumulated privately and merged in SM order afterwards, so results are
// bit-identical for any thread count (guarded by tests/test_sim.cpp).
// Kernels containing atomics always run sequentially: cross-SM atomics are
// the one sanctioned form of inter-block sharing, and their sequential order
// is part of the deterministic results contract.

/// Sets the process-wide simulator thread budget, a deployment setting a
/// main() sets once. `n <= 0` restores the default,
/// std::thread::hardware_concurrency(). A count of 1 reproduces the exact
/// sequential seed schedule (no pool involvement).
void set_sim_threads(int n);
/// The process-wide thread budget (always >= 1).
int sim_threads();

// -- dispatch engine -----------------------------------------------------------
//
// The interpreter has two dispatch engines that are required to produce
// bit-identical LaunchStats, per-SM profiles, and functional results:
//
//  - kSuper (default): at decode time every run of one or more fusable
//    instructions becomes a straight-line superblock (runs break at memory
//    ops, atomics, control flow, and every label target). When a block's head
//    passes the ordinary scoreboard check, the whole block executes
//    functionally in one bulk dispatch and its issue slots drain
//    cycle-exactly from a precomputed micro-op table, each one waiting on its
//    own operands as the per-instruction path would. Only memory ops, atomics
//    and control flow take the per-instruction path.
//  - kRef: the original per-instruction interpreter, kept as the reference
//    semantics.

enum class SimDispatch : std::uint8_t {
  kSuper,
  kRef,
};

/// Parses "super" / "ref" (as accepted by the --sim-dispatch flag). Returns
/// false and leaves `out` untouched otherwise.
bool parse_sim_dispatch(std::string_view text, SimDispatch& out);
const char* to_string(SimDispatch d);

/// How one launch is simulated. On a race-free kernel none of these
/// settings changes a result: stats, profiles and device memory are
/// bit-identical for every value.
struct SimOptions {
  /// Host threads for the launch's SMs; <= 0 means the process budget,
  /// sim_threads(). A launch made inside a support::ThreadPool::parallel_for
  /// job (an eval_grid cell, say) always uses one: that job's participants
  /// already fill the budget.
  int threads = 0;
  SimDispatch dispatch = SimDispatch::kSuper;
  /// Arms the overlap checker that guards the SM-independence assumption: a
  /// parallel launch first replays sequentially on a scratch copy of device
  /// memory and, if one SM writes memory another SM touches, runs
  /// sequentially with a `sim.overlap_fallbacks` diagnostic. On by default in
  /// assert-enabled builds.
#ifdef NDEBUG
  bool check_overlap = false;
#else
  bool check_overlap = true;
#endif

  bool operator==(const SimOptions&) const = default;
};

/// Static classification of one opcode by the superblock builder. Every
/// vir::Opcode is either a block terminator (memory, atomic, control flow) or
/// fusable with a positive static result latency; tests/test_superblock.cpp
/// asserts the classification is total.
struct SuperblockOpInfo {
  bool terminator = false;
  int latency = 0;  // static result latency of fusable ops (spill cost excluded)
};
SuperblockOpInfo superblock_op_info(vir::Opcode op, vir::VType type, const DeviceSpec& spec);

/// Runs `kernel` to completion. `params` holds one raw 8-byte slot per kernel
/// formal (already type-punned by the host runtime). Functional effects land
/// in `mem`; the return value carries the timing statistics.
///
/// When `collector` is non-null the simulator additionally records a
/// per-kernel, per-SM cycle/stall profile into it. Profiling is purely
/// observational: cycle counts and functional results are identical with and
/// without a collector attached — and identical for any `sim` options.
LaunchStats launch(const vir::Kernel& kernel, const regalloc::AllocationResult& alloc,
                   const DeviceSpec& spec, DeviceMemory& mem,
                   const std::vector<std::uint64_t>& params, const LaunchConfig& cfg,
                   obs::Collector* collector = nullptr, const SimOptions& sim = {});

}  // namespace safara::vgpu

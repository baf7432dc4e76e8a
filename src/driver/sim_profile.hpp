// The `safara.sim_profile/v1` attribution document: what `safcc
// --sim-profile-out` writes, and what `--sim-profile` and `--annotate` print
// views of.
#pragma once

#include <string>

#include "driver/compiler.hpp"
#include "obs/collector.hpp"
#include "obs/json.hpp"

namespace safara::driver {

/// Builds the `safara.sim_profile/v1` document: the static half of the
/// attribution join (per-pc op/line/col from the compiled kernels, per-live-
/// range register provenance from the allocator) plus the dynamic half (the
/// collector's per-SM pc profiles and occupancy timelines), and the per-line
/// rollup that ties them together. `--sim-profile`, `--annotate`, and
/// `--sim-profile-out` are all views over this one document.
///
/// Invariant carried over from the simulator: every busy SM cycle is claimed
/// by exactly one pc (issue, scoreboard stall, or memory stall), so the
/// per-line `cycles` sum to `total_cycles` (per-SM cycles summed over SMs
/// and launches) exactly.
obs::json::Value sim_profile_doc(const CompiledProgram& prog, const obs::Collector& c,
                                 const std::string& input, const std::string& config);

}  // namespace safara::driver

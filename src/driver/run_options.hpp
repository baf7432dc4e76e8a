// The settings one run computes under, as a single value, and the one flag
// table every binary parses them with.
//
// A RunOptions is passed down the call chain explicitly: its compiler half is
// the base every named config starts from (CompilerOptions::openuh_base(base)
// and friends), its simulator half goes to workloads::simulate, rt::Runtime
// and vgpu::launch. Nothing here touches process state; the two host-thread
// budgets (vgpu::sim_threads, driver::grid_threads) are deployment settings
// a main() sets once, from these values or its own flags.
#pragma once

#include <span>
#include <string_view>

#include "driver/compiler.hpp"
#include "vgpu/sim.hpp"

namespace safara::driver {

struct RunOptions {
  CompilerOptions compiler;
  vgpu::SimOptions sim;
};

/// One shared run flag, accepted as `--flag value` or `--flag=value`; a row
/// whose `expects` is empty is a switch and takes no value.
struct RunFlag {
  std::string_view name;     // "--regalloc"
  std::string_view expects;  // what a bad value is told it should be
  /// Parses `value` into `run`; false on a bad value.
  bool (*apply)(std::string_view value, RunOptions& run);
};

/// --sim-threads, --sim-dispatch, --sim-check-overlap, --regalloc,
/// --spill-mem and --opt-level.
std::span<const RunFlag> run_flags();

/// When argv[i] is a run flag, applies it to `run`, advances `i` past any
/// value it consumed, and returns true; returns false for any other argument.
/// A bad or missing value prints `<prog>: --flag expects ..., got '...'` to
/// stderr and exits with status 2.
bool parse_run_flag(const char* prog, int argc, char** argv, int& i, RunOptions& run);

}  // namespace safara::driver

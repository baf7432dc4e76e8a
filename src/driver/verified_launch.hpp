// Launch-time clause verification (the two-version scheme at the end of
// Section IV): before launching a kernel whose compilation trusted `dim` /
// `small` assertions, check those assertions against the actual buffers; if
// any is false, run the clause-ignoring fallback kernel instead of producing
// wrong answers.
#pragma once

#include "driver/compiler.hpp"
#include "rt/runtime.hpp"

namespace safara::driver {

struct VerifiedLaunch {
  vgpu::LaunchStats stats;
  bool used_fallback = false;
  /// Human-readable reasons the checks failed (empty when the optimized
  /// kernel ran).
  std::vector<std::string> violations;
};

/// Checks `kernel.checks` against the buffers/scalars in `args`; returns the
/// violations (empty means every assertion holds).
std::vector<std::string> verify_clauses(const CompiledKernel& kernel,
                                        const rt::ArgMap& args);

/// Launches kernel `index` of `program`, falling back to the clause-ignoring
/// twin if any clause assertion fails at runtime. If the program has no
/// fallback but a check fails, throws std::runtime_error (wrong-answer
/// prevention beats performance). A non-null `collector` receives the
/// launch's trace span and simulator profile, as in rt::Runtime::launch.
VerifiedLaunch launch_verified(rt::Runtime& runtime, const CompiledProgram& program,
                               std::size_t index, const rt::ArgMap& args,
                               obs::Collector* collector = nullptr);

}  // namespace safara::driver

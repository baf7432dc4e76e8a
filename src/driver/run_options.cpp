#include "driver/run_options.hpp"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "support/string_util.hpp"

namespace safara::driver {
namespace {

/// Strict integer in [lo, hi] into `out`; false, leaving `out` alone, otherwise.
bool parse_int(std::string_view text, int lo, int hi, int& out) {
  const std::optional<long long> v = parse_int_strict(text);
  if (!v || *v < lo || *v > hi) return false;
  out = static_cast<int>(*v);
  return true;
}

const RunFlag kRunFlags[] = {
    {"--sim-threads", "an integer",
     [](std::string_view value, RunOptions& run) {
       return parse_int(value, INT_MIN, INT_MAX, run.sim.threads);
     }},
    {"--sim-dispatch", "'super' or 'ref'",
     [](std::string_view value, RunOptions& run) {
       return vgpu::parse_sim_dispatch(value, run.sim.dispatch);
     }},
    {"--sim-check-overlap", "",
     [](std::string_view, RunOptions& run) {
       run.sim.check_overlap = true;
       return true;
     }},
    {"--regalloc", "'linear' or 'color'",
     [](std::string_view value, RunOptions& run) {
       return regalloc::parse_strategy(value, run.compiler.regalloc.strategy);
     }},
    {"--spill-mem", "'local', 'shared', or 'auto'",
     [](std::string_view value, RunOptions& run) {
       return regalloc::parse_spill_mem(value, run.compiler.regalloc.spill_mem);
     }},
    {"--opt-level", "0, 1, or 2",
     [](std::string_view value, RunOptions& run) {
       return parse_int(value, 0, 2, run.compiler.opt_level);
     }},
};

}  // namespace

std::span<const RunFlag> run_flags() { return kRunFlags; }

bool parse_run_flag(const char* prog, int argc, char** argv, int& i, RunOptions& run) {
  const std::string_view arg = argv[i];
  for (const RunFlag& flag : kRunFlags) {
    if (!arg.starts_with(flag.name)) continue;
    const bool is_switch = flag.expects.empty();
    std::string_view value;
    if (arg.size() == flag.name.size()) {
      if (!is_switch) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s: missing value for '%s'\n", prog, argv[i]);
          std::exit(2);
        }
        value = argv[++i];
      }
    } else if (!is_switch && arg[flag.name.size()] == '=') {
      value = arg.substr(flag.name.size() + 1);
    } else {
      continue;  // a longer flag that merely shares the prefix
    }
    if (!flag.apply(value, run)) {
      std::fprintf(stderr, "%s: %.*s expects %.*s, got '%.*s'\n", prog,
                   static_cast<int>(flag.name.size()), flag.name.data(),
                   static_cast<int>(flag.expects.size()), flag.expects.data(),
                   static_cast<int>(value.size()), value.data());
      std::exit(2);
    }
    return true;
  }
  return false;
}

}  // namespace safara::driver

// The settings one run computes under, as a single value, and the one
// command-line layer every binary parses its flags with.
//
// A RunOptions is passed down the call chain explicitly: its compiler half is
// the base every named config starts from (CompilerOptions::openuh_base(base)
// and friends), its simulator half goes to workloads::simulate, rt::Runtime
// and vgpu::launch. Nothing here touches process state; the two host-thread
// budgets (vgpu::sim_threads, driver::grid_threads) are deployment settings
// a main() sets once, from these values or its own flags.
//
// Every binary (safcc, safcc-fuzz, reproduce) declares its flags as a table of
// Flag rows, the shared run_flags() rows among them, and hands it to
// parse_flags. So each accepts `--flag value` and `--flag=value`, prints its
// usage from the rows, and answers a malformed command line in the same words
// with exit status 2:
//   <prog>: unknown argument '...'           (then the usage)
//   <prog>: missing value for '--flag'       (then the usage)
//   <prog>: unexpected second input '...'    (then the usage)
//   <prog>: --flag expects ..., got '...'
#pragma once

#include <climits>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "driver/compiler.hpp"
#include "vgpu/sim.hpp"

namespace safara::driver {

struct RunOptions {
  CompilerOptions compiler;
  vgpu::SimOptions sim;
};

/// One command-line flag, accepted as `--flag value` or `--flag=value`; a row
/// whose `expects` is empty is a switch and takes no value.
struct Flag {
  std::string_view name;  // "--regalloc"
  std::string expects;    // what its value must be; the usage shows it too
  /// Writes `value` (empty for a switch) into the calling binary's settings;
  /// false on a bad value.
  std::function<bool(std::string_view value)> apply;
};

/// A switch row that sets `on`.
Flag switch_flag(std::string_view name, bool& on);

/// A row that stores its value, any non-empty text, in `out`.
Flag text_flag(std::string_view name, std::string expects, std::string& out);

/// A row that stores its value, one of `names`, in `out`; its `expects`
/// lists them.
Flag choice_flag(std::string_view name, std::vector<std::string_view> names, std::string& out);

/// A row that stores its value, a strict integer (the whole text is the
/// number) in [lo, hi], in `out`. Its `expects` is "an integer", plus the
/// range when that is narrower than int's.
Flag int_flag(std::string_view name, int& out, long long lo = INT_MIN, long long hi = INT_MAX);
Flag int_flag(std::string_view name, std::uint64_t& out, long long lo, long long hi);

/// --sim-threads, --sim-dispatch, --sim-check-overlap, --regalloc,
/// --spill-mem and --opt-level, writing `run`.
std::vector<Flag> run_flags(RunOptions& run);

/// A binary's command line.
struct Command {
  const char* prog;           // prefixes every message: "safcc"
  std::string_view synopsis;  // the usage line after the name
  std::vector<Flag> flags;    // in usage order
  /// Takes the one argument that is no flag; a second one is a usage error.
  /// When null, such an argument is unknown.
  std::string* operand = nullptr;
  std::string epilogue;  // printed after the flag list, when not empty
};

/// Applies argv[1..argc) to `cmd.flags` and returns the name of every flag it
/// applied, in argv order (a repeated flag is applied, and listed, each
/// time). `--help` or `-h` prints the usage to stdout and exits 0; any
/// malformed argument exits 2 with the message in the header comment. A name
/// only matches a row exactly: `--sim-thread` is unknown, and so is
/// `--switch=1`. An empty value is a missing one.
std::vector<std::string_view> parse_flags(const Command& cmd, int argc, char** argv);

/// Prints `<prog>: message` and the usage to stderr and exits 2: for a
/// binary's own checks on what parse_flags applied.
[[noreturn]] void usage_error(const Command& cmd, std::string_view message);

}  // namespace safara::driver

#include "driver/run_options.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "support/string_util.hpp"

namespace safara::driver {
namespace {

/// `text` as a strict integer in [lo, hi].
std::optional<long long> parse_int_in(std::string_view text, long long lo, long long hi) {
  const std::optional<long long> v = parse_int_strict(text);
  if (!v || *v < lo || *v > hi) return std::nullopt;
  return v;
}

template <class Int>
Flag int_row(std::string_view name, Int& out, long long lo, long long hi) {
  std::string expects = "an integer";
  if (lo > INT_MIN || hi < INT_MAX) {
    expects += " in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
  }
  return {name, std::move(expects), [&out, lo, hi](std::string_view value) {
            const std::optional<long long> v = parse_int_in(value, lo, hi);
            if (v) out = static_cast<Int>(*v);
            return v.has_value();
          }};
}

void print_usage(const Command& cmd, std::FILE* out) {
  std::fprintf(out, "usage: %s %.*s\n", cmd.prog, static_cast<int>(cmd.synopsis.size()),
               cmd.synopsis.data());
  int width = 0;
  for (const Flag& flag : cmd.flags) width = std::max(width, static_cast<int>(flag.name.size()));
  for (const Flag& flag : cmd.flags) {
    const int len = static_cast<int>(flag.name.size());
    if (flag.expects.empty()) {
      std::fprintf(out, "  %.*s\n", len, flag.name.data());
    } else {
      std::fprintf(out, "  %-*.*s  %s\n", width, len, flag.name.data(), flag.expects.c_str());
    }
  }
  if (!cmd.epilogue.empty()) std::fprintf(out, "%s\n", cmd.epilogue.c_str());
}

}  // namespace

Flag switch_flag(std::string_view name, bool& on) {
  return {name, "", [&on](std::string_view) {
            on = true;
            return true;
          }};
}

Flag text_flag(std::string_view name, std::string expects, std::string& out) {
  return {name, std::move(expects), [&out](std::string_view value) {
            out = value;
            return true;
          }};
}

Flag choice_flag(std::string_view name, std::vector<std::string_view> names, std::string& out) {
  std::string expects = "one of";
  for (std::size_t i = 0; i < names.size(); ++i) {
    expects += i ? ", " : " ";
    expects += names[i];
  }
  return {name, std::move(expects), [&out, names = std::move(names)](std::string_view value) {
            out = value;
            return std::find(names.begin(), names.end(), value) != names.end();
          }};
}

Flag int_flag(std::string_view name, int& out, long long lo, long long hi) {
  return int_row(name, out, lo, hi);
}

Flag int_flag(std::string_view name, std::uint64_t& out, long long lo, long long hi) {
  return int_row(name, out, lo, hi);
}

std::vector<Flag> run_flags(RunOptions& run) {
  return {
      int_flag("--sim-threads", run.sim.threads),
      {"--sim-dispatch", "'super' or 'ref'",
       [&run](std::string_view value) {
         return vgpu::parse_sim_dispatch(value, run.sim.dispatch);
       }},
      switch_flag("--sim-check-overlap", run.sim.check_overlap),
      {"--regalloc", "'linear' or 'color'",
       [&run](std::string_view value) {
         return regalloc::parse_strategy(value, run.compiler.regalloc.strategy);
       }},
      {"--spill-mem", "'local' or 'auto'",
       [&run](std::string_view value) {
         return regalloc::parse_spill_mem(value, run.compiler.regalloc.spill_mem);
       }},
      {"--opt-level", "0, 1, or 2",
       [&run](std::string_view value) {
         const std::optional<long long> level = parse_int_in(value, 0, 2);
         if (level) run.compiler.opt_level = static_cast<int>(*level);
         return level.has_value();
       }},
  };
}

void usage_error(const Command& cmd, std::string_view message) {
  std::fprintf(stderr, "%s: %.*s\n", cmd.prog, static_cast<int>(message.size()),
               message.data());
  print_usage(cmd, stderr);
  std::exit(2);
}

std::vector<std::string_view> parse_flags(const Command& cmd, int argc, char** argv) {
  std::vector<std::string_view> seen;
  bool have_operand = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(cmd, stdout);
      std::exit(0);
    }
    const Flag* flag = nullptr;
    std::optional<std::string_view> value;
    for (const Flag& row : cmd.flags) {
      if (arg == row.name) {
        flag = &row;
      } else if (!row.expects.empty() && arg.starts_with(row.name) &&
                 arg[row.name.size()] == '=') {
        flag = &row;
        value = arg.substr(row.name.size() + 1);
      }
      if (flag) break;
    }
    if (!flag) {
      if (cmd.operand && !arg.starts_with('-')) {
        if (have_operand) usage_error(cmd, "unexpected second input '" + std::string(arg) + "'");
        *cmd.operand = arg;
        have_operand = true;
        continue;
      }
      usage_error(cmd, "unknown argument '" + std::string(arg) + "'");
    }
    if (!flag->expects.empty()) {
      if (!value && i + 1 < argc) value = argv[++i];
      if (!value || value->empty()) {
        usage_error(cmd, "missing value for '" + std::string(flag->name) + "'");
      }
    }
    const std::string_view v = value.value_or("");
    if (!flag->apply(v)) {
      std::fprintf(stderr, "%s: %.*s expects %s, got '%.*s'\n", cmd.prog,
                   static_cast<int>(flag->name.size()), flag->name.data(),
                   flag->expects.c_str(), static_cast<int>(v.size()), v.data());
      std::exit(2);
    }
    seen.push_back(flag->name);
  }
  return seen;
}

}  // namespace safara::driver

// safcc-fuzz: differential fuzzing front door.
//
//   safcc-fuzz --seed 1 --count 500                 # all oracles
//   safcc-fuzz --oracle ref-vs-sim --count 100      # one oracle pair
//   safcc-fuzz --corpus-dir tests/corpus --count 0  # corpus only
//   safcc-fuzz --seed 7 --count 1 --inject-miscompile --reduce
//                                                   # harness self-test
//   safcc-fuzz --emit-seed 42                       # print one program
//
// Exit codes: 0 all oracles agreed; 1 divergences found; 2 usage error.
// --json FILE writes the full report (including reduced reproducers) for CI
// to archive.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "fuzz/fuzz.hpp"
#include "fuzz/generator.hpp"
#include "support/string_util.hpp"

using namespace safara;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: safcc-fuzz [--seed N] [--count N] [--oracle NAME|all]...\n"
               "                  [--corpus-dir DIR] [--reduce] [--inject-miscompile]\n"
               "                  [--json FILE] [--emit-seed N]\n"
               "oracles: roundtrip ref-vs-sim safara-on-off dispatch threads "
               "opt-vs-noopt linear-vs-color spillmem-local-vs-shared\n");
}

long long parse_int_flag(const char* flag, const char* value) {
  const std::optional<long long> v = parse_int_strict(value);
  if (!v) {
    std::fprintf(stderr, "safcc-fuzz: %s expects an integer, got '%s'\n", flag, value);
    std::exit(2);
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  fuzz::FuzzOptions opts;
  opts.count = 100;
  std::string json_out;
  bool emit_only = false;
  std::uint64_t emit_seed = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "safcc-fuzz: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      opts.seed = static_cast<std::uint64_t>(parse_int_flag("--seed", value()));
    } else if (arg == "--count") {
      opts.count = static_cast<int>(parse_int_flag("--count", value()));
    } else if (arg == "--oracle") {
      const char* name = value();
      if (std::strcmp(name, "all") == 0) {
        opts.oracles.clear();
      } else {
        fuzz::Oracle o;
        if (!fuzz::parse_oracle(name, o)) {
          std::fprintf(stderr, "safcc-fuzz: unknown oracle '%s'\n", name);
          usage();
          return 2;
        }
        opts.oracles.push_back(o);
      }
    } else if (arg == "--corpus-dir") {
      opts.corpus_dir = value();
    } else if (arg == "--reduce") {
      opts.reduce = true;
    } else if (arg == "--inject-miscompile") {
      opts.inject_miscompile = true;
    } else if (arg == "--json") {
      json_out = value();
    } else if (arg == "--emit-seed") {
      emit_only = true;
      emit_seed = static_cast<std::uint64_t>(parse_int_flag("--emit-seed", value()));
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "safcc-fuzz: unknown flag '%s'\n", arg.c_str());
      usage();
      return 2;
    }
  }

  if (emit_only) {
    std::fputs(fuzz::generate_program(emit_seed).c_str(), stdout);
    return 0;
  }

  fuzz::FuzzReport report = fuzz::run_fuzz(opts);

  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::fprintf(stderr, "safcc-fuzz: cannot write '%s'\n", json_out.c_str());
      return 2;
    }
    out << report.to_json().dump(2) << '\n';
  }

  std::printf("safcc-fuzz: %d program(s), %d oracle run(s), %zu divergence(s)\n",
              report.programs, report.oracle_runs, report.divergences.size());
  for (const fuzz::Divergence& d : report.divergences) {
    std::printf("\n== %s [%s: %s] ==\n%s\n", d.id.c_str(), to_string(d.oracle),
                to_string(d.status), d.detail.c_str());
    const std::string& repro = d.reduced.empty() ? d.source : d.reduced;
    std::printf("---- %s ----\n%s", d.reduced.empty() ? "source" : "reduced",
                repro.c_str());
  }
  return report.ok() ? 0 : 1;
}

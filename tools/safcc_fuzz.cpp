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
#include <algorithm>
#include <climits>
#include <cstdio>
#include <fstream>
#include <string>

#include "driver/run_options.hpp"
#include "fuzz/fuzz.hpp"
#include "fuzz/generator.hpp"

using namespace safara;

int main(int argc, char** argv) {
  fuzz::FuzzOptions opts;
  opts.count = 100;
  std::string json_out;
  std::uint64_t emit_seed = 0;

  std::string oracles = "one of 'all'";
  for (fuzz::Oracle o : fuzz::all_oracles()) {
    oracles += ", ";
    oracles += fuzz::to_string(o);
  }
  const driver::Command cmd{
      .prog = "safcc-fuzz",
      .synopsis = "[flags]",
      .flags = {
          driver::int_flag("--seed", opts.seed, 0, LLONG_MAX),
          driver::int_flag("--count", opts.count, 0, INT_MAX),
          {"--oracle", oracles,
           [&opts](std::string_view name) {
             if (name == "all") {
               opts.oracles.clear();
               return true;
             }
             fuzz::Oracle o{};
             if (!fuzz::parse_oracle(name, o)) return false;
             opts.oracles.push_back(o);
             return true;
           }},
          driver::text_flag("--corpus-dir", "a directory", opts.corpus_dir),
          driver::switch_flag("--reduce", opts.reduce),
          driver::switch_flag("--inject-miscompile", opts.inject_miscompile),
          driver::text_flag("--json", "a file name", json_out),
          driver::int_flag("--emit-seed", emit_seed, 0, LLONG_MAX),
      },
      .operand = nullptr,
      .epilogue = "",
  };
  const std::vector<std::string_view> seen = driver::parse_flags(cmd, argc, argv);
  const bool emit_only = std::find(seen.begin(), seen.end(), "--emit-seed") != seen.end();

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

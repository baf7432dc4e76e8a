// Figure 7: SPEC ACCEL speedups with SAFARA **alone** (no dim/small).
//
// The paper's point: aggressive scalar replacement without the clauses gives
// small wins on most benchmarks but can *slow down* register-hungry
// applications (355.seismic) by crushing occupancy.
#include "bench_common.hpp"

namespace safara::bench {
namespace {

void run(const driver::RunOptions& flags) {
  TablePrinter table({"Benchmark", "base cyc", "SAFARA cyc", "speedup", "regs b->s",
                      "occ b->s"},
                     14);
  table.print_header("Figure 7: SPEC speedup with SAFARA only (vs OpenUH base)");
  const std::vector<NamedConfig> configs = {
      {"base", driver::CompilerOptions::openuh_base(flags.compiler)},
      {"safara", driver::CompilerOptions::openuh_safara(flags.compiler)},
  };
  const std::vector<const workloads::Workload*> ws = workloads::spec_suite();
  auto grid = run_grid(ws, configs, flags.sim);
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const workloads::Workload* w = ws[i];
    const workloads::RunResult& base = grid[i].at("base");
    const workloads::RunResult& saf = grid[i].at("safara");
    double speedup = double(base.cycles) / double(saf.cycles);
    table.print_row({w->name, std::to_string(base.cycles), std::to_string(saf.cycles),
                     fmt(speedup),
                     std::to_string(base.max_regs) + "->" + std::to_string(saf.max_regs),
                     fmt(base.min_occupancy, 2) + "->" + fmt(saf.min_occupancy, 2)});
    register_counters("fig07/" + w->name, {{"speedup", speedup},
                                           {"base_cycles", double(base.cycles)},
                                           {"safara_cycles", double(saf.cycles)},
                                           {"base_regs", double(base.max_regs)},
                                           {"safara_regs", double(saf.max_regs)}});
  }
}

}  // namespace
}  // namespace safara::bench

int main(int argc, char** argv) {
  return safara::bench::bench_main(argc, argv, "fig07_spec_safara_only", safara::bench::run);
}

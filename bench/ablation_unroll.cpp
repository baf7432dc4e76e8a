// Extension ablation (the paper's future work, Section VII): combining loop
// unrolling with SAFARA. Unrolling the sequential sweep multiplies the reuse
// visible to scalar replacement, but each unrolled copy also holds more live
// scalars — the same register/occupancy tension as everywhere else.
#include "bench_common.hpp"

namespace safara::bench {
namespace {

void run(const driver::RunOptions& flags) {
  const workloads::Workload* w = workloads::find_workload("355.seismic");

  std::vector<NamedConfig> rows;
  rows.push_back({"small+dim", driver::CompilerOptions::openuh_small_dim(flags.compiler)});
  rows.push_back(
      {"small+dim+SAFARA", driver::CompilerOptions::openuh_safara_clauses(flags.compiler)});
  for (int factor : {2, 4}) {
    driver::CompilerOptions o = driver::CompilerOptions::openuh_safara_clauses(flags.compiler);
    o.enable_unroll = true;
    o.unroll.factor = factor;
    rows.push_back({"  + unroll x" + std::to_string(factor), o});
  }
  auto grid = run_grid(*w, rows, flags.sim);

  TablePrinter table({"config", "cycles", "speedup", "regs", "occupancy", "loads"}, 16);
  table.print_header("Unroll ablation on 355.seismic (baseline: small+dim)");
  std::uint64_t base_cycles = 0;
  for (const NamedConfig& row : rows) {
    const workloads::RunResult& r = grid.at(row.name);
    if (base_cycles == 0) base_cycles = r.cycles;
    double speedup = double(base_cycles) / double(r.cycles);
    table.print_row({row.name, std::to_string(r.cycles), fmt(speedup),
                     std::to_string(r.max_regs), fmt(r.min_occupancy, 2),
                     std::to_string(r.global_loads)});
    register_counters(std::string("ablation_unroll/") + row.name,
                      {{"cycles", double(r.cycles)},
                       {"speedup", speedup},
                       {"regs", double(r.max_regs)},
                       {"loads", double(r.global_loads)}});
  }
}

}  // namespace
}  // namespace safara::bench

int main(int argc, char** argv) {
  return safara::bench::bench_main(argc, argv, "ablation_unroll", safara::bench::run);
}

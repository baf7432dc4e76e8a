// Figure 9: SPEC ACCEL speedups with the proposed clauses, applied
// cumulatively: small, then small+dim, then small+dim+SAFARA (all vs the
// OpenUH base compiler). The paper's headline: with the clauses first,
// SAFARA no longer slows anything down (355.seismic recovers) and the
// overall speedup reaches ~2x.
#include "bench_common.hpp"

namespace safara::bench {
namespace {

void run(const driver::RunOptions& flags) {
  TablePrinter table({"Benchmark", "small", "small+dim", "s+d+SAFARA", "regs base",
                      "regs s+d+S"},
                     14);
  table.print_header("Figure 9: SPEC speedups: small / small+dim / small+dim+SAFARA");
  const std::vector<NamedConfig> configs = {
      {"base", driver::CompilerOptions::openuh_base(flags.compiler)},
      {"small", driver::CompilerOptions::openuh_small(flags.compiler)},
      {"small_dim", driver::CompilerOptions::openuh_small_dim(flags.compiler)},
      {"small_dim_safara", driver::CompilerOptions::openuh_safara_clauses(flags.compiler)},
  };
  const std::vector<const workloads::Workload*> ws = workloads::spec_suite();
  auto grid = run_grid(ws, configs, flags.sim);
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const workloads::Workload* w = ws[i];
    const auto& base = grid[i].at("base");
    const auto& small = grid[i].at("small");
    const auto& dim = grid[i].at("small_dim");
    const auto& all = grid[i].at("small_dim_safara");
    double s1 = double(base.cycles) / double(small.cycles);
    double s2 = double(base.cycles) / double(dim.cycles);
    double s3 = double(base.cycles) / double(all.cycles);
    table.print_row({w->name, fmt(s1), fmt(s2), fmt(s3), std::to_string(base.max_regs),
                     std::to_string(all.max_regs)});
    register_counters("fig09/" + w->name,
                      {{"small", s1}, {"small_dim", s2}, {"small_dim_safara", s3}});
  }
}

}  // namespace
}  // namespace safara::bench

int main(int argc, char** argv) {
  return safara::bench::bench_main(argc, argv, "fig09_spec_clauses", safara::bench::run);
}

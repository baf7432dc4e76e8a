// Figure 10: NAS (NPB-ACC) speedups for small / SAFARA / SAFARA+small vs the
// OpenUH base. The NAS codes have no allocatable arrays, so `dim` is not
// useful; the paper found only BT profiting from `small` among LU/SP/BT.
#include "bench_common.hpp"

namespace safara::bench {
namespace {

void run(const driver::RunOptions& flags) {
  TablePrinter table({"Benchmark", "small", "SAFARA", "SAFARA+small", "regs base"},
                     14);
  table.print_header("Figure 10: NAS speedups: small / SAFARA / SAFARA+small");
  driver::CompilerOptions saf_small = driver::CompilerOptions::openuh_safara(flags.compiler);
  saf_small.honor_small = true;
  const std::vector<NamedConfig> configs = {
      {"base", driver::CompilerOptions::openuh_base(flags.compiler)},
      {"small", driver::CompilerOptions::openuh_small(flags.compiler)},
      {"safara", driver::CompilerOptions::openuh_safara(flags.compiler)},
      {"safara_small", saf_small},
  };
  const std::vector<const workloads::Workload*> ws = workloads::nas_suite();
  auto grid = run_grid(ws, configs, flags.sim);
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const workloads::Workload* w = ws[i];
    const auto& base = grid[i].at("base");
    const auto& small = grid[i].at("small");
    const auto& saf = grid[i].at("safara");
    const auto& both = grid[i].at("safara_small");
    double s1 = double(base.cycles) / double(small.cycles);
    double s2 = double(base.cycles) / double(saf.cycles);
    double s3 = double(base.cycles) / double(both.cycles);
    table.print_row({w->name, fmt(s1), fmt(s2), fmt(s3), std::to_string(base.max_regs)});
    register_counters("fig10/" + w->name,
                      {{"small", s1}, {"safara", s2}, {"safara_small", s3}});
  }
}

}  // namespace
}  // namespace safara::bench

int main(int argc, char** argv) {
  return safara::bench::bench_main(argc, argv, "fig10_nas_clauses", safara::bench::run);
}

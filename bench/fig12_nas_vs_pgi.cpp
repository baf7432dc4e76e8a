// Figure 12: NAS normalized execution time, OpenUH (base / SAFARA /
// SAFARA+small) vs the PGI-like persona. Lower is better.
#include <algorithm>

#include "bench_common.hpp"

namespace safara::bench {
namespace {

void run(const driver::RunOptions& flags) {
  TablePrinter table({"Benchmark", "OpenUH", "OpenUH+SAF", "OpenUH+S+cls", "PGI"}, 14);
  table.print_header(
      "Figure 12: NAS normalized time (lower is better), OpenUH vs PGI-like");
  driver::CompilerOptions saf_small = driver::CompilerOptions::openuh_safara(flags.compiler);
  saf_small.honor_small = true;
  const std::vector<NamedConfig> configs = {
      {"openuh_base", driver::CompilerOptions::openuh_base(flags.compiler)},
      {"openuh_safara", driver::CompilerOptions::openuh_safara(flags.compiler)},
      {"openuh_safara_small", saf_small},
      {"pgi", driver::CompilerOptions::pgi_like(flags.compiler)},
  };
  const std::vector<const workloads::Workload*> ws = workloads::nas_suite();
  auto grid = run_grid(ws, configs, flags.sim);
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const workloads::Workload* w = ws[i];
    const auto& base = grid[i].at("openuh_base");
    const auto& saf = grid[i].at("openuh_safara");
    const auto& cls = grid[i].at("openuh_safara_small");
    const auto& pgi = grid[i].at("pgi");
    double denom = double(std::max(base.cycles, pgi.cycles));
    double n_base = double(base.cycles) / denom;
    double n_saf = double(saf.cycles) / denom;
    double n_cls = double(cls.cycles) / denom;
    double n_pgi = double(pgi.cycles) / denom;
    table.print_row({w->name, fmt(n_base), fmt(n_saf), fmt(n_cls), fmt(n_pgi)});
    std::map<std::string, double> counters = {{"openuh_base", n_base},
                                              {"openuh_safara", n_saf},
                                              {"openuh_safara_small", n_cls},
                                              {"pgi", n_pgi}};
    add_timings(counters, "openuh_base", base);
    add_timings(counters, "openuh_safara", saf);
    add_timings(counters, "openuh_safara_small", cls);
    add_timings(counters, "pgi", pgi);
    add_register_counters(counters, "openuh_base", base);
    add_register_counters(counters, "openuh_safara", saf);
    add_register_counters(counters, "openuh_safara_small", cls);
    add_register_counters(counters, "pgi", pgi);
    register_counters("fig12/" + w->name, counters);
  }
}

}  // namespace
}  // namespace safara::bench

int main(int argc, char** argv) {
  return safara::bench::bench_main(argc, argv, "fig12_nas_vs_pgi", safara::bench::run);
}

// Table I: 355.seismic register usage per hot kernel under
// Base / +small / w dim (small+dim) / Saved.
//
// The paper reports, for the 7 hottest seismic kernels, how many hardware
// registers ptxas assigns at base, with the small clause, and with small+dim
// — large reductions wherever several same-shape allocatable arrays appear
// in one kernel.
#include "bench_common.hpp"

namespace safara::bench {
namespace {

void run(const driver::RunOptions& flags) {
  const workloads::Workload* w = workloads::find_workload("355.seismic");
  driver::Compiler base(driver::CompilerOptions::openuh_base(flags.compiler));
  driver::Compiler small(driver::CompilerOptions::openuh_small(flags.compiler));
  driver::Compiler small_dim(driver::CompilerOptions::openuh_small_dim(flags.compiler));

  auto p_base = base.compile(w->source, w->function);
  auto p_small = small.compile(w->source, w->function);
  auto p_dim = small_dim.compile(w->source, w->function);

  TablePrinter table({"Kernels", "Base", "+small", "w dim", "Saved"}, 10);
  table.print_header("Table I: 355.seismic register usage via small and dim");
  for (std::size_t k = 0; k < p_base.kernels.size(); ++k) {
    int b = p_base.kernels[k].alloc.regs_used;
    int s = p_small.kernels[k].alloc.regs_used;
    int d = p_dim.kernels[k].alloc.regs_used;
    table.print_row({"HOT" + std::to_string(k + 1), std::to_string(b),
                     std::to_string(s), std::to_string(d), std::to_string(b - d)});
    register_counters("table1/HOT" + std::to_string(k + 1),
                      {{"base_regs", double(b)},
                       {"small_regs", double(s)},
                       {"dim_regs", double(d)},
                       {"saved", double(b - d)}});
  }
  std::printf("\nptxas feedback lines (base):\n");
  for (const auto& k : p_base.kernels) std::printf("  %s\n", k.ptxas_info().c_str());
}

}  // namespace
}  // namespace safara::bench

int main(int argc, char** argv) {
  return safara::bench::bench_main(argc, argv, "table1_seismic_regs", safara::bench::run);
}

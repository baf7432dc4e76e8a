// Table II: 356.sp register usage per hot kernel under Base / +small /
// w dim / Saved. Kernels whose directive carries no dim clause (single
// allocatable array, or arrays of unequal shape) print NA in the dim column,
// exactly as in the paper.
#include "bench_common.hpp"
#include "parse/parser.hpp"
#include "sema/sema.hpp"

namespace safara::bench {
namespace {

/// Which regions of the workload's entry function carry a dim clause.
std::vector<bool> regions_with_dim(const workloads::Workload& w) {
  DiagnosticEngine diags;
  ast::Program program = parse::parse_source(w.source, diags);
  ast::Function* fn = program.find(w.function);
  sema::Sema sema(diags);
  auto info = sema.analyze(*fn);
  std::vector<bool> has_dim;
  for (const sema::OffloadRegion& region : info->regions) {
    has_dim.push_back(region.loop->directive &&
                      !region.loop->directive->dim_groups.empty());
  }
  return has_dim;
}

void run(const driver::RunOptions& flags) {
  const workloads::Workload* w = workloads::find_workload("356.sp");
  driver::Compiler base(driver::CompilerOptions::openuh_base(flags.compiler));
  driver::Compiler small(driver::CompilerOptions::openuh_small(flags.compiler));
  driver::Compiler small_dim(driver::CompilerOptions::openuh_small_dim(flags.compiler));

  auto p_base = base.compile(w->source, w->function);
  auto p_small = small.compile(w->source, w->function);
  auto p_dim = small_dim.compile(w->source, w->function);
  std::vector<bool> has_dim = regions_with_dim(*w);

  TablePrinter table({"Kernels", "Base", "+small", "w dim", "Saved"}, 10);
  table.print_header("Table II: 356.sp register usage via small and dim");
  for (std::size_t k = 0; k < p_base.kernels.size(); ++k) {
    int b = p_base.kernels[k].alloc.regs_used;
    int s = p_small.kernels[k].alloc.regs_used;
    int d = p_dim.kernels[k].alloc.regs_used;
    bool na = !has_dim[k];
    // With no dim clause the best achievable is the +small number.
    int final_regs = na ? s : d;
    table.print_row({"HOT" + std::to_string(k + 1), std::to_string(b),
                     std::to_string(s), na ? "NA" : std::to_string(d),
                     std::to_string(b - final_regs)});
    register_counters("table2/HOT" + std::to_string(k + 1),
                      {{"base_regs", double(b)},
                       {"small_regs", double(s)},
                       {"dim_regs", double(na ? s : d)},
                       {"saved", double(b - final_regs)}});
  }
}

}  // namespace
}  // namespace safara::bench

int main(int argc, char** argv) {
  return safara::bench::bench_main(argc, argv, "table2_sp_regs", safara::bench::run);
}

// Ablation (Section III-B.3): SAFARA's latency-aware cost model (L x C)
// versus the Carr-Kennedy reference-count metric, under a tight register
// budget that forces a choice between candidates.
//
// The kernel has two carried reuse groups: a COALESCED group with more
// references and an UNCOALESCED group with fewer. Count-only selection takes
// the bigger (cheap) group; L x C correctly prefers the expensive scattered
// accesses.
#include "bench_common.hpp"

namespace safara::bench {
namespace {

const char* kSource = R"(
void mix(int n, int m, const float c[?][?], const float u[?][?], float out[?][?]) {
  #pragma acc parallel loop gang vector(64) small(c, u, out) dim((0:n, 0:m)(c, out))
  for (i = 1; i < n - 1; i++) {
    #pragma acc loop seq
    for (k = 2; k < m - 2; k++) {
      out[k][i] = out[k][i]
                + 0.20f * (c[k][i] + c[k-1][i] + c[k-2][i] + c[k+1][i])
                + 0.25f * (u[i][k] + u[i][k-1] + u[i][k+1]);
    }
  }
}
)";

workloads::Workload make_microbench() {
  workloads::Workload w;
  w.name = "costmodel.mix";
  w.suite = "micro";
  w.function = "mix";
  w.outputs = {"out"};
  w.source = kSource;
  const int n = 8192, m = 64;
  w.make_dataset = [=] {
    workloads::Dataset d;
    d.arrays.emplace("c", driver::HostArray::make(ast::ScalarType::kF32,
                                                  {{0, m}, {0, n}}));
    d.arrays.emplace("u", driver::HostArray::make(ast::ScalarType::kF32,
                                                  {{0, n}, {0, m}}));
    d.arrays.emplace("out", driver::HostArray::make(ast::ScalarType::kF32,
                                                    {{0, m}, {0, n}}));
    workloads::fill(d.arrays.at("c"), 91);
    workloads::fill(d.arrays.at("u"), 92);
    workloads::fill(d.arrays.at("out"), 93);
    d.scalars.emplace("n", rt::ScalarValue::of_i32(n));
    d.scalars.emplace("m", rt::ScalarValue::of_i32(m));
    return d;
  };
  return w;
}

void run(const driver::RunOptions& flags) {
  workloads::Workload w = make_microbench();

  // Find the base register count, then grant a budget with room for only one
  // of the two groups (the coalesced one needs 4 scalars, the uncoalesced 3).
  driver::Compiler probe(driver::CompilerOptions::openuh_base(flags.compiler));
  auto base_prog = probe.compile(w.source, w.function);
  const int base_regs = base_prog.kernels[0].alloc.regs_used;
  const int budget = base_regs + 4;

  driver::CompilerOptions with_model = driver::CompilerOptions::openuh_safara(flags.compiler);
  with_model.safara.max_registers = budget;
  with_model.safara.use_cost_model = true;

  driver::CompilerOptions count_only = with_model;
  count_only.safara.use_cost_model = false;

  auto grid = run_grid(w,
                       {{"base", driver::CompilerOptions::openuh_base(flags.compiler)},
                        {"lxc", with_model},
                        {"count", count_only}},
                       flags.sim);
  const workloads::RunResult& base = grid.at("base");
  const workloads::RunResult& lxc = grid.at("lxc");
  const workloads::RunResult& cnt = grid.at("count");

  TablePrinter table({"Selection", "cycles", "speedup", "loads"}, 16);
  table.print_header("Cost-model ablation: L x C vs reference-count selection");
  table.print_row({"base (no SR)", std::to_string(base.cycles), "1.00",
                   std::to_string(base.global_loads)});
  table.print_row({"count only", std::to_string(cnt.cycles),
                   fmt(double(base.cycles) / double(cnt.cycles)),
                   std::to_string(cnt.global_loads)});
  table.print_row({"L x C (SAFARA)", std::to_string(lxc.cycles),
                   fmt(double(base.cycles) / double(lxc.cycles)),
                   std::to_string(lxc.global_loads)});
  std::printf("\nregister budget: %d (base uses %d)\n", budget, base_regs);

  register_counters("ablation_costmodel/mix",
                    {{"base_cycles", double(base.cycles)},
                     {"count_cycles", double(cnt.cycles)},
                     {"lxc_cycles", double(lxc.cycles)},
                     {"lxc_speedup", double(base.cycles) / double(lxc.cycles)},
                     {"count_speedup", double(base.cycles) / double(cnt.cycles)}});
}

}  // namespace
}  // namespace safara::bench

int main(int argc, char** argv) {
  return safara::bench::bench_main(argc, argv, "ablation_costmodel", safara::bench::run);
}

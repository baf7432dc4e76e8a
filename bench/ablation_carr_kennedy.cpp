// Ablation (Fig. 3/4 of the paper): what happens when the classical
// Carr-Kennedy algorithm performs inter-iteration scalar replacement across
// a *parallelized* loop. The rotating scalars create loop-carried
// dependences, the loop must be serialized, and the kernel collapses to
// gang-only parallelism. SAFARA's intra-only rule on parallel loops avoids
// this.
#include "bench_common.hpp"

namespace safara::bench {
namespace {

const char* kSource = R"(
void smooth(int n, int m, const float b[n][m], float a[n][m]) {
  #pragma acc parallel loop gang
  for (j = 0; j < n; j++) {
    #pragma acc loop vector(128)
    for (i = 1; i < m - 1; i++) {
      a[j][i] = (b[j][i] + b[j][i+1]) / 2.0f;
    }
  }
}
)";

workloads::Workload make_microbench() {
  workloads::Workload w;
  w.name = "fig3.smooth";
  w.suite = "micro";
  w.function = "smooth";
  w.outputs = {"a"};
  w.source = kSource;
  const int n = 256, m = 256;
  w.make_dataset = [=] {
    workloads::Dataset d;
    d.arrays.emplace("b", driver::HostArray::make(ast::ScalarType::kF32,
                                                  {{0, n}, {0, m}}));
    d.arrays.emplace("a", driver::HostArray::make(ast::ScalarType::kF32,
                                                  {{0, n}, {0, m}}));
    workloads::fill(d.arrays.at("b"), 34);
    d.scalars.emplace("n", rt::ScalarValue::of_i32(n));
    d.scalars.emplace("m", rt::ScalarValue::of_i32(m));
    return d;
  };
  return w;
}

void run(const driver::RunOptions& flags) {
  workloads::Workload w = make_microbench();

  driver::CompilerOptions ck = driver::CompilerOptions::openuh_base(flags.compiler);
  ck.enable_carr_kennedy = true;

  auto grid = run_grid(w,
                       {{"base", driver::CompilerOptions::openuh_base(flags.compiler)},
                        {"ck", ck},
                        {"safara", driver::CompilerOptions::openuh_safara(flags.compiler)}},
                       flags.sim);
  const workloads::RunResult& base = grid.at("base");
  const workloads::RunResult& ck_res = grid.at("ck");
  const workloads::RunResult& saf = grid.at("safara");

  // Count the serialized loops via the compiler report.
  driver::Compiler ck_compiler(ck);
  auto prog = ck_compiler.compile(w.source, w.function);

  TablePrinter table({"Config", "cycles", "vs base", "loops seq'd"}, 16);
  table.print_header("Fig 3/4 ablation: Carr-Kennedy SR on a parallel loop");
  table.print_row({"base", std::to_string(base.cycles), "1.00", "0"});
  table.print_row({"Carr-Kennedy", std::to_string(ck_res.cycles),
                   fmt(double(base.cycles) / double(ck_res.cycles)),
                   std::to_string(prog.carr_kennedy.loops_sequentialized)});
  table.print_row({"SAFARA", std::to_string(saf.cycles),
                   fmt(double(base.cycles) / double(saf.cycles)), "0"});

  register_counters("ablation_ck/smooth",
                    {{"base_cycles", double(base.cycles)},
                     {"ck_cycles", double(ck_res.cycles)},
                     {"safara_cycles", double(saf.cycles)},
                     {"ck_slowdown", double(ck_res.cycles) / double(base.cycles)},
                     {"loops_sequentialized",
                      double(prog.carr_kennedy.loops_sequentialized)}});
}

}  // namespace
}  // namespace safara::bench

int main(int argc, char** argv) {
  return safara::bench::bench_main(argc, argv, "ablation_carr_kennedy", safara::bench::run);
}

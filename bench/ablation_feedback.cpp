// Ablation (Section III-B.2): the iterative static-feedback loop.
//
// SAFARA estimates each group's register cost conservatively; the backend
// allocator usually does better (it reuses registers across short-lived
// chains). Re-invoking the assembler after each replacement round discovers
// the real budget headroom, so more iterations convert more of the register
// file into replaced references. A one-shot pass leaves budget on the table.
#include "bench_common.hpp"

namespace safara::bench {
namespace {

// Four distance-1 reuse groups along the innermost k sweep, plus three
// loop-invariant gathers (q0..q2) that take one hoisting level per feedback
// iteration: out of k first, then out of l -- only a second compile-replace
// round can see the second opportunity.
const char* kSource = R"(
void manygroups(int n, int m,
                const float a0[?][?], const float a1[?][?], const float a2[?][?],
                const float a3[?][?],
                const float q0[?], const float q1[?], const float q2[?],
                float out[?][?]) {
  #pragma acc parallel loop gang vector(64) small(a0, a1, a2, a3, q0, q1, q2, out) dim((0:m, 0:n)(a0, a1, a2, a3, out))
  for (i = 0; i < n; i++) {
    #pragma acc loop seq
    for (l = 0; l < 4; l++) {
      #pragma acc loop seq
      for (k = 1; k < m; k++) {
        out[k][i] = out[k][i] + 0.25f * ((a0[k][i] - a0[k-1][i]) + (a1[k][i] - a1[k-1][i])
                  + (a2[k][i] - a2[k-1][i]) + (a3[k][i] - a3[k-1][i]))
                  + 0.1f * (q0[i] + q1[i] + q2[i]);
      }
    }
  }
}
)";

workloads::Workload make_microbench() {
  workloads::Workload w;
  w.name = "feedback.manygroups";
  w.suite = "micro";
  w.function = "manygroups";
  w.outputs = {"out"};
  w.source = kSource;
  const int n = 4096, m = 48;
  w.make_dataset = [=] {
    workloads::Dataset d;
    int seed = 61;
    for (const char* name : {"a0", "a1", "a2", "a3", "out"}) {
      d.arrays.emplace(name, driver::HostArray::make(ast::ScalarType::kF32,
                                                     {{0, m}, {0, n}}));
      workloads::fill(d.arrays.at(name), static_cast<std::uint64_t>(seed++));
    }
    for (const char* name : {"q0", "q1", "q2"}) {
      d.arrays.emplace(name, driver::HostArray::make(ast::ScalarType::kF32, {{0, n}}));
      workloads::fill(d.arrays.at(name), static_cast<std::uint64_t>(seed++));
    }
    d.scalars.emplace("n", rt::ScalarValue::of_i32(n));
    d.scalars.emplace("m", rt::ScalarValue::of_i32(m));
    return d;
  };
  return w;
}

void run(const driver::RunOptions& flags) {
  workloads::Workload w = make_microbench();

  // Baseline with the clauses already applied, so the sweep isolates the
  // feedback loop itself.
  driver::Compiler probe(driver::CompilerOptions::openuh_small_dim(flags.compiler));
  auto base_prog = probe.compile(w.source, w.function);
  const int base_regs = base_prog.kernels[0].alloc.regs_used;
  const int budget = base_regs + 20;  // generous: iterations limited by visibility, not budget

  std::vector<NamedConfig> configs = {
      {"base", driver::CompilerOptions::openuh_small_dim(flags.compiler)}};
  for (int iters : {1, 2, 4, 8}) {
    driver::CompilerOptions opts = driver::CompilerOptions::openuh_safara_clauses(flags.compiler);
    opts.safara.max_registers = budget;
    opts.safara.max_iterations = iters;
    configs.push_back({"iters" + std::to_string(iters), opts});
  }
  auto grid = run_grid(w, configs, flags.sim);
  const workloads::RunResult& base = grid.at("base");

  TablePrinter table({"max iters", "groups", "final regs", "cycles", "speedup"}, 14);
  table.print_header("Feedback ablation: SAFARA iterations under a tight budget");
  table.print_row({"0 (base)", "0", std::to_string(base_regs),
                   std::to_string(base.cycles), "1.00"});

  for (int iters : {1, 2, 4, 8}) {
    driver::CompilerOptions opts = driver::CompilerOptions::openuh_safara_clauses(flags.compiler);
    opts.safara.max_registers = budget;
    opts.safara.max_iterations = iters;
    const workloads::RunResult& res = grid.at("iters" + std::to_string(iters));

    driver::Compiler compiler(opts);
    auto prog = compiler.compile(w.source, w.function);

    double speedup = double(base.cycles) / double(res.cycles);
    table.print_row({std::to_string(iters), std::to_string(prog.safara.total_groups()),
                     std::to_string(prog.kernels[0].alloc.regs_used),
                     std::to_string(res.cycles), fmt(speedup)});
    register_counters("ablation_feedback/iters" + std::to_string(iters),
                      {{"groups", double(prog.safara.total_groups())},
                       {"regs", double(prog.kernels[0].alloc.regs_used)},
                       {"speedup", speedup}});
  }

  // Show the feedback trace of the full run, as the pass reports it.
  driver::CompilerOptions opts = driver::CompilerOptions::openuh_safara_clauses(flags.compiler);
  opts.safara.max_registers = budget;
  driver::Compiler compiler(opts);
  auto prog = compiler.compile(w.source, w.function);
  if (!prog.safara.regions.empty()) {
    std::printf("\nfeedback trace (budget %d):\n", budget);
    for (const std::string& line : prog.safara.regions[0].log) {
      std::printf("  %s\n", line.c_str());
    }
  }
}

}  // namespace
}  // namespace safara::bench

int main(int argc, char** argv) {
  return safara::bench::bench_main(argc, argv, "ablation_feedback", safara::bench::run);
}

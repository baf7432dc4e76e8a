// Occupancy/registers tradeoff sweep (Section II-B context; Volkov's "better
// performance at lower occupancy" tension the paper cites): compile one
// register-hungry kernel under decreasing per-thread register limits and
// watch spilling trade against occupancy on the simulator.
#include "bench_common.hpp"

namespace safara::bench {
namespace {

// A single-kernel cut of 355.seismic's HOT4 (the fattest kernel).
const char* kSource = R"(
void hot4(int nx, int ny, int nz, float h, float dt,
          const float vx[?][?][?], const float vy[?][?][?], const float vz[?][?][?],
          float sxx[?][?][?], float syy[?][?][?], float szz[?][?][?]) {
  #pragma acc parallel loop gang(ny/4) vector(4)
  for (j = 1; j < ny - 1; j++) {
    #pragma acc loop gang((nx+63)/64) vector(64)
    for (i = 1; i < nx - 1; i++) {
      #pragma acc loop seq
      for (k = 1; k < nz - 1; k++) {
        float dvx = (vx[k][j][i] - vx[k-1][j][i]) / h;
        float dvy = (vy[k][j][i] - vy[k][j-1][i]) / h;
        float dvz = (vz[k][j][i] - vz[k][j][i-1]) / h;
        sxx[k][j][i] = sxx[k][j][i] + dt * (2.0f * dvx + 0.5f * (dvy + dvz));
        syy[k][j][i] = syy[k][j][i] + dt * (2.0f * dvy + 0.5f * (dvx + dvz));
        szz[k][j][i] = szz[k][j][i] + dt * (2.0f * dvz + 0.5f * (dvx + dvy));
      }
    }
  }
}
)";

workloads::Workload make_microbench() {
  workloads::Workload w;
  w.name = "occ.hot4";
  w.suite = "micro";
  w.function = "hot4";
  w.outputs = {"sxx", "syy", "szz"};
  w.source = kSource;
  const int nx = 128, ny = 64, nz = 16;
  w.make_dataset = [=] {
    workloads::Dataset d;
    int seed = 99;
    for (const char* name : {"vx", "vy", "vz", "sxx", "syy", "szz"}) {
      d.arrays.emplace(name, driver::HostArray::make(ast::ScalarType::kF32,
                                                     {{0, nz}, {0, ny}, {0, nx}}));
      workloads::fill(d.arrays.at(name), static_cast<std::uint64_t>(seed++), -0.5, 0.5);
    }
    d.scalars.emplace("nx", rt::ScalarValue::of_i32(nx));
    d.scalars.emplace("ny", rt::ScalarValue::of_i32(ny));
    d.scalars.emplace("nz", rt::ScalarValue::of_i32(nz));
    d.scalars.emplace("h", rt::ScalarValue::of_f32(0.25f));
    d.scalars.emplace("dt", rt::ScalarValue::of_f32(0.01f));
    return d;
  };
  return w;
}

void run(const driver::RunOptions& flags) {
  workloads::Workload w = make_microbench();

  // The regs x spill-mem frontier: every register limit under both spill
  // backing stores. `local` is the pre-RegDem behaviour; `auto` lets RegDem
  // demote the hottest slots to shared memory while occupancy holds, so the
  // two series bracket what a spill's backing store is worth at each
  // pressure point.
  const std::vector<int> limits = {255, 168, 128, 96, 64, 48, 32, 24};
  const std::vector<regalloc::SpillMem> mems = {regalloc::SpillMem::kLocal,
                                                regalloc::SpillMem::kAuto};

  TablePrinter table({"reg limit", "spill mem", "regs used", "spill B", "shared B",
                      "occupancy", "cycles"},
                     12);
  table.print_header(
      "Occupancy sweep: register limit x spill memory vs performance");
  std::vector<NamedConfig> configs;
  for (int limit : limits) {
    for (regalloc::SpillMem mem : mems) {
      driver::CompilerOptions opts = driver::CompilerOptions::openuh_base(flags.compiler);
      opts.regalloc.max_registers = limit;
      opts.regalloc.spill_mem = mem;
      configs.push_back({"limit" + std::to_string(limit) + "/" +
                             regalloc::to_string(mem),
                         opts});
    }
  }
  auto grid = run_grid(w, configs, flags.sim);
  for (int limit : limits) {
    for (regalloc::SpillMem mem : mems) {
      const std::string mem_name = regalloc::to_string(mem);
      const workloads::RunResult& res =
          grid.at("limit" + std::to_string(limit) + "/" + mem_name);
      table.print_row({std::to_string(limit), mem_name,
                       std::to_string(res.kernels[0].regs),
                       std::to_string(res.kernels[0].spill_bytes),
                       std::to_string(res.kernels[0].shared_spill_bytes),
                       fmt(res.min_occupancy, 3), std::to_string(res.cycles)});
      register_counters(
          "occupancy_sweep/limit" + std::to_string(limit) + "/" + mem_name,
          {{"regs", double(res.kernels[0].regs)},
           {"spill_bytes", double(res.kernels[0].spill_bytes)},
           {"shared_spill_bytes", double(res.kernels[0].shared_spill_bytes)},
           {"shared_accesses", double(res.shared_accesses)},
           {"shared_bank_conflicts", double(res.shared_bank_conflicts)},
           {"occupancy", res.min_occupancy},
           {"cycles", double(res.cycles)}},
          {{"spill_mem", mem_name}});
    }
  }
}

}  // namespace
}  // namespace safara::bench

int main(int argc, char** argv) {
  return safara::bench::bench_main(argc, argv, "occupancy_sweep", safara::bench::run);
}

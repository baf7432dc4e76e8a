// Superblock dispatch engine tests: the static opcode classification the
// block builder relies on, bit-identity between the superblock fast path and
// the per-instruction reference interpreter (for every workload, at one and
// many host threads, and for hand-assembled kernels that pin block entry and
// warp pooling), the fast path's own metrics, and determinism of the
// parallel evaluation grid that fans workload x config cells out over the
// shared thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "driver/eval_grid.hpp"
#include "regalloc/regalloc.hpp"
#include "tests_common.hpp"
#include "workloads/harness.hpp"
#include "workloads/workloads.hpp"

namespace safara::test {
namespace {

using vgpu::SimDispatch;

/// Restores both host-thread budgets a test may override, even on failure.
struct BudgetGuard {
  ~BudgetGuard() {
    vgpu::set_sim_threads(0);
    driver::set_grid_threads(0);
  }
};

// -- opcode classification ----------------------------------------------------

bool is_terminator_opcode(vir::Opcode op) {
  switch (op) {
    case vir::Opcode::kLdGlobal:
    case vir::Opcode::kStGlobal:
    case vir::Opcode::kAtomAdd:
    case vir::Opcode::kBra:
    case vir::Opcode::kCbr:
    case vir::Opcode::kExit:
      return true;
    default:
      return false;
  }
}

TEST(SuperblockClassification, EveryOpcodeIsTerminatorOrFusable) {
  // The block builder must have an opinion about every opcode x type pair:
  // ops with side effects or control transfer end a block; everything else
  // fuses and must carry a positive static result latency (the block's
  // aggregate cost is the sum of these).
  const vgpu::DeviceSpec spec = vgpu::DeviceSpec::k20xm();
  for (int o = 0; o <= static_cast<int>(vir::Opcode::kExit); ++o) {
    const auto op = static_cast<vir::Opcode>(o);
    for (vir::VType t : {vir::VType::kI32, vir::VType::kI64, vir::VType::kF32,
                         vir::VType::kF64, vir::VType::kPred}) {
      SCOPED_TRACE(std::string(vir::to_string(op)) + " / " + vir::to_string(t));
      const vgpu::SuperblockOpInfo info = vgpu::superblock_op_info(op, t, spec);
      if (is_terminator_opcode(op)) {
        EXPECT_TRUE(info.terminator);
      } else {
        EXPECT_FALSE(info.terminator);
        EXPECT_GT(info.latency, 0);
      }
    }
  }
}

// -- bit-identity between the two dispatch engines ----------------------------

struct SimSnapshot {
  std::string result;    // RunResult::to_json — merged LaunchStats, all fields
  std::string profiles;  // Collector::sim_to_json — per-SM profiles per launch
  double checksum = 0.0;
};

SimSnapshot snapshot_workload(const workloads::Workload& w, SimDispatch dispatch,
                              int threads) {
  obs::Collector collector;
  workloads::RunResult r =
      workloads::simulate(w, driver::CompilerOptions::openuh_safara_clauses(), &collector,
                          {.threads = threads, .dispatch = dispatch});
  SimSnapshot s;
  s.result = r.to_json().dump(2);
  s.profiles = collector.sim_to_json().dump(2);
  s.checksum = r.checksum;
  return s;
}

TEST(SuperblockDispatch, AllWorkloadsBitIdenticalToReference) {
  // The contract from sim.hpp: kSuper is a pure dispatch optimization. Stats,
  // per-SM profiles, and output checksums must match the per-instruction
  // reference interpreter bit for bit — for every workload, sequentially and
  // with the SM loop spread over host threads.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int wide = std::max(4, hw);
  for (const workloads::Workload& w : workloads::all_workloads()) {
    SCOPED_TRACE(w.name);
    const SimSnapshot ref = snapshot_workload(w, SimDispatch::kRef, 1);
    for (int threads : {1, wide}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const SimSnapshot super = snapshot_workload(w, SimDispatch::kSuper, threads);
      EXPECT_EQ(ref.result, super.result);
      EXPECT_EQ(ref.profiles, super.profiles);
      EXPECT_EQ(ref.checksum, super.checksum);  // exact: same bits, not "close"
    }
  }
}

TEST(SuperblockDispatch, FastPathMetricsOnlyUnderSuper) {
  const workloads::Workload* w = workloads::find_workload("355.seismic");
  ASSERT_NE(w, nullptr);

  obs::Collector with_super;
  workloads::simulate(*w, driver::CompilerOptions::openuh_safara_clauses(), &with_super,
                      {.dispatch = SimDispatch::kSuper});
  const auto& super_counters = with_super.metrics.counters();
  ASSERT_TRUE(super_counters.count("sim.superblocks"));
  ASSERT_TRUE(super_counters.count("sim.superblock_retires"));
  EXPECT_GT(super_counters.at("sim.superblocks"), 0);
  EXPECT_GT(super_counters.at("sim.superblock_retires"), 0);

  obs::Collector with_ref;
  workloads::simulate(*w, driver::CompilerOptions::openuh_safara_clauses(), &with_ref,
                      {.dispatch = SimDispatch::kRef});
  const auto& ref_counters = with_ref.metrics.counters();
  EXPECT_FALSE(ref_counters.count("sim.superblock_retires"))
      << "reference interpreter must not touch the fast path";
}

// -- hand-assembled kernels ---------------------------------------------------

/// Assembles a VIR kernel instruction by instruction, so a test controls
/// exactly where superblocks start and end.
struct KernelBuilder {
  vir::Kernel k;

  std::uint32_t reg(vir::VType t) {
    k.vreg_types.push_back(t);
    k.vreg_names.emplace_back();
    return k.num_vregs() - 1;
  }
  vir::Instr& emit(vir::Opcode op, vir::VType t, std::uint32_t dst = vir::kNoReg,
                   std::uint32_t a = vir::kNoReg, std::uint32_t b = vir::kNoReg) {
    vir::Instr in;
    in.op = op;
    in.type = t;
    in.dst = dst;
    in.a = a;
    in.b = b;
    in.loc = SourceLoc{static_cast<std::uint32_t>(k.code.size()) + 1, 1};
    k.code.push_back(in);
    return k.code.back();
  }
  std::uint32_t special(vir::SpecialReg r) {
    const std::uint32_t dst = reg(vir::VType::kI32);
    emit(vir::Opcode::kMovSpecial, vir::VType::kI32, dst).imm = static_cast<std::int64_t>(r);
    return dst;
  }
  std::uint32_t imm(std::int64_t v, vir::VType t) {
    const std::uint32_t dst = reg(t);
    emit(vir::Opcode::kMovImmI, t, dst).imm = v;
    return dst;
  }
  std::int32_t label() {
    k.labels.push_back(-1);
    return static_cast<std::int32_t>(k.labels.size()) - 1;
  }
  void place(std::int32_t label) {
    k.labels[static_cast<std::size_t>(label)] = static_cast<std::int32_t>(k.code.size());
  }
};

struct LaunchOutcome {
  std::string stats;    // LaunchStats::to_json
  std::string profile;  // Collector::sim_to_json: per-SM and per-pc profile
  std::vector<std::uint32_t> memory;
  std::int64_t superblocks = 0;
  std::int64_t superblock_retires = 0;
};

/// Launches `k`, whose one parameter is the base address of a device buffer
/// holding `init`, and reads the buffer back.
LaunchOutcome launch_kernel(vir::Kernel k, const vgpu::DeviceSpec& spec,
                            const vgpu::LaunchConfig& cfg,
                            const std::vector<std::uint32_t>& init, SimDispatch dispatch) {
  k.params = {vir::ParamInfo{vir::ParamInfo::Kind::kArrayBase, "buf", 0, vir::VType::kI64}};
  const regalloc::AllocationResult alloc = regalloc::allocate(k);
  vgpu::DeviceMemory mem;
  const std::size_t bytes = init.size() * sizeof(std::uint32_t);
  const std::uint64_t base = mem.allocate(bytes);
  mem.copy_in(base, init.data(), bytes);
  obs::Collector collector;
  const vgpu::LaunchStats stats =
      vgpu::launch(k, alloc, spec, mem, {base}, cfg, &collector,
                   {.threads = 1, .dispatch = dispatch});
  LaunchOutcome out;
  out.stats = stats.to_json().dump(2);
  out.profile = collector.sim_to_json().dump(2);
  out.memory.resize(init.size());
  mem.copy_out(base, out.memory.data(), bytes);
  out.superblocks = collector.metrics.counter("sim.superblocks");
  out.superblock_retires = collector.metrics.counter("sim.superblock_retires");
  return out;
}

TEST(SuperblockDispatch, BlockEntersOnReadyHeadWhileLaterOperandInFlight) {
  // Block B's head needs nothing, but its second instruction reads the load
  // just issued: the block must enter at once and its drain must stall on
  // that operand exactly as the per-instruction path does. Blocks C and D are
  // single fusable instructions between memory ops.
  using vir::Opcode;
  using vir::VType;
  KernelBuilder kb;
  const std::uint32_t base = kb.reg(VType::kI64);
  kb.emit(Opcode::kLdParam, VType::kI64, base).imm = 0;  // block A: pcs 0-6
  const std::uint32_t tid = kb.special(vir::SpecialReg::kTidX);
  const std::uint32_t tid64 = kb.reg(VType::kI64);
  kb.emit(Opcode::kCvt, VType::kI64, tid64, tid);
  const std::uint32_t four = kb.imm(4, VType::kI64);
  const std::uint32_t stride = kb.imm(256, VType::kI64);
  const std::uint32_t off = kb.reg(VType::kI64);
  kb.emit(Opcode::kMul, VType::kI64, off, tid64, four);
  const std::uint32_t addr = kb.reg(VType::kI64);
  kb.emit(Opcode::kAdd, VType::kI64, addr, base, off);
  const std::uint32_t x = kb.reg(VType::kF32);
  kb.emit(Opcode::kLdGlobal, VType::kF32, x, addr);
  const std::uint32_t one = kb.reg(VType::kF32);
  kb.emit(Opcode::kMovImmF, VType::kF32, one).fimm = 1.0;  // block B: pcs 8-10
  const std::uint32_t y = kb.reg(VType::kF32);
  kb.emit(Opcode::kAdd, VType::kF32, y, x, one);
  const std::uint32_t z = kb.reg(VType::kF32);
  kb.emit(Opcode::kMul, VType::kF32, z, y, y);
  kb.emit(Opcode::kStGlobal, VType::kF32, vir::kNoReg, addr, z);
  const std::uint32_t x2 = kb.reg(VType::kF32);
  kb.emit(Opcode::kLdGlobal, VType::kF32, x2, addr);
  const std::uint32_t addr2 = kb.reg(VType::kI64);
  kb.emit(Opcode::kAdd, VType::kI64, addr2, addr, stride);  // block C
  const std::uint32_t x3 = kb.reg(VType::kF32);
  kb.emit(Opcode::kLdGlobal, VType::kF32, x3, addr2);
  const std::uint32_t sum = kb.reg(VType::kF32);
  kb.emit(Opcode::kAdd, VType::kF32, sum, x2, x3);  // block D
  kb.emit(Opcode::kStGlobal, VType::kF32, vir::kNoReg, addr2, sum);
  kb.emit(Opcode::kExit, VType::kI32);

  std::vector<std::uint32_t> init(128);
  for (std::size_t i = 0; i < init.size(); ++i) {
    const float v = 0.5f + static_cast<float>(i);
    std::memcpy(&init[i], &v, sizeof v);
  }
  vgpu::LaunchConfig cfg;
  cfg.block[0] = 64;  // two warps
  const vgpu::DeviceSpec spec = vgpu::DeviceSpec::k20xm();
  const LaunchOutcome ref = launch_kernel(kb.k, spec, cfg, init, SimDispatch::kRef);
  const LaunchOutcome super = launch_kernel(kb.k, spec, cfg, init, SimDispatch::kSuper);
  EXPECT_EQ(ref.stats, super.stats);
  EXPECT_EQ(ref.profile, super.profile);
  EXPECT_EQ(ref.memory, super.memory);
  float first = 0.0f;
  std::memcpy(&first, &super.memory[64], sizeof first);
  EXPECT_EQ(first, 1.5f * 1.5f + 64.5f);

  EXPECT_EQ(super.superblocks, 4);  // A, B and the single-instruction C and D
  EXPECT_EQ(super.superblock_retires, 2 * 4);  // each warp enters every block once
}

TEST(SuperblockDispatch, PooledWarpsReadZeroInEntryLiveRegisters) {
  // Even blocks write `r`; odd blocks store it without writing it. On one SM
  // holding three blocks, a retired block's warp is reused by the block that
  // replaces it, so odd blocks run on warps whose `r` an even block set.
  using vir::Opcode;
  using vir::VType;
  KernelBuilder kb;
  const std::uint32_t base = kb.reg(VType::kI64);
  kb.emit(Opcode::kLdParam, VType::kI64, base).imm = 0;
  const std::uint32_t cta = kb.special(vir::SpecialReg::kCtaidX);
  const std::uint32_t tid = kb.special(vir::SpecialReg::kTidX);
  const std::uint32_t ntid = kb.special(vir::SpecialReg::kNtidX);
  const std::uint32_t first = kb.reg(VType::kI32);
  kb.emit(Opcode::kMul, VType::kI32, first, cta, ntid);
  const std::uint32_t gid = kb.reg(VType::kI32);
  kb.emit(Opcode::kAdd, VType::kI32, gid, first, tid);
  const std::uint32_t gid64 = kb.reg(VType::kI64);
  kb.emit(Opcode::kCvt, VType::kI64, gid64, gid);
  const std::uint32_t four = kb.imm(4, VType::kI64);
  const std::uint32_t off = kb.reg(VType::kI64);
  kb.emit(Opcode::kMul, VType::kI64, off, gid64, four);
  const std::uint32_t addr = kb.reg(VType::kI64);
  kb.emit(Opcode::kAdd, VType::kI64, addr, base, off);
  const std::uint32_t two = kb.imm(2, VType::kI32);
  const std::uint32_t parity = kb.reg(VType::kI32);
  kb.emit(Opcode::kRem, VType::kI32, parity, cta, two);
  const std::uint32_t zero = kb.imm(0, VType::kI32);
  const std::uint32_t even = kb.reg(VType::kPred);
  kb.emit(Opcode::kSetEq, VType::kI32, even, parity, zero);
  const std::int32_t even_path = kb.label();
  const std::int32_t done = kb.label();
  vir::Instr& br = kb.emit(Opcode::kCbr, VType::kI32, vir::kNoReg, even);
  br.imm = even_path;
  br.imm2 = done;
  const std::uint32_t r = kb.reg(VType::kI32);
  kb.emit(Opcode::kStGlobal, VType::kI32, vir::kNoReg, addr, r);  // odd: read only
  kb.emit(Opcode::kBra, VType::kI32).imm = done;
  kb.place(even_path);
  kb.emit(Opcode::kMovImmI, VType::kI32, r).imm = 7;
  kb.emit(Opcode::kStGlobal, VType::kI32, vir::kNoReg, addr, r);
  kb.place(done);
  kb.emit(Opcode::kExit, VType::kI32);

  vgpu::DeviceSpec spec = vgpu::DeviceSpec::k20xm();
  spec.num_sms = 1;
  spec.max_blocks_per_sm = 3;
  vgpu::LaunchConfig cfg;
  cfg.grid[0] = 12;
  cfg.block[0] = 32;
  const std::vector<std::uint32_t> init(12 * 32, 0xdeadbeefu);
  for (SimDispatch dispatch : {SimDispatch::kRef, SimDispatch::kSuper}) {
    SCOPED_TRACE(vgpu::to_string(dispatch));
    const LaunchOutcome out = launch_kernel(kb.k, spec, cfg, init, dispatch);
    for (std::size_t i = 0; i < out.memory.size(); ++i) {
      const std::size_t block = i / 32;
      ASSERT_EQ(out.memory[i], block % 2 == 0 ? 7u : 0u) << "block " << block;
    }
  }
}

TEST(SuperblockDispatch, ParseAndEnvNamesRoundTrip) {
  SimDispatch d = SimDispatch::kRef;
  EXPECT_TRUE(vgpu::parse_sim_dispatch("super", d));
  EXPECT_EQ(d, SimDispatch::kSuper);
  EXPECT_TRUE(vgpu::parse_sim_dispatch("ref", d));
  EXPECT_EQ(d, SimDispatch::kRef);
  EXPECT_FALSE(vgpu::parse_sim_dispatch("fast", d));
  EXPECT_EQ(d, SimDispatch::kRef);  // failed parse leaves the value untouched
  EXPECT_STREQ(vgpu::to_string(SimDispatch::kSuper), "super");
  EXPECT_STREQ(vgpu::to_string(SimDispatch::kRef), "ref");
}

// -- parallel evaluation grid -------------------------------------------------

TEST(EvalGrid, ParallelismRespectsBudgetAndCellCount) {
  BudgetGuard guard;
  driver::set_grid_threads(8);
  EXPECT_EQ(driver::grid_parallelism(3), 3);    // never more lanes than cells
  EXPECT_EQ(driver::grid_parallelism(100), 8);  // capped by the thread budget
  driver::set_grid_threads(1);
  EXPECT_EQ(driver::grid_parallelism(100), 1);
  driver::set_grid_threads(0);  // back to sim_threads()
}

TEST(EvalGrid, ThreadBudgetsDefaultToTheHostAndSettersOverride) {
  // The sim budget defaults to the host's hardware concurrency and the grid
  // budget to the sim budget; each setter overrides its own budget, and
  // n <= 0 restores the default.
  BudgetGuard guard;
  vgpu::set_sim_threads(0);
  driver::set_grid_threads(0);
  const unsigned hc = std::thread::hardware_concurrency();
  const int host = hc > 0 ? static_cast<int>(hc) : 1;
  EXPECT_EQ(vgpu::sim_threads(), host);
  EXPECT_EQ(driver::grid_threads(), host);
  vgpu::set_sim_threads(3);
  EXPECT_EQ(vgpu::sim_threads(), 3);
  EXPECT_EQ(driver::grid_threads(), 3);
  driver::set_grid_threads(7);
  EXPECT_EQ(driver::grid_threads(), 7);
  EXPECT_EQ(vgpu::sim_threads(), 3);
  vgpu::set_sim_threads(-2);
  EXPECT_EQ(vgpu::sim_threads(), host);
  driver::set_grid_threads(0);
  EXPECT_EQ(driver::grid_threads(), host);
}

TEST(EvalGrid, CellResultsBitIdenticalAcrossParallelism) {
  // The grid contract: cell results depend only on the cell index, never on
  // how many cells run concurrently. Simulate a small workload x config grid
  // serially and with four lanes and require byte-identical rows.
  BudgetGuard guard;
  std::vector<const workloads::Workload*> ws = {workloads::find_workload("352.ep"),
                                                workloads::find_workload("354.cg")};
  ASSERT_NE(ws[0], nullptr);
  ASSERT_NE(ws[1], nullptr);
  std::vector<driver::CompilerOptions> configs = {
      driver::CompilerOptions::openuh_base(),
      driver::CompilerOptions::openuh_safara_clauses()};

  auto run_grid_once = [&](int grid_threads) {
    driver::set_grid_threads(grid_threads);
    const std::int64_t cells = static_cast<std::int64_t>(ws.size() * configs.size());
    std::vector<std::string> rows(cells);
    driver::eval_grid(cells, [&](std::int64_t i) {
      const workloads::Workload& w = *ws[static_cast<std::size_t>(i) / configs.size()];
      const driver::CompilerOptions& opts = configs[static_cast<std::size_t>(i) % configs.size()];
      rows[i] = workloads::simulate(w, opts).to_json().dump(2);
    });
    return rows;
  };

  const std::vector<std::string> serial = run_grid_once(1);
  const std::vector<std::string> parallel = run_grid_once(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(serial[i], parallel[i]);
  }
}

TEST(EvalGrid, CellsDoNotWriteTheSimBudget) {
  // A parallel grid keeps its cells' launches on one host thread without
  // touching the process budget: the cells see the budget unchanged, and a
  // launch inside one (a pool job) never takes the parallel SM path.
  BudgetGuard guard;
  vgpu::set_sim_threads(3);
  driver::set_grid_threads(4);
  const workloads::Workload* w = workloads::find_workload("303.ostencil");
  ASSERT_NE(w, nullptr);
  std::vector<int> budget_seen(4, 0);
  std::vector<obs::Collector> collectors(4);
  driver::eval_grid(4, [&](std::int64_t i) {
    budget_seen[static_cast<std::size_t>(i)] = vgpu::sim_threads();
    workloads::simulate(*w, driver::CompilerOptions::openuh_base(),
                        &collectors[static_cast<std::size_t>(i)]);
  });
  for (std::size_t i = 0; i < collectors.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(budget_seen[i], 3);
    EXPECT_GT(collectors[i].metrics.counter("sim.launches"), 0);
    EXPECT_EQ(collectors[i].metrics.counter("sim.parallel_launches"), 0);
  }
  EXPECT_EQ(vgpu::sim_threads(), 3);
}

TEST(EvalGrid, ConcurrentGridsRunEveryCellOnce) {
  // Two host threads may run grids at once: the pool serves one and runs the
  // other inline, so every cell of both runs exactly once and neither waits
  // on the other forever.
  BudgetGuard guard;
  driver::set_grid_threads(4);
  constexpr int kRounds = 200;
  constexpr std::int64_t kCells = 64;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::atomic<int>> runs_a(kCells), runs_b(kCells);
    auto grid = [&](std::vector<std::atomic<int>>& runs) {
      driver::eval_grid(kCells, [&](std::int64_t i) {
        runs[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      });
    };
    std::thread a(grid, std::ref(runs_a));
    std::thread b(grid, std::ref(runs_b));
    a.join();
    b.join();
    for (std::int64_t i = 0; i < kCells; ++i) {
      ASSERT_EQ(runs_a[static_cast<std::size_t>(i)].load(), 1)
          << "round " << round << " cell " << i;
      ASSERT_EQ(runs_b[static_cast<std::size_t>(i)].load(), 1)
          << "round " << round << " cell " << i;
    }
  }
}

TEST(EvalGrid, RecordsGridMetrics) {
  BudgetGuard guard;
  driver::set_grid_threads(2);
  obs::Collector collector;
  driver::eval_grid(6, [](std::int64_t) {}, &collector);
  const auto& counters = collector.metrics.counters();
  ASSERT_TRUE(counters.count("grid.cells"));
  EXPECT_EQ(counters.at("grid.cells"), 6);
  const auto& gauges = collector.metrics.gauges();
  ASSERT_TRUE(gauges.count("grid.parallelism"));
  EXPECT_EQ(gauges.at("grid.parallelism"), 2);
}

}  // namespace
}  // namespace safara::test

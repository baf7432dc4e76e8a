// Source-attribution tests: the per-pc cycle/stall attribution and occupancy
// timelines the simulator records must be bit-identical across dispatch
// engines and host thread counts (they are part of the determinism
// contract), must account for every busy cycle exactly once, and must
// resolve back to valid source lines through the compiler's provenance
// chain.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "driver/sim_profile.hpp"
#include "obs/collector.hpp"
#include "tests_common.hpp"
#include "vgpu/sim.hpp"
#include "workloads/harness.hpp"

namespace safara::test {
namespace {

/// Simulates `w` under safara_clauses on one sim thread, profiling into `c`.
workloads::RunResult run_with(const workloads::Workload& w, obs::Collector& c) {
  return workloads::simulate(w, driver::CompilerOptions::openuh_safara_clauses(), &c,
                             {.threads = 1});
}

TEST(Attribution, BitIdenticalAcrossEnginesAndThreadCounts) {
  // The cells of the determinism matrix (tests_common.hpp) that change both
  // the engine and the thread count: ref on several threads against super on
  // one. The snapshot's profiles carry the per-pc rows and timelines.
  for (const workloads::Workload& w : workloads::all_workloads()) {
    SCOPED_TRACE(w.name);
    const SimSnapshot super1 = snapshot_workload(w, vgpu::SimDispatch::kSuper, 1);
    ASSERT_GT(super1.launches, 0u);
    EXPECT_GT(super1.cycles, 0u);
    for (int threads : parallel_thread_counts()) {
      SCOPED_TRACE("ref threads=" + std::to_string(threads));
      expect_bit_identical(super1, snapshot_workload(w, vgpu::SimDispatch::kRef, threads));
    }
  }
}

TEST(Attribution, EveryBusyCycleClaimedByExactlyOnePc) {
  const workloads::Workload* w = workloads::find_workload("355.seismic");
  ASSERT_NE(w, nullptr);
  obs::Collector c;
  run_with(*w, c);
  ASSERT_FALSE(c.sim_profiles.empty());
  for (const obs::KernelSimProfile& p : c.sim_profiles) {
    for (const obs::SmProfile& sm : p.sms) {
      // Per-SM cycle partition: every busy cycle is an issue cycle or an
      // attributed stall, and the per-pc rows reproduce each bucket exactly.
      EXPECT_EQ(sm.cycles, sm.issue_cycles + sm.stall_scoreboard + sm.stall_memory)
          << p.kernel << " sm " << sm.sm;
      std::uint64_t issued = 0, issue_cycles = 0, sb = 0, mem = 0;
      for (const obs::PcProfile& pc : sm.pcs) {
        issued += pc.issued;
        issue_cycles += pc.issue_cycles;
        sb += pc.stall_scoreboard;
        mem += pc.stall_memory;
      }
      EXPECT_EQ(issued, sm.issued_instructions) << p.kernel << " sm " << sm.sm;
      EXPECT_EQ(issue_cycles, sm.issue_cycles) << p.kernel << " sm " << sm.sm;
      EXPECT_EQ(sb, sm.stall_scoreboard) << p.kernel << " sm " << sm.sm;
      EXPECT_EQ(mem, sm.stall_memory) << p.kernel << " sm " << sm.sm;
    }
  }
}

TEST(Attribution, PerLineRollupSumsToLaunchTotal) {
  const workloads::Workload* w = workloads::find_workload("355.seismic");
  ASSERT_NE(w, nullptr);
  driver::CompilerOptions opts = driver::CompilerOptions::openuh_safara_clauses();
  obs::Collector c;
  workloads::simulate(*w, opts, &c);
  driver::Compiler compiler(opts);
  driver::CompiledProgram prog = compiler.compile(w->source, w->function);

  // Rolling per-pc attribution up to source lines is a partition: the line
  // totals must sum to the per-SM busy cycles summed over SMs and launches,
  // with nothing dropped and nothing double-counted.
  std::map<std::uint32_t, std::uint64_t> line_cycles;
  std::uint64_t total = 0;
  for (const obs::KernelSimProfile& p : c.sim_profiles) {
    const vir::Kernel* kk = nullptr;
    for (const driver::CompiledKernel& k : prog.kernels) {
      if (k.name == p.kernel) kk = &k.kernel;
    }
    ASSERT_NE(kk, nullptr) << p.kernel;
    for (const obs::SmProfile& sm : p.sms) total += sm.cycles;
    const obs::SmProfile t = p.totals();
    ASSERT_EQ(t.pcs.size(), kk->code.size()) << p.kernel;
    for (std::size_t pc = 0; pc < t.pcs.size(); ++pc) {
      const obs::PcProfile& q = t.pcs[pc];
      if (!q.any()) continue;
      // Tentpole provenance guarantee: every pc with activity resolves to a
      // valid source line through the AST -> VIR -> machine chain.
      EXPECT_TRUE(kk->code[pc].loc.valid()) << p.kernel << " pc " << pc;
      line_cycles[kk->code[pc].loc.line] +=
          q.issue_cycles + q.stall_scoreboard + q.stall_memory;
    }
  }
  std::uint64_t line_total = 0;
  for (const auto& [line, cyc] : line_cycles) line_total += cyc;
  EXPECT_EQ(line_total, total);
  EXPECT_GT(line_cycles.size(), 1u);

  // The sim_profile/v1 document `safcc --sim-profile-out` writes carries the
  // same partition, and the allocator's provenance rows, under either
  // allocator.
  auto expect_doc_consistent = [&](const driver::CompiledProgram& program,
                                   const obs::Collector& collector) {
    const obs::json::Value doc =
        driver::sim_profile_doc(program, collector, w->name, "safara_clauses");
    EXPECT_EQ(doc.find("schema")->as_string(), "safara.sim_profile/v1");
    for (const obs::json::Value& k : doc.find("kernels")->items()) {
      for (const obs::json::Value& row : k.find("code")->items()) {
        EXPECT_TRUE(row.contains("pc") && row.contains("op") && row.contains("line"));
      }
      for (const obs::json::Value& r : k.find("ranges")->items()) {
        EXPECT_TRUE(r.contains("vreg") && r.contains("start") && r.contains("end") &&
                    r.contains("spill_slot"));
      }
    }
    std::int64_t sum = 0;
    for (const obs::json::Value& l : doc.find("lines")->items()) {
      sum += l.find("cycles")->as_int();
    }
    EXPECT_EQ(sum, doc.find("total_cycles")->as_int());
    EXPECT_GT(sum, 0);
  };
  expect_doc_consistent(prog, c);

  SCOPED_TRACE("linear regalloc");
  opts.regalloc.strategy = regalloc::Strategy::kLinear;
  obs::Collector linear_c;
  workloads::simulate(*w, opts, &linear_c);
  expect_doc_consistent(driver::Compiler(opts).compile(w->source, w->function), linear_c);
}

TEST(Attribution, OccupancyTimelineIsOrderedAndBounded) {
  const workloads::Workload* w = workloads::find_workload("355.seismic");
  ASSERT_NE(w, nullptr);
  obs::Collector c;
  run_with(*w, c);
  for (const obs::KernelSimProfile& p : c.sim_profiles) {
    for (const obs::SmProfile& sm : p.sms) {
      ASSERT_FALSE(sm.warp_timeline.empty()) << p.kernel << " sm " << sm.sm;
      std::uint64_t prev = 0;
      bool first = true;
      for (const obs::WarpSample& s : sm.warp_timeline) {
        if (!first) EXPECT_GT(s.cycle, prev) << p.kernel << " sm " << sm.sm;
        first = false;
        prev = s.cycle;
        EXPECT_LE(s.warps, sm.max_resident_warps) << p.kernel << " sm " << sm.sm;
      }
      // The SM drains at the end of the launch.
      EXPECT_EQ(sm.warp_timeline.back().warps, 0u) << p.kernel << " sm " << sm.sm;
    }
  }

  // The tracer mirrors the timelines as Perfetto counter tracks on the
  // cumulative virtual-cycle axis: per-track timestamps strictly increase
  // across launches.
  std::map<std::string, std::int64_t> last_ts;
  std::size_t counter_events = 0;
  for (const obs::CounterEvent& e : c.tracer.counters()) {
    ++counter_events;
    EXPECT_NE(e.name.find("active_warps"), std::string::npos);
    auto it = last_ts.find(e.name);
    if (it != last_ts.end()) EXPECT_GT(e.ts, it->second) << e.name;
    last_ts[e.name] = e.ts;
  }
  EXPECT_GT(counter_events, 0u);
}

}  // namespace
}  // namespace safara::test

// GPU simulator tests: functional execution through the full pipeline,
// SIMT divergence, transaction coalescing, the read-only cache, occupancy,
// and the memory-bandwidth model.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>

#include "tests_common.hpp"
#include "vgpu/cache.hpp"
#include "vgpu/occupancy.hpp"
#include "workloads/harness.hpp"
#include "workloads/workloads.hpp"

namespace safara::test {
namespace {

using vgpu::DeviceSpec;

std::vector<vgpu::LaunchStats> run_kernel(const std::string& src,
                                          workloads::Dataset& data,
                                          driver::CompilerOptions opts = {}) {
  driver::Compiler compiler(opts);
  auto prog = compiler.compile(src);
  return workloads::run(prog, data);
}

// -- functional coverage across operators -------------------------------------

TEST(SimFunctional, IntegerArithmetic) {
  const char* src = R"(
void f(int n, const int *x, int *y) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    y[i] = (x[i] * 3 + 7) / 2 - x[i] % 5;
  }
})";
  workloads::Dataset data;
  data.arrays.emplace("x", i32_array({{0, 200}}));
  data.arrays.emplace("y", i32_array({{0, 200}}));
  fill_pattern(data.array("x"), 3);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(200));
  check_against_reference(src, driver::CompilerOptions::openuh_base(), data, 0.0);
}

TEST(SimFunctional, DivisionByZeroYieldsZero) {
  const char* src = R"(
void f(int n, const int *x, int *y) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    y[i] = x[i] / (i - 5) + x[i] % (i - 7);
  }
})";
  workloads::Dataset data;
  data.arrays.emplace("x", i32_array({{0, 32}}));
  data.arrays.emplace("y", i32_array({{0, 32}}));
  fill_pattern(data.array("x"), 5);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(32));
  check_against_reference(src, driver::CompilerOptions::openuh_base(), data, 0.0);
}

TEST(SimFunctional, TranscendentalsMatchReference) {
  const char* src = R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    y[i] = sqrt(x[i]) + exp(x[i] * 0.1f) + log(x[i] + 1.0f)
         + sin(x[i]) * cos(x[i]) + pow(x[i], 2.0f)
         + rsqrt(x[i] + 0.5f) + floor(x[i] * 3.0f) + ceil(x[i] * 3.0f)
         + fabs(-x[i]) + min(x[i], 0.5f) + max(x[i], 0.75f);
  }
})";
  workloads::Dataset data;
  data.arrays.emplace("x", f32_array({{0, 128}}));
  data.arrays.emplace("y", f32_array({{0, 128}}));
  fill_pattern(data.array("x"), 9);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(128));
  check_against_reference(src, driver::CompilerOptions::openuh_base(), data, 0.0);
}

TEST(SimFunctional, DoublePrecision) {
  const char* src = R"(
void f(int n, const double *x, double *y) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    y[i] = x[i] * 1.000000001 + 1.0e-12;
  }
})";
  workloads::Dataset data;
  data.arrays.emplace("x", f64_array({{0, 100}}));
  data.arrays.emplace("y", f64_array({{0, 100}}));
  fill_pattern(data.array("x"), 21);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(100));
  check_against_reference(src, driver::CompilerOptions::openuh_base(), data, 0.0);
}

TEST(SimFunctional, LogicalAndComparisonValues) {
  const char* src = R"(
void f(int n, const int *x, int *y) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    y[i] = (x[i] > 10 && x[i] < 50) + (x[i] == 7 || !(x[i] >= 3));
  }
})";
  workloads::Dataset data;
  data.arrays.emplace("x", i32_array({{0, 96}}));
  data.arrays.emplace("y", i32_array({{0, 96}}));
  fill_pattern(data.array("x"), 17);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(96));
  check_against_reference(src, driver::CompilerOptions::openuh_base(), data, 0.0);
}

// -- divergence ------------------------------------------------------------------

TEST(SimDivergence, IfElsePerLane) {
  const char* src = R"(
void f(int n, const int *x, float *y) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    if (x[i] % 2 == 0) {
      y[i] = 2.0f;
    } else {
      y[i] = 3.0f;
    }
  }
})";
  workloads::Dataset data;
  data.arrays.emplace("x", i32_array({{0, 128}}));
  data.arrays.emplace("y", f32_array({{0, 128}}));
  fill_pattern(data.array("x"), 31);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(128));
  check_against_reference(src, driver::CompilerOptions::openuh_base(), data, 0.0);
}

TEST(SimDivergence, NestedIfInsideLoop) {
  const char* src = R"(
void f(int n, const int *x, float *y) {
  #pragma acc parallel loop gang vector(32)
  for (i = 0; i < n; i++) {
    float acc = 0.0f;
    #pragma acc loop seq
    for (t = 0; t < 8; t++) {
      if (x[i] % (t + 2) == 0) {
        if (t % 2 == 0) { acc += 1.0f; }
        else { acc += 0.5f; }
      }
    }
    y[i] = acc;
  }
})";
  workloads::Dataset data;
  data.arrays.emplace("x", i32_array({{0, 64}}));
  data.arrays.emplace("y", f32_array({{0, 64}}));
  fill_pattern(data.array("x"), 41);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(64));
  check_against_reference(src, driver::CompilerOptions::openuh_base(), data, 0.0);
}

TEST(SimDivergence, VariableTripLoopPerLane) {
  // Each lane loops a different number of times: the loop-exit branch
  // diverges every iteration (the merged SIMT-stack entry path).
  const char* src = R"(
void f(int n, const int *len, float *y) {
  #pragma acc parallel loop gang vector(32)
  for (i = 0; i < n; i++) {
    float acc = 0.0f;
    #pragma acc loop seq
    for (t = 0; t < len[i]; t++) {
      acc += float(t);
    }
    y[i] = acc;
  }
})";
  workloads::Dataset data;
  driver::HostArray len = driver::HostArray::make(ast::ScalarType::kI32, {{0, 64}});
  for (int i = 0; i < 64; ++i) len.set_int(i, i % 9);
  data.arrays.emplace("len", std::move(len));
  data.arrays.emplace("y", f32_array({{0, 64}}));
  data.scalars.emplace("n", rt::ScalarValue::of_i32(64));
  check_against_reference(src, driver::CompilerOptions::openuh_base(), data, 0.0);
}

TEST(SimDivergence, PartialLastWarp) {
  // n not a multiple of the warp size: the tail warp starts partially active.
  const char* src = R"(
void f(int n, float *y) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) { y[i] = float(i); }
})";
  workloads::Dataset data;
  data.arrays.emplace("y", f32_array({{0, 50}}));
  data.scalars.emplace("n", rt::ScalarValue::of_i32(50));
  check_against_reference(src, driver::CompilerOptions::openuh_base(), data, 0.0);
}

// -- memory system ------------------------------------------------------------------

TEST(SimMemory, CoalescedVsStridedTransactions) {
  const char* coalesced = R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector(128)
  for (i = 0; i < n; i++) { y[i] = x[i]; }
})";
  const char* strided = R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector(128)
  for (i = 0; i < n; i++) { y[i] = x[i * 32]; }
})";
  workloads::Dataset d1;
  d1.arrays.emplace("x", f32_array({{0, 4096}}));
  d1.arrays.emplace("y", f32_array({{0, 4096}}));
  fill_pattern(d1.array("x"), 3);
  d1.scalars.emplace("n", rt::ScalarValue::of_i32(128));
  workloads::Dataset d2 = d1;

  auto s1 = run_kernel(coalesced, d1);
  auto s2 = run_kernel(strided, d2);
  // 128 threads reading 4B each: coalesced = 4 segments + stores;
  // stride-32 = one segment per lane.
  EXPECT_LT(s1[0].mem_transactions, s2[0].mem_transactions / 4);
  EXPECT_LT(s1[0].cycles, s2[0].cycles);
}

TEST(SimMemory, ReadOnlyCacheHitsOnReuseAcrossIterations) {
  // Walking k over [i][k] rows: after a line's first (miss) touch, the next
  // ~31 iterations hit the RO cache.
  const char* src = R"(
void f(int n, int m, const float a[n][m], float *y) {
  #pragma acc parallel loop gang vector(32)
  for (i = 0; i < n; i++) {
    float acc = 0.0f;
    #pragma acc loop seq
    for (k = 0; k < m; k++) {
      acc += a[i][k];
    }
    y[i] = acc;
  }
})";
  workloads::Dataset data;
  data.arrays.emplace("a", f32_array({{0, 32}, {0, 64}}));
  data.arrays.emplace("y", f32_array({{0, 32}}));
  fill_pattern(data.array("a"), 5);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(32));
  data.scalars.emplace("m", rt::ScalarValue::of_i32(64));
  auto stats = run_kernel(src, data);
  EXPECT_GT(stats[0].ro_hits, stats[0].ro_misses);
}

TEST(SimMemory, WrittenArraysBypassReadOnlyCache) {
  const char* src = R"(
void f(int n, float *x) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) { x[i] = x[i] + 1.0f; }
})";
  workloads::Dataset data;
  data.arrays.emplace("x", f32_array({{0, 256}}));
  fill_pattern(data.array("x"), 7);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(256));
  auto stats = run_kernel(src, data);
  EXPECT_EQ(stats[0].ro_hits + stats[0].ro_misses, 0u);
}

TEST(SimMemory, AtomicsAreExact) {
  const char* src = R"(
void f(int n, float *sum) {
  #pragma acc parallel loop gang vector(128)
  for (i = 0; i < n; i++) {
    sum[0] += 1.0f;
  }
})";
  workloads::Dataset data;
  data.arrays.emplace("sum", f32_array({{0, 1}}));
  data.scalars.emplace("n", rt::ScalarValue::of_i32(5000));
  auto stats = run_kernel(src, data);
  EXPECT_FLOAT_EQ(static_cast<float>(data.array("sum").get(0)), 5000.0f);
  EXPECT_GT(stats[0].atomics, 0u);
}

TEST(SimMemory, OutOfBoundsAccessThrows) {
  const char* src = R"(
void f(int n, float *x) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) { x[i + 1000000] = 1.0f; }
})";
  workloads::Dataset data;
  data.arrays.emplace("x", f32_array({{0, 64}}));
  data.scalars.emplace("n", rt::ScalarValue::of_i32(64));
  driver::Compiler compiler{driver::CompilerOptions::openuh_base()};
  auto prog = compiler.compile(src);
  EXPECT_THROW(workloads::run(prog, data), std::runtime_error);
}

// The warp scheduler keeps one bit per resident warp in a 64-bit word, so a
// launch whose occupancy would keep more than 64 warps on an SM is refused,
// by name, instead of simulated.
TEST(SimScheduler, RejectsMoreThan64ResidentWarps) {
  const char* src = R"(
void wide(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector(1024)
  for (i = 0; i < n; i++) { y[i] = x[i] + 1.0f; }
})";
  auto make_data = [] {
    workloads::Dataset data;
    data.arrays.emplace("x", f32_array({{0, 8192}}));
    data.arrays.emplace("y", f32_array({{0, 8192}}));
    fill_pattern(data.array("x"), 4);
    data.scalars.emplace("n", rt::ScalarValue::of_i32(8192));
    return data;
  };
  driver::Compiler compiler(driver::CompilerOptions::openuh_base());
  const driver::CompiledProgram prog = compiler.compile(src);
  ASSERT_EQ(prog.kernels.size(), 1u);
  const std::string& kernel = prog.kernels[0].kernel.name;

  DeviceSpec wide = DeviceSpec::k20xm();
  wide.max_warps_per_sm = 128;
  wide.max_threads_per_sm = 4096;
  wide.registers_per_sm *= 4;  // warps and threads, not registers, bound residency
  ASSERT_EQ(vgpu::compute_occupancy(wide, prog.kernels[0].alloc.regs_used, 1024).warps_per_sm,
            128);
  workloads::Dataset data = make_data();
  try {
    workloads::run(prog, data, wide);
    ADD_FAILURE() << "a launch keeping 128 warps resident must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(kernel), std::string::npos) << e.what();
  }

  // The same kernel on the paper's device fits (2 blocks of 32 warps).
  workloads::Dataset fits = make_data();
  const std::vector<vgpu::LaunchStats> stats = workloads::run(prog, fits);
  EXPECT_GT(stats[0].cycles, 0u);
  EXPECT_EQ(static_cast<float>(fits.array("y").get(100)),
            static_cast<float>(fits.array("x").get(100)) + 1.0f);
}

// -- occupancy ----------------------------------------------------------------------

TEST(Occupancy, FullAtLowRegisters) {
  vgpu::Occupancy occ = vgpu::compute_occupancy(DeviceSpec::k20xm(), 32, 256);
  EXPECT_EQ(occ.warps_per_sm, 64);
  EXPECT_DOUBLE_EQ(occ.ratio, 1.0);
}

TEST(Occupancy, RegistersLimit) {
  // 128 regs x 256 threads = 32768 regs per block; 65536/SM -> 2 blocks.
  vgpu::Occupancy occ = vgpu::compute_occupancy(DeviceSpec::k20xm(), 128, 256);
  EXPECT_EQ(occ.blocks_per_sm, 2);
  EXPECT_EQ(occ.limiter, vgpu::OccupancyLimiter::kRegisters);
  EXPECT_DOUBLE_EQ(occ.ratio, 0.25);
}

TEST(Occupancy, GranularityRounding) {
  // 65 regs rounds to 72: 65536 / (72*256) = 3 blocks (not the 3.9 of 65).
  vgpu::Occupancy occ = vgpu::compute_occupancy(DeviceSpec::k20xm(), 65, 256);
  EXPECT_EQ(occ.blocks_per_sm, 3);
}

TEST(Occupancy, BlockCountLimitForTinyBlocks) {
  // 32-thread blocks with few registers: capped by the 16-block limit.
  vgpu::Occupancy occ = vgpu::compute_occupancy(DeviceSpec::k20xm(), 16, 32);
  EXPECT_EQ(occ.blocks_per_sm, 16);
  EXPECT_EQ(occ.limiter, vgpu::OccupancyLimiter::kBlocks);
}

TEST(Occupancy, ThreadLimit) {
  vgpu::Occupancy occ = vgpu::compute_occupancy(DeviceSpec::k20xm(), 16, 1024);
  EXPECT_EQ(occ.blocks_per_sm, 2);  // 2048 threads / 1024
}

TEST(Occupancy, MonotoneInRegisters) {
  double prev = 2.0;
  for (int regs : {32, 48, 64, 96, 128, 192, 255}) {
    vgpu::Occupancy occ = vgpu::compute_occupancy(DeviceSpec::k20xm(), regs, 256);
    EXPECT_LE(occ.ratio, prev) << regs;
    prev = occ.ratio;
  }
}

// -- cache model ---------------------------------------------------------------------

TEST(CacheModel, HitsAfterFill) {
  vgpu::CacheModel cache(1024, 128, 2);  // 8 lines, 2-way, 4 sets
  EXPECT_FALSE(cache.access(0));
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(64));  // same line
  EXPECT_FALSE(cache.access(128));
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(CacheModel, LruEviction) {
  vgpu::CacheModel cache(256, 128, 2);  // exactly 1 set, 2 ways
  cache.access(0);     // miss
  cache.access(128);   // miss
  cache.access(0);     // hit (refresh LRU)
  cache.access(256);   // miss, evicts 128
  EXPECT_TRUE(cache.access(0));
  EXPECT_FALSE(cache.access(128));
}

TEST(CacheModel, SetsIsolateConflicts) {
  vgpu::CacheModel cache(512, 128, 1);  // 4 direct-mapped sets
  cache.access(0);
  cache.access(128);
  cache.access(256);
  cache.access(384);
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(128));
}

// -- bandwidth model -----------------------------------------------------------------

TEST(SimBandwidth, ScatteredTrafficScalesWorseThanLinear) {
  // Two kernels with identical instruction counts; one's loads are scattered.
  // Under the bandwidth model the scattered version must cost more than the
  // pure latency difference (~3x here).
  const char* unit = R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector(128)
  for (i = 0; i < n; i++) { y[i] = x[i] + x[i + 1] + x[i + 2] + x[i + 3]; }
})";
  const char* scat = R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector(128)
  for (i = 0; i < n; i++) {
    y[i] = x[i * 33] + x[i * 33 + 37] + x[i * 33 + 74] + x[i * 33 + 111];
  }
})";
  workloads::Dataset d1;
  d1.arrays.emplace("x", f32_array({{0, 300000}}));
  d1.arrays.emplace("y", f32_array({{0, 8192}}));
  fill_pattern(d1.array("x"), 2);
  d1.scalars.emplace("n", rt::ScalarValue::of_i32(8192));
  workloads::Dataset d2 = d1;
  auto s1 = run_kernel(unit, d1);
  auto s2 = run_kernel(scat, d2);
  EXPECT_GT(s2[0].cycles, s1[0].cycles * 3);
}

// -- parallel-simulation determinism ------------------------------------------
//
// The contract of vgpu::SimOptions::threads: for any thread count, every
// launch produces bit-identical LaunchStats, per-SM profiles, and device
// memory.

struct SimSnapshot {
  std::string result;    // RunResult::to_json — merged LaunchStats, all fields
  std::string profiles;  // Collector::sim_to_json — per-SM profiles per launch
  double checksum = 0.0;
};

SimSnapshot snapshot_workload(const workloads::Workload& w, int threads) {
  obs::Collector collector;
  workloads::RunResult r = workloads::simulate(
      w, driver::CompilerOptions::openuh_safara_clauses(), &collector, {.threads = threads});
  SimSnapshot s;
  s.result = r.to_json().dump(2);
  s.profiles = collector.sim_to_json().dump(2);
  s.checksum = r.checksum;
  return s;
}

TEST(SimDeterminism, AllWorkloadsBitIdenticalAcrossThreadCounts) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int wide = std::max(4, hw);  // thread counts above the core count are valid
  for (const workloads::Workload& w : workloads::all_workloads()) {
    SCOPED_TRACE(w.name);
    const SimSnapshot seq = snapshot_workload(w, 1);
    for (int threads : {2, wide}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const SimSnapshot par = snapshot_workload(w, threads);
      EXPECT_EQ(seq.result, par.result);
      EXPECT_EQ(seq.profiles, par.profiles);
      EXPECT_EQ(seq.checksum, par.checksum);  // exact: same bits, not "close"
    }
  }
}

TEST(SimDeterminism, NoShippedWorkloadTripsTheOverlapChecker) {
  // The bit-identity tests above hold only for race-free kernels, and an
  // assert-enabled build arms the overlap checker by default, which hides a
  // race from them by running the racy launch sequentially. Arming it
  // explicitly sees a cross-SM race in every build type: a shipped workload
  // whose gangs touch memory another gang writes breaks OpenACC's
  // independence rule for parallel loops.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const vgpu::SimOptions sim{.threads = std::max(4, hw), .check_overlap = true};
  std::int64_t parallel_launches = 0;
  for (const workloads::Workload& w : workloads::all_workloads()) {
    SCOPED_TRACE(w.name);
    for (const auto& [config, opts] :
         {std::pair{"openuh_base", driver::CompilerOptions::openuh_base()},
          std::pair{"openuh_safara_clauses", driver::CompilerOptions::openuh_safara_clauses()}}) {
      SCOPED_TRACE(config);
      obs::Collector collector;
      workloads::simulate(w, opts, &collector, sim);
      EXPECT_EQ(collector.metrics.counter("sim.overlap_fallbacks"), 0);
      parallel_launches += collector.metrics.counter("sim.parallel_launches");
    }
  }
  // The checker runs only on parallel launches; without any, this test
  // would pass without checking anything.
  EXPECT_GT(parallel_launches, 0);
}

TEST(SimDeterminism, OverlappingWritesFallBackToSequential) {
  // Every thread writes y[0], so blocks on different SMs share a written
  // granule: the overlap checker must veto the parallel path and the launch
  // must still produce the sequential schedule's exact result.
  const char* src = R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    y[0] = x[i];
  }
})";
  auto run_once = [&](int threads, obs::Collector* collector) {
    workloads::Dataset data;
    data.arrays.emplace("x", f32_array({{0, 4096}}));
    data.arrays.emplace("y", f32_array({{0, 4}}));
    fill_pattern(data.array("x"), 7);
    data.scalars.emplace("n", rt::ScalarValue::of_i32(4096));
    driver::Compiler compiler(driver::CompilerOptions::openuh_base());
    auto prog = compiler.compile(src);
    auto stats = workloads::run(prog, data, vgpu::DeviceSpec::k20xm(), collector,
                         {.threads = threads, .check_overlap = true});
    return std::make_pair(stats[0].cycles, data.array("y").get(0));
  };
  const auto seq = run_once(1, nullptr);
  obs::Collector collector;
  const auto par = run_once(4, &collector);
  EXPECT_EQ(seq.first, par.first);
  EXPECT_EQ(seq.second, par.second);
  const auto metrics = collector.metrics.to_json();
  const auto* fallbacks = metrics.find("counters")->find("sim.overlap_fallbacks");
  ASSERT_NE(fallbacks, nullptr) << "expected the overlap checker to trip";
  EXPECT_GE(fallbacks->as_int(), 1);
}

TEST(SimDeterminism, AtomicKernelsRunSequentiallyAtAnyThreadCount) {
  // Atomic read-modify-write order across SMs is part of the results
  // contract, so kernels with atomics must bypass the parallel path entirely
  // and reproduce the sequential bits exactly.
  const char* src = R"(
void f(int n, const float *x, float *sum) {
  #pragma acc parallel loop gang vector(128)
  for (i = 0; i < n; i++) {
    sum[0] += x[i];
  }
})";
  auto run_once = [&](int threads) {
    workloads::Dataset data;
    data.arrays.emplace("x", f32_array({{0, 5000}}));
    data.arrays.emplace("sum", f32_array({{0, 1}}));
    fill_pattern(data.array("x"), 3);
    data.scalars.emplace("n", rt::ScalarValue::of_i32(5000));
    driver::Compiler compiler(driver::CompilerOptions::openuh_base());
    auto prog = compiler.compile(src);
    workloads::run(prog, data, vgpu::DeviceSpec::k20xm(), nullptr, {.threads = threads});
    return data.array("sum").get(0);
  };
  const double seq = run_once(1);
  const double par = run_once(8);
  EXPECT_EQ(seq, par);  // exact: floating-point order must not change
}

}  // namespace
}  // namespace safara::test

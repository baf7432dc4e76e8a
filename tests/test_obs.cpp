// Observability-layer tests: exact JSON output, tracer span nesting/ordering,
// the Chrome trace-event and metrics documents, metric determinism, and the
// key regression guarantee — attaching a collector must not change what the
// simulator computes (cycle counts, results).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/collector.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tests_common.hpp"

namespace safara::test {
namespace {

using obs::json::Value;

const Value* arg_of(const obs::TraceSpan& span, std::string_view key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return &v;
  }
  return nullptr;
}

// -- JSON value ----------------------------------------------------------------

TEST(ObsJson, DumpMatchesPinnedText) {
  Value doc = Value::object();
  doc["name"] = Value(std::string("blur_k0"));
  doc["regs"] = Value(std::int64_t{42});
  doc["occupancy"] = Value(0.625);
  doc["spilled"] = Value(false);
  doc["note"] = Value(std::string("line1\nline2\t\"quoted\" \\ \x01"));
  Value arr = Value::array();
  arr.push_back(Value(std::int64_t{1}));
  arr.push_back(Value());
  arr.push_back(Value(true));
  doc["mixed"] = std::move(arr);
  doc["empty"] = Value::object();
  doc["inf"] = Value(std::numeric_limits<double>::infinity());  // JSON has no Inf

  EXPECT_EQ(doc.dump(),
            R"({"name":"blur_k0","regs":42,"occupancy":0.625,"spilled":false,)"
            R"("note":"line1\nline2\t\"quoted\" \\ \u0001","mixed":[1,null,true],)"
            R"("empty":{},"inf":null})");
  EXPECT_EQ(doc.dump(2), R"({
  "name": "blur_k0",
  "regs": 42,
  "occupancy": 0.625,
  "spilled": false,
  "note": "line1\nline2\t\"quoted\" \\ \u0001",
  "mixed": [
    1,
    null,
    true
  ],
  "empty": {},
  "inf": null
})");
}

TEST(ObsJson, DumpParsesBackIdentically) {
  // Doubles print in the shortest form that strtod reads back to the same
  // bits, so a consumer's parser sees exactly the value that was recorded.
  for (double d : {0.625, 0.1, 1.0 / 3.0, -2.5e17, 123456.789, 1e-300, 5e-324,
                   std::numeric_limits<double>::max()}) {
    const std::string text = Value(d).dump();
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), d) << text;
  }
  EXPECT_EQ(Value(0.1).dump(), "0.1");
}

TEST(ObsJson, ObjectPreservesInsertionOrder) {
  Value doc = Value::object();
  doc["zebra"] = Value(std::int64_t{1});
  doc["alpha"] = Value(std::int64_t{2});
  doc["mid"] = Value(std::int64_t{3});
  const std::string text = doc.dump();
  EXPECT_LT(text.find("zebra"), text.find("alpha"));
  EXPECT_LT(text.find("alpha"), text.find("mid"));
}

TEST(ObsJson, IntegersStayExactAndIntegralDoublesReadable) {
  Value big(std::int64_t{123456789012345678});
  EXPECT_EQ(big.dump(), "123456789012345678");
  Value d(40.0);
  EXPECT_EQ(d.dump(), "40.0");  // not "4e+01"
}

TEST(ObsJson, Int64BoundariesParseExactly) {
  // The extremes print as exact decimal text (never through a double), which
  // strtoll reads back to the same value.
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(Value(hi).dump(), "9223372036854775807");
  EXPECT_EQ(Value(lo).dump(), "-9223372036854775808");
  EXPECT_EQ(std::strtoll(Value(hi).dump().c_str(), nullptr, 10), hi);
  EXPECT_EQ(std::strtoll(Value(lo).dump().c_str(), nullptr, 10), lo);
}

// -- tracer --------------------------------------------------------------------

TEST(ObsTrace, SpanNestingAndOrdering) {
  obs::Tracer tracer;
  int outer = tracer.begin_span("compile", "driver");
  int inner = tracer.begin_span("regalloc", "backend");
  tracer.set_arg(inner, "regs_used", Value(std::int64_t{17}));
  tracer.end_span(inner);
  int second = tracer.begin_span("codegen", "backend");
  tracer.end_span(second);
  tracer.end_span(outer);

  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  // Recorded in begin order.
  EXPECT_EQ(spans[0].name, "compile");
  EXPECT_EQ(spans[1].name, "regalloc");
  EXPECT_EQ(spans[2].name, "codegen");
  // Nesting: both children point at the root, root has no parent.
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].parent, outer);
  // All closed, with sane timestamps.
  for (const auto& s : spans) {
    EXPECT_GE(s.dur_us, 0) << s.name;
    EXPECT_GE(s.start_us, 0) << s.name;
  }
  // Children are contained in the parent's [start, start+dur] window.
  EXPECT_GE(spans[1].start_us, spans[0].start_us);
  EXPECT_LE(spans[1].start_us + spans[1].dur_us, spans[0].start_us + spans[0].dur_us);
  // The attribute landed on the right span.
  const Value* regs = arg_of(spans[1], "regs_used");
  ASSERT_NE(regs, nullptr);
  EXPECT_EQ(regs->as_int(), 17);
}

TEST(ObsTrace, EndSpanClosesOpenDescendants) {
  obs::Tracer tracer;
  int outer = tracer.begin_span("outer", "t");
  tracer.begin_span("forgotten", "t");
  tracer.end_span(outer);  // must close the dangling child too
  for (const auto& s : tracer.spans()) EXPECT_GE(s.dur_us, 0) << s.name;
}

TEST(ObsTrace, ScopedSpanIsNullSafe) {
  // A null tracer must be a no-op, not a crash: every instrumentation site
  // relies on this for the collector-off path.
  obs::ScopedSpan span(nullptr, "noop", "test");
  span.set_arg("k", Value(std::int64_t{1}));
}

TEST(ObsTrace, ChromeTraceSchemaIsWellFormed) {
  obs::Tracer tracer;
  int a = tracer.begin_span("alpha", "cat");
  tracer.set_arg(a, "answer", Value(std::int64_t{42}));
  tracer.end_span(a);

  const Value doc = tracer.chrome_trace();
  const Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GE(events->size(), 1u);
  const Value& e = events->at(0);
  EXPECT_EQ(e.find("name")->as_string(), "alpha");
  EXPECT_EQ(e.find("ph")->as_string(), "X");
  ASSERT_NE(e.find("ts"), nullptr);
  ASSERT_NE(e.find("dur"), nullptr);
  ASSERT_NE(e.find("pid"), nullptr);
  ASSERT_NE(e.find("tid"), nullptr);
  const Value* args = e.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("answer")->as_int(), 42);
}

// -- metrics -------------------------------------------------------------------

TEST(ObsMetrics, CountersAccumulateAndGaugesOverwrite) {
  obs::MetricsRegistry m;
  m.add("sim.launches");
  m.add("sim.launches");
  m.add("sim.cycles", 100);
  m.set("regalloc.regs", 40.0);
  m.set("regalloc.regs", 32.0);
  Value doc = m.to_json();
  EXPECT_EQ(doc.find("counters")->find("sim.launches")->as_int(), 2);
  EXPECT_EQ(doc.find("counters")->find("sim.cycles")->as_int(), 100);
  EXPECT_EQ(doc.find("gauges")->find("regalloc.regs")->as_double(), 32.0);
}

// -- compiler pipeline instrumentation -----------------------------------------

const char* kBlurSource = R"(
void blur(int n, int m, const float src[?][?], float dst[?][?]) {
  #pragma acc parallel loop gang vector(64) dim((0:n, 0:m)(src, dst)) small(src, dst)
  for (i = 1; i < n - 1; i++) {
    #pragma acc loop seq
    for (k = 1; k < m - 1; k++) {
      dst[i][k] = 0.25f * (src[i][k-1] + 2.0f * src[i][k] + src[i][k+1]);
    }
  }
})";

workloads::Dataset blur_data(int n, int m) {
  workloads::Dataset data;
  data.arrays.emplace("src", f32_array({{0, n}, {0, m}}));
  data.arrays.emplace("dst", f32_array({{0, n}, {0, m}}));
  fill_pattern(data.array("src"), 7);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(n));
  data.scalars.emplace("m", rt::ScalarValue::of_i32(m));
  return data;
}

TEST(ObsCompiler, EmitsPipelineAndSafaraSpans) {
  obs::Collector collector;
  driver::Compiler compiler(driver::CompilerOptions::openuh_safara_clauses(), &collector);
  compiler.compile(kBlurSource);

  auto has_span = [&](const std::string& name) {
    for (const auto& s : collector.tracer.spans()) {
      if (s.name == name) return true;
    }
    return false;
  };
  for (const char* want : {"compile", "frontend.parse", "sema", "opt.safara",
                           "safara.region", "safara.iteration", "codegen", "regalloc"}) {
    EXPECT_TRUE(has_span(want)) << "missing span " << want;
  }

  // Every SAFARA iteration span carries the register-count attributes the
  // acceptance criteria call for.
  int iterations = 0;
  for (const auto& s : collector.tracer.spans()) {
    if (s.name != "safara.iteration") continue;
    ++iterations;
    for (const char* attr : {"iteration", "regs_reported", "register_budget",
                             "regs_predicted_after"}) {
      EXPECT_NE(arg_of(s, attr), nullptr) << "iteration span lacks " << attr;
    }
  }
  EXPECT_GE(iterations, 1);
  EXPECT_GE(collector.metrics.to_json().find("counters")->find("safara.iterations")->as_int(),
            iterations);
}

TEST(ObsCompiler, EmitsRegallocAndSsaMetrics) {
  obs::Collector collector;
  driver::Compiler compiler(driver::CompilerOptions::openuh_safara_clauses(), &collector);
  compiler.compile(kBlurSource);

  // The coloring allocator's counters must exist (created even at zero) so
  // dashboards can rely on the keys, and the iteration counter must cover at
  // least one build/simplify/select round per compiled kernel.
  const auto& metrics = collector.metrics;
  for (const char* key : {"regalloc.coalesced", "regalloc.split_ranges",
                          "regalloc.remat", "regalloc.spills", "regalloc.iterations"}) {
    EXPECT_NE(metrics.counters().find(key), metrics.counters().end())
        << "missing counter " << key;
  }
  EXPECT_GE(metrics.counter("regalloc.iterations"), 1);

  // SSA construction ran inside the pipeline: every kernel gets a
  // vir.phi_count.<kernel> gauge (zero for straight-line kernels).
  bool phi_gauge = false;
  for (const auto& [k, v] : metrics.gauges()) {
    if (k.rfind("vir.phi_count.", 0) == 0) {
      phi_gauge = true;
      EXPECT_GE(v, 0.0) << k;
    }
  }
  EXPECT_TRUE(phi_gauge) << "no vir.phi_count.* gauge was set";
}

TEST(ObsCompiler, MetricsDeterministicAcrossRuns) {
  auto run_once = [] {
    // The feedback cache is process-wide, so a second compile of the same
    // source would see hits where the first saw misses; start each run cold
    // to compare like with like.
    driver::clear_safara_feedback_cache();
    obs::Collector collector;
    driver::Compiler compiler(driver::CompilerOptions::openuh_safara_clauses(), &collector);
    compiler.compile(kBlurSource);
    return collector.metrics.to_json().dump(2);
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);
}

TEST(ObsCompiler, MetricsReportRoundTripsThroughParser) {
  obs::Collector collector;
  driver::Compiler compiler(driver::CompilerOptions::openuh_safara_clauses(), &collector);
  auto prog = compiler.compile(kBlurSource);
  workloads::Dataset data = blur_data(64, 64);
  workloads::run(prog, data, vgpu::DeviceSpec::k20xm(), &collector);

  // The --metrics-out document: numeric counters plus the launch profiles.
  const Value report = collector.report();
  const Value* metrics = report.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const Value* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(metrics->find("gauges"), nullptr);
  for (const auto& [k, v] : counters->members()) {
    EXPECT_TRUE(v.is_number()) << "counter " << k;
  }
  ASSERT_NE(counters->find("sim.launches"), nullptr);
  const Value* sim = report.find("sim");
  ASSERT_NE(sim, nullptr);
  ASSERT_NE(sim->find("launches"), nullptr);

  // The --trace-out document: every event follows the Chrome trace-event
  // schema Perfetto needs, and the pass spans and counter tracks are all there.
  const Value trace = collector.tracer.chrome_trace();
  const Value* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<std::string> spans, tracks;
  for (const Value& e : events->items()) {
    const Value* name = e.find("name");
    const Value* ph = e.find("ph");
    ASSERT_TRUE(name && name->is_string());
    ASSERT_TRUE(ph && ph->is_string()) << name->as_string();
    for (const char* key : {"ts", "pid", "tid"}) {
      const Value* v = e.find(key);
      EXPECT_TRUE(v && v->is_number()) << name->as_string() << " lacks numeric " << key;
    }
    if (ph->as_string() == "X") {
      const Value* dur = e.find("dur");
      ASSERT_TRUE(dur && dur->is_number()) << name->as_string();
      EXPECT_GE(dur->as_double(), 0.0) << name->as_string();
      spans.insert(name->as_string());
    } else if (ph->as_string() == "C") {
      const Value* args = e.find("args");
      const Value* value = args ? args->find("value") : nullptr;
      EXPECT_TRUE(value && value->is_number()) << name->as_string();
      tracks.insert(name->as_string());
    }
  }
  EXPECT_TRUE(spans.contains("safara.iteration"));
  EXPECT_TRUE(spans.contains("regalloc"));
  EXPECT_TRUE(std::any_of(tracks.begin(), tracks.end(), [](const std::string& t) {
    return t.ends_with(".active_warps");
  })) << "no active_warps counter track";
}

// -- simulator profiling -------------------------------------------------------

TEST(ObsSim, CyclesIdenticalWithAndWithoutCollector) {
  driver::Compiler compiler(driver::CompilerOptions::openuh_safara_clauses());
  auto prog = compiler.compile(kBlurSource);

  workloads::Dataset plain = blur_data(96, 96);
  workloads::Dataset observed = plain;
  auto base_stats = workloads::run(prog, plain);

  obs::Collector collector;
  auto obs_stats = workloads::run(prog, observed, vgpu::DeviceSpec::k20xm(), &collector);

  ASSERT_EQ(base_stats.size(), obs_stats.size());
  for (std::size_t i = 0; i < base_stats.size(); ++i) {
    EXPECT_EQ(base_stats[i].cycles, obs_stats[i].cycles) << "launch " << i;
    EXPECT_EQ(base_stats[i].warp_instructions, obs_stats[i].warp_instructions);
    EXPECT_EQ(base_stats[i].mem_transactions, obs_stats[i].mem_transactions);
    EXPECT_EQ(base_stats[i].spill_accesses, obs_stats[i].spill_accesses);
    EXPECT_EQ(base_stats[i].regs_per_thread, obs_stats[i].regs_per_thread);
  }
  // Observation must not perturb results either.
  expect_arrays_near(plain.array("dst"), observed.array("dst"), 0.0, "dst");
}

TEST(ObsTrace, CounterEventsFollowSpansInChromeTrace) {
  obs::Tracer tracer;
  int a = tracer.begin_span("alpha", "cat");
  tracer.end_span(a);
  tracer.add_counter("sm0.active_warps", 0, 24.0);
  tracer.add_counter("sm0.active_warps", 100, 0.0);
  EXPECT_FALSE(tracer.empty());

  Value doc = tracer.chrome_trace();
  const Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 3u);
  // Span events stay first so consumers relying on event 0 being a span keep
  // working; counter samples follow with the Perfetto "C" schema.
  EXPECT_EQ(events->at(0).find("ph")->as_string(), "X");
  for (std::size_t i = 1; i < events->size(); ++i) {
    const Value& e = events->at(i);
    EXPECT_EQ(e.find("ph")->as_string(), "C");
    EXPECT_EQ(e.find("name")->as_string(), "sm0.active_warps");
    EXPECT_EQ(e.find("pid")->as_int(), 2);
    ASSERT_NE(e.find("args"), nullptr);
    EXPECT_TRUE(e.find("args")->find("value")->is_number());
  }
}

TEST(ObsSim, ProfileAccountingIsSelfConsistent) {
  driver::Compiler compiler(driver::CompilerOptions::openuh_safara_clauses());
  auto prog = compiler.compile(kBlurSource);
  workloads::Dataset data = blur_data(96, 96);
  obs::Collector collector;
  auto stats = workloads::run(prog, data, vgpu::DeviceSpec::k20xm(), &collector);

  ASSERT_EQ(collector.sim_profiles.size(), stats.size());
  for (std::size_t i = 0; i < collector.sim_profiles.size(); ++i) {
    const obs::KernelSimProfile& prof = collector.sim_profiles[i];
    EXPECT_EQ(prof.launch_index, static_cast<int>(i));
    ASSERT_FALSE(prof.sms.empty());

    std::uint64_t issued = 0;
    std::uint64_t blocks = 0;
    for (const obs::SmProfile& sm : prof.sms) {
      // Per-SM activity cannot exceed that SM's cycle count, and every SM
      // plus its tail idle spans the launch exactly.
      EXPECT_LE(sm.issue_cycles, sm.cycles) << "sm " << sm.sm;
      EXPECT_EQ(sm.cycles + sm.stall_no_warp, stats[i].cycles) << "sm " << sm.sm;
      issued += sm.issued_instructions;
      blocks += sm.blocks_executed;
      // The per-pc attribution rows partition each SM-level bucket exactly.
      std::uint64_t pc_issued = 0, pc_issue_cycles = 0, pc_sb = 0, pc_mem = 0;
      for (const obs::PcProfile& pc : sm.pcs) {
        pc_issued += pc.issued;
        pc_issue_cycles += pc.issue_cycles;
        pc_sb += pc.stall_scoreboard;
        pc_mem += pc.stall_memory;
      }
      EXPECT_EQ(pc_issued, sm.issued_instructions) << "sm " << sm.sm;
      EXPECT_EQ(pc_issue_cycles, sm.issue_cycles) << "sm " << sm.sm;
      EXPECT_EQ(pc_sb, sm.stall_scoreboard) << "sm " << sm.sm;
      EXPECT_EQ(pc_mem, sm.stall_memory) << "sm " << sm.sm;
      // Attached collector implies a populated occupancy timeline.
      EXPECT_FALSE(sm.warp_timeline.empty()) << "sm " << sm.sm;
    }
    EXPECT_EQ(issued, stats[i].warp_instructions);
    EXPECT_GT(blocks, 0u);

    const obs::SmProfile totals = prof.totals();
    EXPECT_EQ(totals.cycles, stats[i].cycles);
    EXPECT_EQ(totals.issued_instructions, issued);

    // The launch snapshot embedded in the profile matches the stats.
    const Value* cycles = prof.launch_stats.find("cycles");
    ASSERT_NE(cycles, nullptr);
    EXPECT_EQ(static_cast<std::uint64_t>(cycles->as_int()), stats[i].cycles);
  }
}

// -- the run path --------------------------------------------------------------

TEST(ObsHarness, SimulateSpansEachHostPhaseOnce) {
  // The host phases of a workload run sit inside its `workload.simulate`
  // span: the dataset build, the alloc+copy-in, every launch, the copy-out
  // and the checksum, so --time-passes leaves little to the parent's self
  // time.
  const workloads::Workload* w = workloads::find_workload("303.ostencil");
  ASSERT_NE(w, nullptr);
  obs::Collector collector;
  const workloads::RunResult run = workloads::simulate(
      *w, driver::CompilerOptions::openuh_base(), &collector, {.threads = 1});

  const std::vector<obs::TraceSpan>& spans = collector.tracer.spans();
  int simulate = -1;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "workload.simulate") continue;
    ASSERT_EQ(simulate, -1) << "more than one workload.simulate span";
    simulate = static_cast<int>(i);
  }
  ASSERT_GE(simulate, 0);
  std::map<std::string, int> inside;
  for (const obs::TraceSpan& s : spans) {
    for (int p = s.parent; p >= 0; p = spans[static_cast<std::size_t>(p)].parent) {
      if (p == simulate) ++inside[s.name];
    }
  }
  for (const char* phase :
       {"workloads.dataset", "rt.copy_in", "rt.copy_out", "workloads.checksum"}) {
    EXPECT_EQ(inside[phase], 1) << phase;
  }
  EXPECT_EQ(inside["sim.launch"], static_cast<int>(run.kernels.size()) * w->time_steps);
  EXPECT_GT(w->time_steps, 1);
}

}  // namespace
}  // namespace safara::test

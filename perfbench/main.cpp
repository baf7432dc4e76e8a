// The repository benchmark: one closed-loop, single-process load generator
// over the library's public entry points. README.md in this directory lists
// the workloads and every metric; run.py builds this binary and runs it.
//
//   perfbench --workload {spec-figure,compile-fuzz,nas-grid} --seed N
//             --seconds T --trace {0,1} [--setup-only] [--cells-out FILE]
//             [--spans-out FILE]
//
// --trace 0 times the real entry points and prints the end-to-end metrics.
// --trace 1 alternates untraced passes with passes that replay every job
// through the traced layer-by-layer path (replay.hpp), checks that both build
// byte-identical programs and results, and prints the per-layer metrics.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every job passed its checks.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "driver/compiler.hpp"
#include "driver/eval_grid.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracles.hpp"
#include "obs/json.hpp"
#include "replay.hpp"
#include "support/thread_pool.hpp"
#include "vgpu/sim.hpp"
#include "workloads/harness.hpp"

namespace safara::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// The one place the benchmark sets the library's process-wide knobs. Every
/// simulation runs on one sim thread (which also keeps the known 356.sp
/// cross-gang race out of the numbers); nas-grid fans its cells out over
/// every CPU the process may use, and the grid pins each cell to one sim
/// thread itself. Called once, before the timed passes; the fuzz oracles,
/// which reset the sim knobs, run only after them.
void pin_host_threads() {
  vgpu::set_sim_threads(1);
  driver::set_grid_threads(host_cpus());
}

constexpr int kFuzzPrograms = 200;
constexpr std::size_t kWarmUpPrograms = 10;
// The 2e-3 relative tolerance tests/test_workloads.cpp allows between the
// simulator and the CPU reference (atomic float reductions reorder sums).
constexpr double kChecksumTolerance = 2e-3;

enum class Kind { kSpecFigure, kCompileFuzz, kNasGrid };

struct NamedConfig {
  std::string name;
  driver::CompilerOptions opts;
};

struct Job {
  int program = 0;  // index into Bench::suite or Bench::programs
  int config = 0;
};

struct Bench {
  Kind kind = Kind::kSpecFigure;
  std::vector<const workloads::Workload*> suite;
  std::vector<std::string> programs;
  std::vector<NamedConfig> configs;
  std::vector<Job> order;  // one pass, in the order it runs
  int pgi = -1;            // speedup_vs_pgi: cycles(configs[pgi]) / cycles(configs[best])
  int best = -1;

  bool simulates() const { return kind != Kind::kCompileFuzz; }
  int program_count() const {
    return simulates() ? static_cast<int>(suite.size()) : static_cast<int>(programs.size());
  }
  int job_id(const Job& j) const {
    return j.program * static_cast<int>(configs.size()) + j.config;
  }
};

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Everything before the first timed job except the benchmark's own checks:
/// the workload table, program generation, the grid's thread pool and a
/// warm-up compile.
Bench set_up(const std::string& workload, std::uint64_t seed) {
  using Opts = driver::CompilerOptions;
  Bench b;
  if (workload == "spec-figure") {
    b.kind = Kind::kSpecFigure;
    b.suite = workloads::spec_suite();
    b.configs = {{"base", Opts::openuh_base()},
                 {"small", Opts::openuh_small()},
                 {"small+dim", Opts::openuh_small_dim()},
                 {"SAFARA", Opts::openuh_safara()},
                 {"small+dim+SAFARA", Opts::openuh_safara_clauses()},
                 {"PGI-like", Opts::pgi_like()}};
    b.best = 4;
    b.pgi = 5;
  } else if (workload == "compile-fuzz") {
    b.kind = Kind::kCompileFuzz;
    for (int i = 0; i < kFuzzPrograms; ++i) {
      b.programs.push_back(fuzz::generate_program(seed + static_cast<std::uint64_t>(i)));
    }
    b.configs = {{"base", Opts::openuh_base()},
                 {"SAFARA", Opts::openuh_safara()},
                 {"small+dim+SAFARA", Opts::openuh_safara_clauses()},
                 {"PGI-like", Opts::pgi_like()}};
  } else if (workload == "nas-grid") {
    b.kind = Kind::kNasGrid;
    b.suite = workloads::nas_suite();
    Opts safara_small = Opts::openuh_safara();
    safara_small.honor_small = true;
    b.configs = {{"base", Opts::openuh_base()},
                 {"small", Opts::openuh_small()},
                 {"SAFARA", Opts::openuh_safara()},
                 {"SAFARA+small", safara_small},
                 {"PGI-like", Opts::pgi_like()}};
    b.best = 3;
    b.pgi = 4;
    support::ThreadPool::shared();
  } else {
    throw std::invalid_argument("unknown workload '" + workload +
                                "' (expected spec-figure, compile-fuzz or nas-grid)");
  }
  for (int p = 0; p < b.program_count(); ++p) {
    for (int c = 0; c < static_cast<int>(b.configs.size()); ++c) b.order.push_back({p, c});
  }
  // spec-figure runs its jobs in a seeded order: results must not depend on
  // what ran before. nas-grid keeps row-major order, because the order sets
  // which cells form the grid's tail, and that tail is what it measures.
  if (b.kind == Kind::kSpecFigure) {
    std::uint64_t state = seed;
    for (std::size_t i = b.order.size(); i > 1; --i) {
      std::swap(b.order[i - 1], b.order[splitmix64(state) % i]);
    }
  }
  // Warm-up: compile every suite workload, or the first fuzz programs, under
  // every config, so the compile layers' lazy set-up is paid here and not by
  // the first timed jobs. It also makes set-up mostly compute, which keeps
  // setup_s steadier than process start-up alone would be.
  for (const NamedConfig& c : b.configs) {
    for (const workloads::Workload* w : b.suite) {
      driver::Compiler(c.opts).compile(w->source, w->function);
    }
    for (std::size_t i = 0; i < b.programs.size() && i < kWarmUpPrograms; ++i) {
      driver::Compiler(c.opts).compile(b.programs[i]);
    }
  }
  return b;
}

// -- job outcomes ----------------------------------------------------------------

struct Outcome {
  bool ran = false;              // false when the job threw
  std::uint64_t signature = 0;   // RunResult JSON (simulate) or dump_vir (compile)
  std::uint64_t vir_signature = 0;  // traced replay of a simulate job: its dump_vir
  std::uint64_t cycles = 0;
  std::uint64_t warp_instructions = 0;
  std::uint64_t mem_transactions = 0;
  std::uint64_t spill_accesses = 0;
  std::uint64_t shared_bank_conflicts = 0;
  std::uint64_t regs = 0;
  double checksum = 0.0;
  double min_occupancy = 1.0;
  double ms = 0.0;  // host latency of the entry point (or the replayed job)
};

void record_result(Outcome& o, const workloads::RunResult& r) {
  o.signature = fnv1a(r.to_json().dump());
  o.cycles = r.cycles;
  o.warp_instructions = r.warp_instructions;
  o.mem_transactions = r.mem_transactions;
  o.spill_accesses = r.spill_accesses;
  o.shared_bank_conflicts = r.shared_bank_conflicts;
  o.checksum = r.checksum;
  o.min_occupancy = r.min_occupancy;
  for (const workloads::KernelMetrics& k : r.kernels) o.regs += static_cast<std::uint64_t>(k.regs);
}

/// The untimed correctness oracles: the CPU reference checksum of every
/// simulated workload, and the fuzz oracles of every generated program.
struct Gates {
  std::vector<double> reference;  // per suite workload
  std::vector<bool> program_ok;   // per fuzz program
};

Gates run_gates(const Bench& b) {
  Gates g;
  if (b.simulates()) {
    g.reference.assign(b.suite.size(), std::numeric_limits<double>::quiet_NaN());
    driver::eval_grid(static_cast<std::int64_t>(b.suite.size()), [&](std::int64_t i) {
      const workloads::Workload& w = *b.suite[static_cast<std::size_t>(i)];
      try {
        g.reference[static_cast<std::size_t>(i)] = workloads::run_reference(w).checksum;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: reference of %s failed: %s\n", w.name.c_str(), e.what());
      }
    });
  } else {
    for (const std::string& src : b.programs) {
      bool ok = true;
      for (const fuzz::Oracle o : {fuzz::Oracle::kRefVsSim, fuzz::Oracle::kSafaraOnOff}) {
        const fuzz::OracleResult r = fuzz::run_oracle(src, o);
        if (r.status != fuzz::Status::kOk) {
          std::fprintf(stderr, "perfbench: oracle %s failed: %s\n", fuzz::to_string(o),
                       r.detail.c_str());
          ok = false;
        }
      }
      g.program_ok.push_back(ok);
    }
  }
  return g;
}

bool checksum_ok(double sim, double ref) {
  const double denom = std::max({std::fabs(sim), std::fabs(ref), 1e-30});
  return std::fabs(sim - ref) / denom <= kChecksumTolerance;  // false for NaN
}

/// Runs one job through the public entry point, timing only that call.
Outcome run_job(const Bench& b, const Job& j) {
  Outcome o;
  const driver::CompilerOptions& opts = b.configs[static_cast<std::size_t>(j.config)].opts;
  try {
    if (b.simulates()) {
      const workloads::Workload& w = *b.suite[static_cast<std::size_t>(j.program)];
      const Clock::time_point t0 = Clock::now();
      const workloads::RunResult r = workloads::simulate(w, opts);
      o.ms = seconds_since(t0) * 1e3;
      record_result(o, r);
    } else {
      const std::string& src = b.programs[static_cast<std::size_t>(j.program)];
      const Clock::time_point t0 = Clock::now();
      const driver::CompiledProgram prog = driver::Compiler(opts).compile(src);
      o.ms = seconds_since(t0) * 1e3;
      o.signature = fnv1a(driver::dump_vir(prog));
    }
    o.ran = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: job %d/%d threw: %s\n", j.program, j.config, e.what());
  }
  return o;
}

/// Runs one job through the traced replay. The job span covers only the
/// replayed calls; signatures are taken after it closes.
Outcome replay_job(const Bench& b, const Job& j, FeedbackMemo& memo, JobTrace& trace) {
  Outcome o;
  const driver::CompilerOptions& opts = b.configs[static_cast<std::size_t>(j.config)].opts;
  try {
    if (b.simulates()) {
      const workloads::Workload& w = *b.suite[static_cast<std::size_t>(j.program)];
      ReplayedRun run;
      {
        SpanScope job(trace, Layer::kJob);
        run = replay_simulate(trace, memo, w, opts);
      }
      record_result(o, run.result);
      o.vir_signature = fnv1a(driver::dump_vir(run.program));
    } else {
      driver::CompiledProgram prog;
      {
        SpanScope job(trace, Layer::kJob);
        prog = replay_compile(trace, memo, b.programs[static_cast<std::size_t>(j.program)], "",
                              opts);
      }
      o.signature = fnv1a(driver::dump_vir(prog));
    }
    const Span& root = trace.spans().front();
    o.ms = static_cast<double>(root.t1_ns - root.t0_ns) * 1e-6;
    o.ran = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: replay of job %d/%d threw: %s\n", j.program, j.config,
                 e.what());
  }
  return o;
}

// -- passes ------------------------------------------------------------------------

struct Pass {
  std::vector<Outcome> jobs;  // by job id
  double seconds = 0.0;       // pass time: wall for the grid, busy time otherwise
  double wall = 0.0;
  double job_seconds = 0.0;   // sum of job latencies
};

/// One pass over every job. `fn(job)` returns its outcome; nas-grid fans the
/// jobs out on the evaluation grid, the other workloads run them in order.
template <typename Fn>
Pass run_pass(const Bench& b, Fn&& fn) {
  Pass p;
  p.jobs.resize(b.order.size());
  const Clock::time_point t0 = Clock::now();
  if (b.kind == Kind::kNasGrid) {
    driver::eval_grid(static_cast<std::int64_t>(b.order.size()), [&](std::int64_t i) {
      const Job& j = b.order[static_cast<std::size_t>(i)];
      p.jobs[static_cast<std::size_t>(b.job_id(j))] = fn(j);
    });
  } else {
    for (const Job& j : b.order) p.jobs[static_cast<std::size_t>(b.job_id(j))] = fn(j);
  }
  p.wall = seconds_since(t0);
  for (const Outcome& o : p.jobs) p.job_seconds += o.ms * 1e-3;
  p.seconds = b.kind == Kind::kNasGrid ? p.wall : p.job_seconds;
  return p;
}

double jobs_per_s(const Pass& p) { return static_cast<double>(p.jobs.size()) / p.seconds; }

/// What a run keeps of its passes: the first pass whole, and of every pass
/// its timings and which jobs reproduced the first pass exactly. The
/// benchmark's own memory stays flat however many passes run.
struct PassLog {
  Pass first;
  std::vector<std::vector<bool>> reproduced;  // per pass, by job id
  std::vector<double> min_ms;                 // by job id: the fastest pass
  std::vector<double> walls;                  // per pass
  std::vector<double> rates;                  // per pass: jobs_per_s
  std::vector<double> winst_rates;            // per pass: warp instructions per second
  std::vector<double> idle;                   // per pass: the grid's idle share

  void add(const Pass& p, int parallelism) {
    if (reproduced.empty()) {
      first = p;
      min_ms.assign(p.jobs.size(), std::numeric_limits<double>::infinity());
    }
    std::vector<bool> same(p.jobs.size());
    double winst = 0.0;
    for (std::size_t id = 0; id < p.jobs.size(); ++id) {
      const Outcome& o = p.jobs[id];
      const Outcome& f = first.jobs[id];
      same[id] = o.ran && o.signature == f.signature && o.vir_signature == f.vir_signature;
      min_ms[id] = std::min(min_ms[id], o.ms);
      winst += static_cast<double>(o.warp_instructions);
    }
    reproduced.push_back(std::move(same));
    walls.push_back(p.wall);
    rates.push_back(jobs_per_s(p));
    winst_rates.push_back(winst / p.seconds);
    idle.push_back(1.0 - p.job_seconds / (p.wall * parallelism));
  }

  std::size_t passes() const { return reproduced.size(); }

  std::int64_t attempted() const {
    return static_cast<std::int64_t>(passes() * first.jobs.size());
  }

  /// Jobs that failed in any pass: they did not reproduce the first pass, or
  /// their first-pass outcome failed its checks (`first_ok`, by job id).
  std::int64_t failed(const std::vector<bool>& first_ok) const {
    std::int64_t n = 0;
    for (const std::vector<bool>& same : reproduced) {
      for (std::size_t id = 0; id < same.size(); ++id) n += !(same[id] && first_ok[id]);
    }
    return n;
  }
};

// -- statistics ----------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  using obs::json::Value;
  Value out = Value::object();
  out["correct"] = Value(correct);
  out["attempted"] = Value(attempted);
  out["failed"] = Value(failed);
  Value& values = out["metrics"] = Value::object();
  for (const Metric& m : metrics) {
    Value& v = values[m.name] = Value::object();
    v["value"] = Value(m.value);
    v["unit"] = Value(m.unit);
  }
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
}

/// Simulated-clock summary of one (verified) pass.
struct DeviceSummary {
  double cycles = 0.0;
  double speedup_vs_pgi = 0.0;
};

DeviceSummary device_summary(const Bench& b, const Pass& p) {
  DeviceSummary d;
  for (const Outcome& o : p.jobs) d.cycles += static_cast<double>(o.cycles);
  double log_sum = 0.0;
  for (int w = 0; w < b.program_count(); ++w) {
    const Outcome& pgi = p.jobs[static_cast<std::size_t>(b.job_id({w, b.pgi}))];
    const Outcome& best = p.jobs[static_cast<std::size_t>(b.job_id({w, b.best}))];
    log_sum += std::log(static_cast<double>(pgi.cycles) / static_cast<double>(best.cycles));
  }
  d.speedup_vs_pgi = std::exp(log_sum / b.program_count());
  return d;
}

void write_file(const std::string& path, const obs::json::Value& doc) {
  std::ofstream out(path);
  out << doc.dump(1) << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Simulated cycles, registers and checksum of every cell of one pass.
void write_cells(const Bench& b, const Pass& p, const std::string& path) {
  using obs::json::Value;
  Value doc = Value::object();
  for (int w = 0; w < b.program_count(); ++w) {
    Value& row = doc[b.suite[static_cast<std::size_t>(w)]->name] = Value::object();
    for (std::size_t c = 0; c < b.configs.size(); ++c) {
      const Outcome& o = p.jobs[static_cast<std::size_t>(b.job_id({w, static_cast<int>(c)}))];
      Value& cell = row[b.configs[c].name] = Value::object();
      cell["cycles"] = Value(o.cycles);
      cell["regs"] = Value(o.regs);
      cell["checksum"] = Value(o.checksum);
    }
  }
  write_file(path, doc);
}

// -- the traced run ------------------------------------------------------------------

struct TracedPass {
  Pass pass;
  std::vector<JobTrace> traces;  // by job id
};

/// Writes one traced pass as a Chrome trace (chrome://tracing, Perfetto):
/// one complete event per span, one track per job.
void write_spans(const TracedPass& tp, const std::string& path) {
  using obs::json::Value;
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const JobTrace& t : tp.traces) {
    if (!t.spans().empty()) origin = std::min(origin, t.spans().front().t0_ns);
  }
  Value events = Value::array();
  for (std::size_t id = 0; id < tp.traces.size(); ++id) {
    const std::vector<Span>& spans = tp.traces[id].spans();
    for (std::size_t s = 0; s < spans.size(); ++s) {
      Value e = Value::object();
      e["name"] = Value(to_string(spans[s].layer));
      e["ph"] = Value("X");
      e["pid"] = Value(1);
      e["tid"] = Value(static_cast<std::uint64_t>(id));
      e["ts"] = Value(static_cast<double>(spans[s].t0_ns - origin) * 1e-3);
      e["dur"] = Value(static_cast<double>(spans[s].t1_ns - spans[s].t0_ns) * 1e-3);
      Value& args = e["args"] = Value::object();
      args["job"] = Value(static_cast<std::uint64_t>(id));
      args["span"] = Value(static_cast<std::uint64_t>(s));
      args["parent"] = Value(spans[s].parent);
      events.push_back(std::move(e));
    }
  }
  Value doc = Value::object();
  doc["traceEvents"] = std::move(events);
  write_file(path, doc);
}

/// Per-layer values of one traced pass; the caller takes medians over
/// passes. Fails `sums_ok` unless the layers' self times add up to the jobs'
/// wall time exactly.
std::vector<Metric> layer_values(const Bench& b, const TracedPass& tp, bool& sums_ok) {
  SelfTimes self{};
  LayerCounts counts;
  std::int64_t job_ns = 0;
  std::int64_t compile_ns = 0;
  for (const JobTrace& t : tp.traces) {
    if (t.spans().empty()) continue;
    const SelfTimes s = self_times(t);
    for (std::size_t l = 0; l < s.size(); ++l) self[l] += s[l];
    counts += t.counts;
    job_ns += t.spans().front().t1_ns - t.spans().front().t0_ns;
    for (const Span& span : t.spans()) {
      if (span.layer == Layer::kCompile) compile_ns += span.t1_ns - span.t0_ns;
    }
  }
  std::int64_t self_sum = 0;
  for (const std::int64_t s : self) self_sum += s;
  if (self_sum != job_ns) sums_ok = false;

  double warp_instructions = 0, mem_transactions = 0, spill_accesses = 0, bank_conflicts = 0;
  double min_occupancy = b.simulates() ? 1.0 : 0.0;
  for (const Outcome& o : tp.pass.jobs) {
    warp_instructions += static_cast<double>(o.warp_instructions);
    mem_transactions += static_cast<double>(o.mem_transactions);
    spill_accesses += static_cast<double>(o.spill_accesses);
    bank_conflicts += static_cast<double>(o.shared_bank_conflicts);
    if (b.simulates()) min_occupancy = std::min(min_occupancy, o.min_occupancy);
  }

  auto ms = [&](Layer l) { return static_cast<double>(self[static_cast<std::size_t>(l)]) * 1e-6; };
  auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  const std::uint64_t ro_accesses = counts.ro_hits + counts.ro_misses;
  return {
      {"parse.ms", ms(Layer::kParse), "ms"},
      {"parse.calls", count(counts.parse_calls), "count"},
      {"sema.ms", ms(Layer::kSema), "ms"},
      {"sema.calls", count(counts.sema_calls), "count"},
      {"opt.safara_ms", ms(Layer::kOpt), "ms"},
      {"opt.feedback_lookups", count(counts.feedback_lookups), "count"},
      {"opt.feedback_compiles", count(counts.feedback_compiles), "count"},
      {"opt.feedback_hit_ratio",
       ratio(counts.feedback_lookups - counts.feedback_compiles, counts.feedback_lookups), "ratio"},
      {"opt.groups_replaced", count(counts.groups_replaced), "count"},
      {"codegen.ms", ms(Layer::kCodegen), "ms"},
      {"codegen.kernels", count(counts.codegen_kernels), "count"},
      {"vir.ms", ms(Layer::kVir), "ms"},
      {"vir.instrs", count(counts.vir_instrs), "count"},
      {"regalloc.ms", ms(Layer::kRegalloc), "ms"},
      {"regalloc.regs", count(counts.regs), "count"},
      {"regalloc.spill_bytes", count(counts.spill_bytes), "bytes"},
      {"workloads.dataset_ms", ms(Layer::kDataset), "ms"},
      {"workloads.checksum_ms", ms(Layer::kChecksum), "ms"},
      {"rt.copy_in_ms", ms(Layer::kCopyIn), "ms"},
      {"rt.copy_out_ms", ms(Layer::kCopyOut), "ms"},
      {"rt.bytes_copied", count(counts.bytes_copied), "bytes"},
      {"vgpu.ms", ms(Layer::kLaunch), "ms"},
      {"vgpu.launches", count(counts.launches), "count"},
      {"vgpu.warp_instructions", warp_instructions, "count"},
      {"vgpu.mem_transactions", mem_transactions, "count"},
      {"vgpu.ro_accesses", count(ro_accesses), "count"},
      {"vgpu.ro_hit_ratio", ratio(counts.ro_hits, ro_accesses), "ratio"},
      {"vgpu.spill_accesses", spill_accesses, "count"},
      {"vgpu.shared_bank_conflicts", bank_conflicts, "count"},
      {"vgpu.min_occupancy", min_occupancy, "ratio"},
      {"driver.compile_ms", static_cast<double>(compile_ns) * 1e-6, "ms"},
      {"driver.self_ms", ms(Layer::kCompile), "ms"},
      {"driver.unattributed_ms", ms(Layer::kJob), "ms"},
      {"trace.job_ms", static_cast<double>(job_ns) * 1e-6, "ms"},
      {"trace.jobs_per_s", jobs_per_s(tp.pass), "1/s"},
  };
}

/// Appends the host latency of each launch span of the given kind.
void append_launch_ms(const TracedPass& tp, std::vector<int> JobTrace::*which,
                      std::vector<double>& out) {
  for (const JobTrace& t : tp.traces) {
    for (const int s : t.*which) {
      const Span& span = t.spans()[static_cast<std::size_t>(s)];
      out.push_back(static_cast<double>(span.t1_ns - span.t0_ns) * 1e-6);
    }
  }
}

// -- the run -------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool setup_only = false;
  std::string cells_out;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  auto number = [](const std::string& flag, const std::string& text) {
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(text, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != text.size() || !(v >= 0.0)) {
      throw std::invalid_argument(flag + " expects a non-negative number, got '" + text + "'");
    }
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos) {
        throw std::invalid_argument("--seed expects a non-negative integer, got '" + value + "'");
      }
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = number(flag, value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace expects 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--cells-out") {
      a.cells_out = value;
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

int run(const Args& a, Clock::time_point process_start) {
  const Bench b = set_up(a.workload, a.seed);
  if (a.setup_only) {
    std::printf("ready %.9f\n", seconds_since(process_start));
    std::fflush(stdout);
    return 0;
  }
  pin_host_threads();

  // The timed phase. Every check the benchmark owns runs after it, so none
  // of them shows in the host clock or in the peak memory. A traced run
  // alternates untraced and traced passes, so host drift cannot pass for
  // tracing overhead.
  FeedbackMemo memo;
  auto untraced_pass = [&] {
    driver::clear_safara_feedback_cache();
    return run_pass(b, [&](const Job& j) { return run_job(b, j); });
  };
  auto traced_pass = [&] {
    memo.clear();
    TracedPass tp;
    tp.traces.resize(b.order.size());
    tp.pass = run_pass(b, [&](const Job& j) {
      return replay_job(b, j, memo, tp.traces[static_cast<std::size_t>(b.job_id(j))]);
    });
    return tp;
  };
  const int parallelism = driver::grid_parallelism(static_cast<std::int64_t>(b.order.size()));
  PassLog runs;
  PassLog traced_runs;
  TracedPass last_traced;
  bool sums_ok = true;
  std::map<std::string, std::pair<std::string, std::vector<double>>> layers;  // unit, per pass
  std::vector<double> first_launch_ms;
  std::vector<double> steady_launch_ms;
  const Clock::time_point start = Clock::now();
  while (runs.passes() < 2 || seconds_since(start) < a.seconds) {
    runs.add(untraced_pass(), parallelism);
    if (!a.trace) continue;
    TracedPass tp = traced_pass();
    for (const Metric& m : layer_values(b, tp, sums_ok)) {
      layers[m.name].first = m.unit;
      layers[m.name].second.push_back(m.value);
    }
    append_launch_ms(tp, &JobTrace::first_launches, first_launch_ms);
    append_launch_ms(tp, &JobTrace::steady_launches, steady_launch_ms);
    traced_runs.add(tp.pass, parallelism);
    last_traced = std::move(tp);
  }
  const double rss_mb = peak_rss_mb();

  // The checks, all on the first pass: later passes only had to reproduce
  // it. nas-grid must also reproduce a sequential evaluation of its cells,
  // and the replay must build the program Compiler::compile builds.
  const std::size_t n = b.order.size();
  std::vector<std::uint64_t> sequential(n);
  std::vector<std::uint64_t> compiled(n);
  for (const Job& j : b.order) {
    const std::size_t id = static_cast<std::size_t>(b.job_id(j));
    if (b.kind == Kind::kNasGrid) sequential[id] = run_job(b, j).signature;
    if (a.trace && b.simulates()) {
      const workloads::Workload& w = *b.suite[static_cast<std::size_t>(j.program)];
      compiled[id] = fnv1a(driver::dump_vir(
          driver::Compiler(b.configs[static_cast<std::size_t>(j.config)].opts)
              .compile(w.source, w.function)));
    }
  }
  const Gates g = run_gates(b);  // last: the fuzz oracles reset the sim knobs

  const std::vector<Outcome>& first = runs.first.jobs;
  const std::vector<Outcome>& replayed = traced_runs.first.jobs;
  std::vector<bool> first_ok(n);
  std::vector<bool> replay_ok(n);
  for (const Job& j : b.order) {
    const std::size_t id = static_cast<std::size_t>(b.job_id(j));
    const std::size_t program = static_cast<std::size_t>(j.program);
    first_ok[id] = first[id].ran && (b.simulates()
                                         ? checksum_ok(first[id].checksum, g.reference[program])
                                         : g.program_ok[program]);
    if (b.kind == Kind::kNasGrid) {
      first_ok[id] = first_ok[id] && sequential[id] == first[id].signature;
    }
    if (a.trace) {
      replay_ok[id] = first_ok[id] && replayed[id].signature == first[id].signature &&
                      (!b.simulates() || replayed[id].vir_signature == compiled[id]);
    }
  }
  std::int64_t attempted = runs.attempted() + traced_runs.attempted();
  std::int64_t failed = runs.failed(first_ok) + traced_runs.failed(replay_ok);
  if (!sums_ok) {
    std::fprintf(stderr, "perfbench: layer self times do not add up to job wall time\n");
    ++failed;
  }
  if (failed) std::fprintf(stderr, "perfbench: %lld of %lld jobs failed their checks\n",
                           static_cast<long long>(failed), static_cast<long long>(attempted));
  if (!a.cells_out.empty() && b.simulates()) write_cells(b, runs.first, a.cells_out);
  if (!a.spans_out.empty() && a.trace) write_spans(last_traced, a.spans_out);

  std::vector<Metric> metrics;
  if (!a.trace) {
    // A job's latency is its fastest pass: the min-of-N rule of
    // docs/BENCHMARKING.md, which filters the host's noise. The percentiles
    // then describe how latency spreads over the workload's jobs.
    // The grid's pass time also carries its tail, which one lucky pass
    // understates, so nas-grid's rate takes the median pass instead.
    double busy_ms = 0.0;
    for (const double ms : runs.min_ms) busy_ms += ms;
    const double jobs = static_cast<double>(b.order.size());
    const double rate = b.kind == Kind::kNasGrid ? jobs / median(runs.walls) : jobs / busy_ms * 1e3;
    metrics = {{"jobs_per_s", rate, "1/s"},
               {"job_ms_p50", quantile(runs.min_ms, 0.5), "ms"},
               {"job_ms_p95", quantile(runs.min_ms, 0.95), "ms"},
               {"peak_rss_mb", rss_mb, "MiB"}};
  } else {
    for (const auto& [name, per_pass] : layers) {
      metrics.push_back({name, median(per_pass.second), per_pass.first});
    }
    const DeviceSummary device = b.simulates() ? device_summary(b, runs.first) : DeviceSummary{};
    metrics.insert(
        metrics.end(),
        {{"vgpu.first_launch_ms", median(first_launch_ms), "ms"},
         {"vgpu.launch_ms", median(steady_launch_ms), "ms"},
         {"driver.grid_idle_ratio", b.kind == Kind::kNasGrid ? median(runs.idle) : 0.0, "ratio"},
         {"trace.untraced_jobs_per_s", median(runs.rates), "1/s"},
         {"sim_winst_per_s", b.simulates() ? median(runs.winst_rates) : 0.0, "warp-instr/s"},
         {"device_cycles", device.cycles, "cycles"},
         {"speedup_vs_pgi", device.speedup_vs_pgi, "x"},
         {"error_rate", static_cast<double>(failed) / static_cast<double>(attempted), "ratio"}});
  }
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace safara::perfbench

int main(int argc, char** argv) {
  using namespace safara::perfbench;
  const Clock::time_point process_start = Clock::now();
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    return run(args, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}


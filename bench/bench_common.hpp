// Shared infrastructure for the paper-reproduction benchmark binaries.
//
// Each binary regenerates one table or figure of the paper: it prints the
// same rows/series the paper reports (from simulated-GPU metrics), then
// registers google-benchmark entries so the standard tooling can consume the
// numbers as counters.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "driver/eval_grid.hpp"
#include "driver/run_options.hpp"
#include "obs/json.hpp"
#include "regalloc/regalloc.hpp"
#include "support/string_util.hpp"
#include "vgpu/sim.hpp"
#include "workloads/harness.hpp"

namespace safara::bench {

struct NamedConfig {
  std::string name;
  driver::CompilerOptions options;
};

/// Fixed-width table printer (matches the style of the paper's tables).
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers, int col_width = 14)
      : headers_(std::move(headers)), width_(col_width) {}

  void print_header(const std::string& title) const {
    std::printf("\n=== %s ===\n", title.c_str());
    for (const std::string& h : headers_) std::printf("%-*s", width_, h.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < headers_.size() * static_cast<std::size_t>(width_); ++i) {
      std::printf("-");
    }
    std::printf("\n");
  }

  void print_row(const std::vector<std::string>& cells) const {
    for (const std::string& c : cells) std::printf("%-*s", width_, c.c_str());
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  int width_;
};

inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

// Forward declaration: run_grid records the parallelism it used in the sink.
inline void note_grid_parallelism(int parallelism);

/// Evaluates every (workload × config) cell of a figure/table as one grid of
/// independent compile+simulate jobs on the shared thread pool (see
/// driver::eval_grid for the thread-budget contract), each simulated under
/// `sim`. Results come back in deterministic row-major order — one map per
/// workload, keyed by config name, in the workloads' given order — regardless
/// of the parallelism.
inline std::vector<std::map<std::string, workloads::RunResult>> run_grid(
    const std::vector<const workloads::Workload*>& ws,
    const std::vector<NamedConfig>& configs, const vgpu::SimOptions& sim) {
  const std::size_t nc = configs.size();
  std::vector<workloads::RunResult> flat(ws.size() * nc);
  const std::int64_t cells = static_cast<std::int64_t>(flat.size());
  note_grid_parallelism(driver::grid_parallelism(cells));
  driver::eval_grid(cells, [&](std::int64_t i) {
    const std::size_t wi = static_cast<std::size_t>(i) / nc;
    const std::size_t ci = static_cast<std::size_t>(i) % nc;
    flat[static_cast<std::size_t>(i)] =
        workloads::simulate(*ws[wi], configs[ci].options, nullptr, sim);
  });
  std::vector<std::map<std::string, workloads::RunResult>> out(ws.size());
  for (std::size_t wi = 0; wi < ws.size(); ++wi) {
    for (std::size_t ci = 0; ci < nc; ++ci) {
      out[wi].emplace(configs[ci].name, std::move(flat[wi * nc + ci]));
    }
  }
  return out;
}

/// Single-workload grid (config sweeps, ablations).
inline std::map<std::string, workloads::RunResult> run_grid(
    const workloads::Workload& w, const std::vector<NamedConfig>& configs,
    const vgpu::SimOptions& sim) {
  return std::move(run_grid(std::vector<const workloads::Workload*>{&w}, configs, sim)[0]);
}

/// Adds the host wall-clock timings of one config's run to a counter row
/// (`compile_ms.<config>` / `sim_ms.<config>`), so BENCH_*.json tracks the
/// compile+simulate speedup trajectory alongside the simulated metrics.
inline void add_timings(std::map<std::string, double>& counters, const std::string& config,
                        const workloads::RunResult& r) {
  counters["compile_ms." + config] = r.compile_ms;
  counters["sim_ms." + config] = r.sim_ms;
}

/// Adds the allocated-register footprint of one config's run to a counter
/// row: `regs_after.<config>` is the sum of the ptxas-sim register counts
/// over the workload's kernels, plus the raw simulated cycles. These are the
/// counters the register-regression gate in tools/check_perf_regression.py
/// sums (fail when regs_after grows beyond the baseline tolerance) and
/// per-cell gates. `checksum.<config>` is the workload's output checksum:
/// the gate requires it byte-identical across baseline refreshes, so a
/// register win can never silently ride on a behavior change.
inline void add_register_counters(std::map<std::string, double>& counters,
                                  const std::string& config,
                                  const workloads::RunResult& r) {
  double regs = 0.0;
  for (const workloads::KernelMetrics& k : r.kernels) regs += k.regs;
  counters["regs_after." + config] = regs;
  counters["cycles." + config] = static_cast<double>(r.cycles);
  counters["checksum." + config] = r.checksum;
  // Shared-memory spill traffic cost: 0 whenever RegDem didn't run (the
  // default --spill-mem local), nonzero only for demoted slots. Carried
  // into check_perf_regression.py's --write-delta aggregates.
  counters["shared_bank_conflicts." + config] =
      static_cast<double>(r.shared_bank_conflicts);
}

/// Accumulates every counter set registered by this binary so `--json FILE`
/// can dump the whole table/figure as one machine-readable document — the
/// substrate the perf-trajectory files (BENCH_*.json) are built from.
class JsonSink {
 public:
  static JsonSink& instance() {
    static JsonSink sink;
    return sink;
  }

  void add(const std::string& name, const std::map<std::string, double>& counters,
           std::map<std::string, std::string> attrs = {}) {
    rows_.push_back(Row{name, counters, std::move(attrs)});
  }

  /// The grid parallelism the binary's run_grid calls actually used (max over
  /// calls; 1 for binaries that never build a grid). Stamped into every row
  /// so baseline files are self-describing.
  void note_grid_parallelism(int parallelism) {
    grid_parallelism_ = std::max(grid_parallelism_, parallelism);
  }

  /// Writes {"benchmark": ..., "rows": [{"name":..., counters...}]}; every
  /// row carries the dispatch engine, grid parallelism, sim thread count, and
  /// compiler opt level/allocator/spill store of the `flags` it was produced
  /// under, so baseline files are self-describing and perf trajectories can
  /// be compared like-for-like.
  bool write(const std::string& path, const std::string& binary_name,
             const driver::RunOptions& flags) const {
    obs::json::Value doc = obs::json::Value::object();
    doc["benchmark"] = obs::json::Value(binary_name);
    obs::json::Value rows = obs::json::Value::array();
    for (const Row& r : rows_) {
      obs::json::Value row = obs::json::Value::object();
      row["name"] = obs::json::Value(r.name);
      row["dispatch"] = obs::json::Value(vgpu::to_string(flags.sim.dispatch));
      row["grid_parallelism"] = obs::json::Value(static_cast<double>(grid_parallelism_));
      row["sim_threads"] = obs::json::Value(
          static_cast<double>(grid_parallelism_ > 1 ? 1 : vgpu::sim_threads()));
      row["opt_level"] = obs::json::Value(static_cast<double>(flags.compiler.opt_level));
      row["regalloc"] =
          obs::json::Value(std::string(regalloc::to_string(flags.compiler.regalloc.strategy)));
      row["spill_mem"] =
          obs::json::Value(std::string(regalloc::to_string(flags.compiler.regalloc.spill_mem)));
      for (const auto& [key, value] : r.counters) row[key] = obs::json::Value(value);
      // Per-row string attributes override the run-wide stamps (the
      // occupancy sweep varies spill_mem within one run, so the frontier
      // rows each carry their own).
      for (const auto& [key, value] : r.attrs) row[key] = obs::json::Value(value);
      rows.push_back(std::move(row));
    }
    doc["rows"] = std::move(rows);
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write '%s'\n", path.c_str());
      return false;
    }
    out << doc.dump(2) << "\n";
    return out.good();
  }

 private:
  struct Row {
    std::string name;
    std::map<std::string, double> counters;
    std::map<std::string, std::string> attrs;
  };
  std::vector<Row> rows_;
  int grid_parallelism_ = 1;
};

inline void note_grid_parallelism(int parallelism) {
  JsonSink::instance().note_grid_parallelism(parallelism);
}

/// Registers a google-benchmark entry that reports a precomputed metric set
/// as counters (the heavy simulation ran once, up front), and mirrors the
/// row into the JSON sink.
inline void register_counters(const std::string& name,
                              std::map<std::string, double> counters,
                              std::map<std::string, std::string> attrs = {}) {
  JsonSink::instance().add(name, counters, std::move(attrs));
  benchmark::RegisterBenchmark(name.c_str(), [counters](benchmark::State& state) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(counters.size());
    }
    for (const auto& [key, value] : counters) {
      state.counters[key] = value;
    }
  })->Iterations(1);
}

/// Shared main(): parses the shared run flags (driver::run_flags(): the
/// simulator's threads, dispatch engine and overlap check, the allocator, the
/// spill store and the opt level) plus `--json FILE` and `--grid-threads N`
/// (each also in `--flag=value` form; all stripped before google-benchmark
/// sees the args), runs the table/figure generator under them, then hands the
/// remaining flags to the standard runner. `--sim-threads` also sets the
/// process budget, which the grid budget falls back to.
inline int bench_main(int argc, char** argv, const char* binary_name,
                      void (*run)(const driver::RunOptions& flags)) {
  auto parse_int_flag = [](const char* flag, const char* text) {
    const std::optional<long long> v = parse_int_strict(text);
    if (!v || *v < INT_MIN || *v > INT_MAX) {
      std::fprintf(stderr, "bench: %s expects an integer, got '%s'\n", flag, text);
      std::exit(2);
    }
    return static_cast<int>(*v);
  };
  driver::RunOptions flags;
  std::string json_path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (driver::parse_run_flag("bench", argc, argv, i, flags)) continue;
    std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[i + 1];
      ++i;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--grid-threads" && i + 1 < argc) {
      driver::set_grid_threads(parse_int_flag("--grid-threads", argv[i + 1]));
      ++i;
    } else if (arg.rfind("--grid-threads=", 0) == 0) {
      driver::set_grid_threads(parse_int_flag("--grid-threads", arg.c_str() + 15));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  vgpu::set_sim_threads(flags.sim.threads);

  run(flags);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (!json_path.empty()) {
    if (!JsonSink::instance().write(json_path, binary_name, flags)) return 1;
    std::printf("json: wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace safara::bench

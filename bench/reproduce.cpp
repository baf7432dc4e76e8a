// The paper's evaluation in one binary: Figs. 7 and 9-12, Tables I and II,
// the four ablations and the occupancy sweep.
//
//   reproduce [--only NAME[,NAME...]] [--json FILE] [--grid-threads N] [run flags]
//
// Every report declares the (workload x compiler config) cells it needs
// before anything is simulated. The driver keys each cell by workload name
// and driver::options_fingerprint, simulates every distinct cell exactly
// once on one driver::eval_grid, then hands each report its results to
// print. After the tables it prints one line per distinct cell (cycles,
// allocated registers, checksum); tests/golden/reproduce.txt pins that whole
// stdout byte for byte.
//
// The run flags are driver::run_flags(); --sim-threads also sets the process
// budget, which the grid budget falls back to. --json writes every selected
// report's rows as one document; the fig11/* rows are what
// tools/check_perf_regression.py gates.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <set>
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
namespace {

using driver::CompilerOptions;
using workloads::RunResult;
using workloads::Workload;

using Counters = std::map<std::string, double>;

/// One row of the --json document.
struct Row {
  std::string name;
  Counters counters;
  /// String attributes that override the run-wide stamps (the occupancy
  /// sweep varies spill_mem within one run).
  std::map<std::string, std::string> attrs;
};

/// One (workload x compiler config) cell a report needs simulated.
struct Cell {
  const Workload* workload;
  std::string config;  // the report's name for it
  CompilerOptions options;
};

/// A report's cell results, in the order it declared the cells.
using Results = std::vector<const RunResult*>;

/// A table or figure: the cells it needs, and how it prints their results
/// (and appends its --json rows).
struct Report {
  std::vector<Cell> cells;
  std::function<void(const Results&, std::vector<Row>&)> print;
};

/// Fixed-width table printer (matches the style of the paper's tables).
struct Table {
  std::vector<std::string> headers;
  int width;

  void header(const std::string& title) const {
    std::printf("\n=== %s ===\n", title.c_str());
    for (const std::string& h : headers) std::printf("%-*s", width, h.c_str());
    std::printf("\n%s\n", std::string(headers.size() * width, '-').c_str());
  }
  void row(const std::vector<std::string>& cells) const {
    for (const std::string& c : cells) std::printf("%-*s", width, c.c_str());
    std::printf("\n");
  }
};

std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

/// The ptxas-sim register count summed over the workload's kernels.
int regs_after(const RunResult& r) {
  int regs = 0;
  for (const workloads::KernelMetrics& k : r.kernels) regs += k.regs;
  return regs;
}

double speedup(const RunResult& base, const RunResult& r) {
  return double(base.cycles) / double(r.cycles);
}

// ---------------------------------------------------------------------------
// Figures 7 and 9-12: one suite under named configs, one row per workload.

using ConfigFn = CompilerOptions (*)(CompilerOptions);

CompilerOptions openuh_safara_small(CompilerOptions base) {
  base = CompilerOptions::openuh_safara(base);
  base.honor_small = true;
  return base;
}

struct FigureRow {
  std::vector<std::string> cells;
  Counters counters;
};

struct Figure {
  const char* name;  // --only name and JSON row prefix
  const char* title;
  std::vector<std::string> headers;
  std::vector<const Workload*> (*suite)();
  std::vector<std::pair<std::string, ConfigFn>> configs;
  /// Formats one workload's row from its results under `configs`.
  FigureRow (*row)(const Figure& f, const Workload& w, const Results& r);
};

// Fig. 7: cycles, speedup, registers and occupancy of SAFARA alone vs base.
FigureRow safara_only_row(const Figure&, const Workload& w, const Results& r) {
  const RunResult& base = *r[0];
  const RunResult& saf = *r[1];
  const double s = speedup(base, saf);
  return {{w.name, std::to_string(base.cycles), std::to_string(saf.cycles), fmt(s),
           std::to_string(base.max_regs) + "->" + std::to_string(saf.max_regs),
           fmt(base.min_occupancy) + "->" + fmt(saf.min_occupancy)},
          {{"speedup", s},
           {"base_cycles", double(base.cycles)},
           {"safara_cycles", double(saf.cycles)},
           {"base_regs", double(base.max_regs)},
           {"safara_regs", double(saf.max_regs)}}};
}

// Fig. 10: every config's speedup over the first, then the first's registers.
FigureRow speedup_row(const Figure& f, const Workload& w, const Results& r) {
  FigureRow row{{w.name}, {}};
  for (std::size_t c = 1; c < r.size(); ++c) {
    const double s = speedup(*r[0], *r[c]);
    row.cells.push_back(fmt(s));
    row.counters[f.configs[c].first] = s;
  }
  row.cells.push_back(std::to_string(r[0]->max_regs));
  return row;
}

// Fig. 9: as Fig. 10, plus the last config's registers.
FigureRow clauses_row(const Figure& f, const Workload& w, const Results& r) {
  FigureRow row = speedup_row(f, w, r);
  row.cells.push_back(std::to_string(r.back()->max_regs));
  return row;
}

// Figs. 11 and 12: time normalized to the slower of OpenUH base (the first
// config) and PGI (the last), plus each config's host timings, registers,
// cycles and checksum -- the cells the perf gate and perfbench read.
FigureRow normalized_row(const Figure& f, const Workload& w, const Results& r) {
  const double denom = double(std::max(r.front()->cycles, r.back()->cycles));
  FigureRow row{{w.name}, {}};
  for (std::size_t c = 0; c < r.size(); ++c) {
    const std::string& config = f.configs[c].first;
    const RunResult& res = *r[c];
    const double norm = double(res.cycles) / denom;
    row.cells.push_back(fmt(norm));
    row.counters[config] = norm;
    row.counters["compile_ms." + config] = res.compile_ms;
    row.counters["sim_ms." + config] = res.sim_ms;
    row.counters["regs_after." + config] = regs_after(res);
    row.counters["cycles." + config] = double(res.cycles);
    row.counters["checksum." + config] = res.checksum;
    row.counters["shared_bank_conflicts." + config] = double(res.shared_bank_conflicts);
  }
  return row;
}

const std::vector<Figure>& figures() {
  static const std::vector<Figure> kFigures = {
      {"fig07", "Figure 7: SPEC speedup with SAFARA only (vs OpenUH base)",
       {"Benchmark", "base cyc", "SAFARA cyc", "speedup", "regs b->s", "occ b->s"},
       workloads::spec_suite,
       {{"base", CompilerOptions::openuh_base}, {"safara", CompilerOptions::openuh_safara}},
       safara_only_row},
      {"fig09", "Figure 9: SPEC speedups: small / small+dim / small+dim+SAFARA",
       {"Benchmark", "small", "small+dim", "s+d+SAFARA", "regs base", "regs s+d+S"},
       workloads::spec_suite,
       {{"base", CompilerOptions::openuh_base},
        {"small", CompilerOptions::openuh_small},
        {"small_dim", CompilerOptions::openuh_small_dim},
        {"small_dim_safara", CompilerOptions::openuh_safara_clauses}},
       clauses_row},
      {"fig10", "Figure 10: NAS speedups: small / SAFARA / SAFARA+small",
       {"Benchmark", "small", "SAFARA", "SAFARA+small", "regs base"},
       workloads::nas_suite,
       {{"base", CompilerOptions::openuh_base},
        {"small", CompilerOptions::openuh_small},
        {"safara", CompilerOptions::openuh_safara},
        {"safara_small", openuh_safara_small}},
       speedup_row},
      {"fig11", "Figure 11: SPEC normalized time (lower is better), OpenUH vs PGI-like",
       {"Benchmark", "OpenUH", "OpenUH+SAF", "OpenUH+S+cls", "PGI"},
       workloads::spec_suite,
       {{"openuh_base", CompilerOptions::openuh_base},
        {"openuh_safara", CompilerOptions::openuh_safara},
        {"openuh_safara_clauses", CompilerOptions::openuh_safara_clauses},
        {"pgi", CompilerOptions::pgi_like}},
       normalized_row},
      {"fig12", "Figure 12: NAS normalized time (lower is better), OpenUH vs PGI-like",
       {"Benchmark", "OpenUH", "OpenUH+SAF", "OpenUH+S+cls", "PGI"},
       workloads::nas_suite,
       {{"openuh_base", CompilerOptions::openuh_base},
        {"openuh_safara", CompilerOptions::openuh_safara},
        {"openuh_safara_small", openuh_safara_small},
        {"pgi", CompilerOptions::pgi_like}},
       normalized_row},
  };
  return kFigures;
}

Report figure_report(const Figure& f, const driver::RunOptions& run) {
  Report report;
  const std::vector<const Workload*> ws = f.suite();
  for (const Workload* w : ws) {
    for (const auto& [name, config] : f.configs) {
      report.cells.push_back({w, name, config(run.compiler)});
    }
  }
  report.print = [&f, ws](const Results& r, std::vector<Row>& rows) {
    const Table table{f.headers, 14};
    table.header(f.title);
    const std::size_t nc = f.configs.size();
    for (std::size_t i = 0; i < ws.size(); ++i) {
      const Results mine(r.begin() + i * nc, r.begin() + (i + 1) * nc);
      FigureRow row = f.row(f, *ws[i], mine);
      table.row(row.cells);
      rows.push_back({std::string(f.name) + "/" + ws[i]->name, std::move(row.counters), {}});
    }
  };
  return report;
}

// ---------------------------------------------------------------------------
// Tables I and II: per-kernel registers under Base / +small / w dim, from
// compiles alone. Kernels whose directive carries no dim clause (a single
// allocatable array, or arrays of unequal shape) print NA in the dim column,
// exactly as in the paper; the best they achieve is the +small number.

Report register_table(const char* name, const char* workload, const char* title,
                      bool ptxas_lines, const driver::RunOptions& run) {
  Report report;
  report.print = [=](const Results&, std::vector<Row>& rows) {
    const Workload* w = workloads::find_workload(workload);
    const auto compile = [&](ConfigFn config) {
      return driver::Compiler(config(run.compiler)).compile(w->source, w->function);
    };
    const driver::CompiledProgram p_base = compile(CompilerOptions::openuh_base);
    const driver::CompiledProgram p_small = compile(CompilerOptions::openuh_small);
    const driver::CompiledProgram p_dim = compile(CompilerOptions::openuh_small_dim);

    const Table table{{"Kernels", "Base", "+small", "w dim", "Saved"}, 10};
    table.header(title);
    for (std::size_t k = 0; k < p_base.kernels.size(); ++k) {
      const int b = p_base.kernels[k].alloc.regs_used;
      const int s = p_small.kernels[k].alloc.regs_used;
      const bool na = p_dim.kernels[k].checks.dim_groups.empty();  // no dim clause
      const int d = na ? s : p_dim.kernels[k].alloc.regs_used;
      const std::string hot = "HOT" + std::to_string(k + 1);
      table.row({hot, std::to_string(b), std::to_string(s), na ? "NA" : std::to_string(d),
                 std::to_string(b - d)});
      rows.push_back({std::string(name) + "/" + hot,
                      {{"base_regs", double(b)},
                       {"small_regs", double(s)},
                       {"dim_regs", double(d)},
                       {"saved", double(b - d)}},
                      {}});
    }
    if (ptxas_lines) {
      std::printf("\nptxas feedback lines (base):\n");
      for (const auto& k : p_base.kernels) std::printf("  %s\n", k.ptxas_info().c_str());
    }
  };
  return report;
}

// ---------------------------------------------------------------------------
// Ablations on microbenchmarks, each a single-workload config sweep.

driver::HostArray f32_array(std::vector<rt::Dim> dims) {
  return driver::HostArray::make(ast::ScalarType::kF32, std::move(dims));
}

// Fig. 3/4 of the paper: what happens when the classical Carr-Kennedy
// algorithm performs inter-iteration scalar replacement across a
// *parallelized* loop. The rotating scalars create loop-carried dependences,
// the loop must be serialized, and the kernel collapses to gang-only
// parallelism. SAFARA's intra-only rule on parallel loops avoids this.
const Workload& smooth_microbench() {
  static const Workload w{
      .name = "fig3.smooth",
      .suite = "micro",
      .description = "Fig. 3's two-point smoother: a vector loop with inter-iteration reuse",
      .source = R"(
void smooth(int n, int m, const float b[n][m], float a[n][m]) {
  #pragma acc parallel loop gang
  for (j = 0; j < n; j++) {
    #pragma acc loop vector(128)
    for (i = 1; i < m - 1; i++) {
      a[j][i] = (b[j][i] + b[j][i+1]) / 2.0f;
    }
  }
}
)",
      .function = "smooth",
      .outputs = {"a"},
      .make_dataset = [] {
        const int n = 256, m = 256;
        workloads::Dataset d;
        d.arrays.emplace("b", f32_array({{0, n}, {0, m}}));
        d.arrays.emplace("a", f32_array({{0, n}, {0, m}}));
        workloads::fill(d.arrays.at("b"), 34);
        d.scalars.emplace("n", rt::ScalarValue::of_i32(n));
        d.scalars.emplace("m", rt::ScalarValue::of_i32(m));
        return d;
      }};
  return w;
}

Report carr_kennedy_report(const driver::RunOptions& run) {
  const Workload& w = smooth_microbench();
  CompilerOptions ck = CompilerOptions::openuh_base(run.compiler);
  ck.enable_carr_kennedy = true;
  Report report{{{&w, "base", CompilerOptions::openuh_base(run.compiler)},
                 {&w, "ck", ck},
                 {&w, "safara", CompilerOptions::openuh_safara(run.compiler)}},
                {}};
  report.print = [&w, ck](const Results& r, std::vector<Row>& rows) {
    const RunResult& base = *r[0];
    const RunResult& ck_res = *r[1];
    const RunResult& saf = *r[2];
    // Count the serialized loops via the compiler report.
    const int sequentialized =
        driver::Compiler(ck).compile(w.source, w.function).carr_kennedy.loops_sequentialized;

    const Table table{{"Config", "cycles", "vs base", "loops seq'd"}, 16};
    table.header("Fig 3/4 ablation: Carr-Kennedy SR on a parallel loop");
    table.row({"base", std::to_string(base.cycles), "1.00", "0"});
    table.row({"Carr-Kennedy", std::to_string(ck_res.cycles), fmt(speedup(base, ck_res)),
               std::to_string(sequentialized)});
    table.row({"SAFARA", std::to_string(saf.cycles), fmt(speedup(base, saf)), "0"});
    rows.push_back({"ablation_ck/smooth",
                    {{"base_cycles", double(base.cycles)},
                     {"ck_cycles", double(ck_res.cycles)},
                     {"safara_cycles", double(saf.cycles)},
                     {"ck_slowdown", double(ck_res.cycles) / double(base.cycles)},
                     {"loops_sequentialized", double(sequentialized)}},
                    {}});
  };
  return report;
}

// Section III-B.3: SAFARA's latency-aware cost model (L x C) versus the
// Carr-Kennedy reference-count metric, under a tight register budget that
// forces a choice between candidates. The kernel has two carried reuse
// groups: a COALESCED group with more references and an UNCOALESCED group
// with fewer. Count-only selection takes the bigger (cheap) group; L x C
// correctly prefers the expensive scattered accesses.
const Workload& mix_microbench() {
  static const Workload w{
      .name = "costmodel.mix",
      .suite = "micro",
      .description = "one coalesced and one scattered carried reuse group competing for registers",
      .source = R"(
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
)",
      .function = "mix",
      .outputs = {"out"},
      .make_dataset = [] {
        const int n = 8192, m = 64;
        workloads::Dataset d;
        d.arrays.emplace("c", f32_array({{0, m}, {0, n}}));
        d.arrays.emplace("u", f32_array({{0, n}, {0, m}}));
        d.arrays.emplace("out", f32_array({{0, m}, {0, n}}));
        workloads::fill(d.arrays.at("c"), 91);
        workloads::fill(d.arrays.at("u"), 92);
        workloads::fill(d.arrays.at("out"), 93);
        d.scalars.emplace("n", rt::ScalarValue::of_i32(n));
        d.scalars.emplace("m", rt::ScalarValue::of_i32(m));
        return d;
      }};
  return w;
}

Report costmodel_report(const driver::RunOptions& run) {
  const Workload& w = mix_microbench();
  // Find the base register count, then grant a budget with room for only one
  // of the two groups (the coalesced one needs 4 scalars, the uncoalesced 3).
  const CompilerOptions base = CompilerOptions::openuh_base(run.compiler);
  const int base_regs =
      driver::Compiler(base).compile(w.source, w.function).kernels[0].alloc.regs_used;
  const int budget = base_regs + 4;
  CompilerOptions lxc = CompilerOptions::openuh_safara(run.compiler);
  lxc.safara.max_registers = budget;
  lxc.safara.use_cost_model = true;
  CompilerOptions count = lxc;
  count.safara.use_cost_model = false;

  Report report{{{&w, "base", base}, {&w, "lxc", lxc}, {&w, "count", count}}, {}};
  report.print = [base_regs, budget](const Results& r, std::vector<Row>& rows) {
    const RunResult& base = *r[0];
    const RunResult& lxc = *r[1];
    const RunResult& cnt = *r[2];
    const Table table{{"Selection", "cycles", "speedup", "loads"}, 16};
    table.header("Cost-model ablation: L x C vs reference-count selection");
    table.row({"base (no SR)", std::to_string(base.cycles), "1.00",
               std::to_string(base.global_loads)});
    table.row({"count only", std::to_string(cnt.cycles), fmt(speedup(base, cnt)),
               std::to_string(cnt.global_loads)});
    table.row({"L x C (SAFARA)", std::to_string(lxc.cycles), fmt(speedup(base, lxc)),
               std::to_string(lxc.global_loads)});
    std::printf("\nregister budget: %d (base uses %d)\n", budget, base_regs);
    rows.push_back({"ablation_costmodel/mix",
                    {{"base_cycles", double(base.cycles)},
                     {"count_cycles", double(cnt.cycles)},
                     {"lxc_cycles", double(lxc.cycles)},
                     {"lxc_speedup", speedup(base, lxc)},
                     {"count_speedup", speedup(base, cnt)}},
                    {}});
  };
  return report;
}

// Section III-B.2: the iterative static-feedback loop. SAFARA estimates each
// group's register cost conservatively; the backend allocator usually does
// better (it reuses registers across short-lived chains). Re-invoking the
// assembler after each replacement round discovers the real budget headroom,
// so more iterations convert more of the register file into replaced
// references. A one-shot pass leaves budget on the table.
//
// Four distance-1 reuse groups along the innermost k sweep, plus three
// loop-invariant gathers (q0..q2) that take one hoisting level per feedback
// iteration: out of k first, then out of l -- only a second compile-replace
// round can see the second opportunity.
const Workload& manygroups_microbench() {
  static const Workload w{
      .name = "feedback.manygroups",
      .suite = "micro",
      .description = "four carried reuse groups plus gathers hoisted one level per iteration",
      .source = R"(
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
)",
      .function = "manygroups",
      .outputs = {"out"},
      .make_dataset = [] {
        const int n = 4096, m = 48;
        workloads::Dataset d;
        int seed = 61;
        for (const char* name : {"a0", "a1", "a2", "a3", "out"}) {
          d.arrays.emplace(name, f32_array({{0, m}, {0, n}}));
          workloads::fill(d.arrays.at(name), static_cast<std::uint64_t>(seed++));
        }
        for (const char* name : {"q0", "q1", "q2"}) {
          d.arrays.emplace(name, f32_array({{0, n}}));
          workloads::fill(d.arrays.at(name), static_cast<std::uint64_t>(seed++));
        }
        d.scalars.emplace("n", rt::ScalarValue::of_i32(n));
        d.scalars.emplace("m", rt::ScalarValue::of_i32(m));
        return d;
      }};
  return w;
}

Report feedback_report(const driver::RunOptions& run) {
  const Workload& w = manygroups_microbench();
  // Baseline with the clauses already applied, so the sweep isolates the
  // feedback loop itself.
  const CompilerOptions base = CompilerOptions::openuh_small_dim(run.compiler);
  const int base_regs =
      driver::Compiler(base).compile(w.source, w.function).kernels[0].alloc.regs_used;
  const int budget = base_regs + 20;  // generous: iterations limited by visibility, not budget
  CompilerOptions full = CompilerOptions::openuh_safara_clauses(run.compiler);
  full.safara.max_registers = budget;

  Report report{{{&w, "base", base}}, {}};
  for (int iters : {1, 2, 4, 8}) {
    CompilerOptions opts = full;
    opts.safara.max_iterations = iters;
    report.cells.push_back({&w, "iters" + std::to_string(iters), opts});
  }
  report.print = [&w, base_regs, budget, full, cells = report.cells](
                     const Results& r, std::vector<Row>& rows) {
    const RunResult& base = *r[0];
    const Table table{{"max iters", "groups", "final regs", "cycles", "speedup"}, 14};
    table.header("Feedback ablation: SAFARA iterations under a tight budget");
    table.row({"0 (base)", "0", std::to_string(base_regs), std::to_string(base.cycles), "1.00"});
    for (std::size_t i = 1; i < cells.size(); ++i) {
      const RunResult& res = *r[i];
      const driver::CompiledProgram prog =
          driver::Compiler(cells[i].options).compile(w.source, w.function);
      const double s = speedup(base, res);
      table.row({std::to_string(cells[i].options.safara.max_iterations),
                 std::to_string(prog.safara.total_groups()),
                 std::to_string(prog.kernels[0].alloc.regs_used), std::to_string(res.cycles),
                 fmt(s)});
      rows.push_back({"ablation_feedback/" + cells[i].config,
                      {{"groups", double(prog.safara.total_groups())},
                       {"regs", double(prog.kernels[0].alloc.regs_used)},
                       {"speedup", s}},
                      {}});
    }
    // Show the feedback trace of the full run, as the pass reports it.
    const driver::CompiledProgram prog = driver::Compiler(full).compile(w.source, w.function);
    if (!prog.safara.regions.empty()) {
      std::printf("\nfeedback trace (budget %d):\n", budget);
      for (const std::string& line : prog.safara.regions[0].log) {
        std::printf("  %s\n", line.c_str());
      }
    }
  };
  return report;
}

// The paper's future work (Section VII): combining loop unrolling with
// SAFARA. Unrolling the sequential sweep multiplies the reuse visible to
// scalar replacement, but each unrolled copy also holds more live scalars --
// the same register/occupancy tension as everywhere else. The first two rows
// are Fig. 9's 355.seismic cells.
Report unroll_report(const driver::RunOptions& run) {
  const Workload* w = workloads::find_workload("355.seismic");
  Report report{{{w, "small_dim", CompilerOptions::openuh_small_dim(run.compiler)},
                 {w, "safara_clauses", CompilerOptions::openuh_safara_clauses(run.compiler)}},
                {}};
  for (int factor : {2, 4}) {
    CompilerOptions o = CompilerOptions::openuh_safara_clauses(run.compiler);
    o.enable_unroll = true;
    o.unroll.factor = factor;
    report.cells.push_back({w, "unroll" + std::to_string(factor), o});
  }
  report.print = [](const Results& r, std::vector<Row>& rows) {
    const char* const labels[] = {"small+dim", "small+dim+SAFARA", "  + unroll x2",
                                  "  + unroll x4"};
    const Table table{{"config", "cycles", "speedup", "regs", "occupancy", "loads"}, 16};
    table.header("Unroll ablation on 355.seismic (baseline: small+dim)");
    for (std::size_t i = 0; i < r.size(); ++i) {
      const RunResult& res = *r[i];
      const double s = speedup(*r[0], res);
      table.row({labels[i], std::to_string(res.cycles), fmt(s), std::to_string(res.max_regs),
                 fmt(res.min_occupancy), std::to_string(res.global_loads)});
      rows.push_back({std::string("ablation_unroll/") + labels[i],
                      {{"cycles", double(res.cycles)},
                       {"speedup", s},
                       {"regs", double(res.max_regs)},
                       {"loads", double(res.global_loads)}},
                      {}});
    }
  };
  return report;
}

// Occupancy/registers tradeoff (Section II-B context; Volkov's "better
// performance at lower occupancy" tension the paper cites): compile one
// register-hungry kernel, a single-kernel cut of 355.seismic's HOT4 (the
// fattest kernel), under decreasing per-thread register limits and watch
// spilling trade against occupancy on the simulator.
const Workload& hot4_microbench() {
  static const Workload w{
      .name = "occ.hot4",
      .suite = "micro",
      .description = "a single-kernel cut of 355.seismic's HOT4",
      .source = R"(
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
)",
      .function = "hot4",
      .outputs = {"sxx", "syy", "szz"},
      .make_dataset = [] {
        const int nx = 128, ny = 64, nz = 16;
        workloads::Dataset d;
        int seed = 99;
        for (const char* name : {"vx", "vy", "vz", "sxx", "syy", "szz"}) {
          d.arrays.emplace(name, f32_array({{0, nz}, {0, ny}, {0, nx}}));
          workloads::fill(d.arrays.at(name), static_cast<std::uint64_t>(seed++), -0.5, 0.5);
        }
        d.scalars.emplace("nx", rt::ScalarValue::of_i32(nx));
        d.scalars.emplace("ny", rt::ScalarValue::of_i32(ny));
        d.scalars.emplace("nz", rt::ScalarValue::of_i32(nz));
        d.scalars.emplace("h", rt::ScalarValue::of_f32(0.25f));
        d.scalars.emplace("dt", rt::ScalarValue::of_f32(0.01f));
        return d;
      }};
  return w;
}

Report occupancy_report(const driver::RunOptions& run) {
  const Workload& w = hot4_microbench();
  // The regs x spill-mem frontier: every register limit under both spill
  // backing stores. `local` is the pre-RegDem behaviour; `auto` lets RegDem
  // demote the hottest slots to shared memory while occupancy holds, so the
  // two series bracket what a spill's backing store is worth at each
  // pressure point.
  Report report;
  for (int limit : {255, 168, 128, 96, 64, 48, 32, 24}) {
    for (regalloc::SpillMem mem : {regalloc::SpillMem::kLocal, regalloc::SpillMem::kAuto}) {
      CompilerOptions opts = CompilerOptions::openuh_base(run.compiler);
      opts.regalloc.max_registers = limit;
      opts.regalloc.spill_mem = mem;
      report.cells.push_back(
          {&w, "limit" + std::to_string(limit) + "/" + regalloc::to_string(mem), opts});
    }
  }
  report.print = [cells = report.cells](const Results& r, std::vector<Row>& rows) {
    const Table table{
        {"reg limit", "spill mem", "regs used", "spill B", "shared B", "occupancy", "cycles"},
        12};
    table.header("Occupancy sweep: register limit x spill memory vs performance");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const RunResult& res = *r[i];
      const workloads::KernelMetrics& k = res.kernels[0];
      const std::string mem = regalloc::to_string(cells[i].options.regalloc.spill_mem);
      table.row({std::to_string(cells[i].options.regalloc.max_registers), mem,
                 std::to_string(k.regs), std::to_string(k.spill_bytes),
                 std::to_string(k.shared_spill_bytes), fmt(res.min_occupancy, 3),
                 std::to_string(res.cycles)});
      rows.push_back({"occupancy_sweep/" + cells[i].config,
                      {{"regs", double(k.regs)},
                       {"spill_bytes", double(k.spill_bytes)},
                       {"shared_spill_bytes", double(k.shared_spill_bytes)},
                       {"shared_accesses", double(res.shared_accesses)},
                       {"shared_bank_conflicts", double(res.shared_bank_conflicts)},
                       {"occupancy", res.min_occupancy},
                       {"cycles", double(res.cycles)}},
                      {{"spill_mem", mem}}});
    }
  };
  return report;
}

// ---------------------------------------------------------------------------
// The driver.

struct ReportSpec {
  std::string name;  // --only name; also labels the report's cells
  /// Declares the report's cells under the run's options. Runs only when the
  /// report is selected (the ablations compile to size their budgets).
  std::function<Report(const driver::RunOptions&)> make;
};

/// Every report, in print order.
std::vector<ReportSpec> all_reports() {
  std::vector<ReportSpec> specs;
  for (const Figure& f : figures()) {
    specs.push_back({f.name, [&f](const driver::RunOptions& run) {
                       return figure_report(f, run);
                     }});
  }
  specs.push_back({"table1", [](const driver::RunOptions& run) {
                     return register_table(
                         "table1", "355.seismic",
                         "Table I: 355.seismic register usage via small and dim", true, run);
                   }});
  specs.push_back({"table2", [](const driver::RunOptions& run) {
                     return register_table("table2", "356.sp",
                                           "Table II: 356.sp register usage via small and dim",
                                           false, run);
                   }});
  specs.push_back({"ablation_carr_kennedy", carr_kennedy_report});
  specs.push_back({"ablation_costmodel", costmodel_report});
  specs.push_back({"ablation_feedback", feedback_report});
  specs.push_back({"ablation_unroll", unroll_report});
  specs.push_back({"occupancy_sweep", occupancy_report});
  return specs;
}

/// A distinct simulated cell: the first declaration of its (workload,
/// options fingerprint) key, every report/config label that shares it, and
/// its result.
struct Distinct {
  Cell cell;
  std::vector<std::string> labels;
  RunResult result;
};

bool write_json(const std::string& path, const std::vector<Row>& rows,
                const driver::RunOptions& run, int grid_parallelism) {
  // Every row carries the settings it was produced under, so baseline files
  // are self-describing and perf trajectories compare like-for-like.
  obs::json::Value doc = obs::json::Value::object();
  doc["benchmark"] = obs::json::Value("reproduce");
  obs::json::Value out_rows = obs::json::Value::array();
  for (const Row& r : rows) {
    obs::json::Value row = obs::json::Value::object();
    row["name"] = obs::json::Value(r.name);
    row["dispatch"] = obs::json::Value(vgpu::to_string(run.sim.dispatch));
    row["grid_parallelism"] = obs::json::Value(static_cast<double>(grid_parallelism));
    row["sim_threads"] =
        obs::json::Value(static_cast<double>(grid_parallelism > 1 ? 1 : vgpu::sim_threads()));
    row["opt_level"] = obs::json::Value(static_cast<double>(run.compiler.opt_level));
    row["regalloc"] =
        obs::json::Value(std::string(regalloc::to_string(run.compiler.regalloc.strategy)));
    row["spill_mem"] =
        obs::json::Value(std::string(regalloc::to_string(run.compiler.regalloc.spill_mem)));
    for (const auto& [key, value] : r.counters) row[key] = obs::json::Value(value);
    for (const auto& [key, value] : r.attrs) row[key] = obs::json::Value(value);
    out_rows.push_back(std::move(row));
  }
  doc["rows"] = std::move(out_rows);
  std::ofstream out(path);
  out << doc.dump(2) << "\n";
  if (!out.good()) {
    std::fprintf(stderr, "reproduce: cannot write '%s'\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "json: wrote %s\n", path.c_str());
  return true;
}

int run_main(int argc, char** argv) {
  const std::vector<ReportSpec> specs = all_reports();
  driver::RunOptions run;
  std::string json_path;
  std::set<std::string> only;
  int grid_threads = 0;
  driver::Command cmd{
      .prog = "reproduce",
      .synopsis = "[flags]",
      .flags = {
          {"--only", "report names, comma-separated",
           [&only](std::string_view names) {
             for (std::string& name : split(names, ',')) only.insert(std::move(name));
             return true;
           }},
          driver::text_flag("--json", "a file name", json_path),
          driver::int_flag("--grid-threads", grid_threads),
      },
      .operand = nullptr,
      .epilogue = "reports:",
  };
  for (driver::Flag& flag : driver::run_flags(run)) cmd.flags.push_back(std::move(flag));
  for (const ReportSpec& spec : specs) cmd.epilogue += " " + spec.name;
  driver::parse_flags(cmd, argc, argv);
  for (const std::string& name : only) {
    const bool known = std::any_of(specs.begin(), specs.end(),
                                   [&](const ReportSpec& s) { return s.name == name; });
    if (!known) driver::usage_error(cmd, "unknown report '" + name + "' in --only");
  }
  driver::set_grid_threads(grid_threads);
  vgpu::set_sim_threads(run.sim.threads);

  // Declare every selected report's cells and key them.
  std::vector<Report> reports;
  std::vector<std::vector<std::size_t>> report_cells;  // indices into `distinct`
  std::vector<Distinct> distinct;
  std::map<std::pair<std::string, std::uint64_t>, std::size_t> index;
  for (const ReportSpec& spec : specs) {
    if (!only.empty() && !only.count(spec.name)) continue;
    reports.push_back(spec.make(run));
    std::vector<std::size_t>& mine = report_cells.emplace_back();
    for (const Cell& cell : reports.back().cells) {
      const auto [it, fresh] = index.try_emplace(
          {cell.workload->name, driver::options_fingerprint(cell.options)}, distinct.size());
      if (fresh) distinct.push_back({cell, {}, {}});
      distinct[it->second].labels.push_back(spec.name + "/" + cell.config);
      mine.push_back(it->second);
    }
  }

  const std::int64_t cells = static_cast<std::int64_t>(distinct.size());
  driver::eval_grid(cells, [&](std::int64_t i) {
    Distinct& d = distinct[static_cast<std::size_t>(i)];
    d.result = workloads::simulate(*d.cell.workload, d.cell.options, nullptr, run.sim);
  });

  std::vector<Row> rows;
  for (std::size_t r = 0; r < reports.size(); ++r) {
    Results results;
    for (std::size_t i : report_cells[r]) results.push_back(&distinct[i].result);
    reports[r].print(results, rows);
  }

  std::printf("\n=== Distinct cells: workload, cycles, regs_after, checksum, reports ===\n");
  for (const Distinct& d : distinct) {
    std::printf("%s cycles %llu regs_after %d checksum %.17g",
                d.cell.workload->name.c_str(),
                static_cast<unsigned long long>(d.result.cycles), regs_after(d.result),
                d.result.checksum);
    for (const std::string& label : d.labels) std::printf(" %s", label.c_str());
    std::printf("\n");
  }
  std::fflush(stdout);

  if (!json_path.empty() &&
      !write_json(json_path, rows, run, driver::grid_parallelism(cells))) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace safara::bench

int main(int argc, char** argv) { return safara::bench::run_main(argc, argv); }

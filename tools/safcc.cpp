// safcc: the command-line front door to the SAFARA compiler.
//
//   safcc file.acc                         # compile, print ptxas report
//   safcc file.acc --config safara_clauses # pick a configuration
//   safcc file.acc --emit-vir              # dump the virtual ISA
//   safcc file.acc --emit-source           # dump the post-pass ACC-C
//   safcc file.acc --unroll 4              # enable the unrolling extension
//   safcc file.acc --max-regs 64           # __launch_bounds__-style cap
//   safcc file.acc --fn name               # choose a function
//
// Observability:
//   safcc file.acc --trace-out=t.json      # Chrome trace-event span timeline
//   safcc file.acc --metrics-out=m.json    # metrics/report JSON
//   safcc file.acc --time-passes           # LLVM-style pass timing table
//   safcc --workload 355.seismic --sim-profile --metrics-out=m.json
//                                          # run a named workload on the
//                                          # simulator with per-SM profiling
//   safcc --workload 355.seismic --annotate
//                                          # source listing with per-line
//                                          # cycle/stall/pressure attribution
//   safcc --workload 355.seismic --sim-profile-out=p.json
//                                          # machine-readable attribution
//                                          # document (safara.sim_profile/v1)
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ast/printer.hpp"
#include "driver/compiler.hpp"
#include "driver/run_options.hpp"
#include "driver/sim_profile.hpp"
#include "obs/collector.hpp"
#include "regalloc/regalloc.hpp"
#include "vir/vir.hpp"
#include "workloads/harness.hpp"

using namespace safara;

namespace {

bool write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "safcc: cannot write '%s'\n", path.c_str());
    return false;
  }
  out << contents;
  return out.good();
}

// -- the standard report ------------------------------------------------------

/// Header line, per-kernel ptxas lines, unroll / safara / verify-clauses
/// notes, and (when a workload ran) the cycles + checksum line.
void print_report(const driver::CompiledProgram& prog, const std::string& config,
                  bool ran_workload, const std::string& input_label,
                  const workloads::RunResult& run) {
  std::printf("safcc: compiled %zu kernel(s) from '%s' [config %s]\n", prog.kernels.size(),
              prog.function_name.c_str(), config.c_str());
  for (const driver::CompiledKernel& k : prog.kernels) {
    std::printf("%s\n", k.ptxas_info().c_str());
  }
  if (prog.unroll.loops_unrolled > 0) {
    std::printf("unroll: %d loop(s) unrolled\n", prog.unroll.loops_unrolled);
  }
  for (const auto& region : prog.safara.regions) {
    for (const auto& line : region.log) std::printf("safara: %s\n", line.c_str());
  }
  if (prog.fallback) {
    std::printf("verify-clauses: fallback kernels compiled (");
    for (std::size_t i = 0; i < prog.fallback->kernels.size(); ++i) {
      std::printf("%s%d regs", i ? ", " : "", prog.fallback->kernels[i].alloc.regs_used);
    }
    std::printf(")\n");
  }
  if (ran_workload) {
    std::printf("\nworkload %s: %llu cycles, checksum %.6g\n", input_label.c_str(),
                static_cast<unsigned long long>(run.cycles), run.checksum);
  }
}

/// The `--emit-source` / `--emit-vir` trailing sections.
void print_emits(const driver::CompiledProgram& prog, bool emit_source, bool emit_vir) {
  if (emit_source) {
    std::printf("\n---- post-optimization source ----\n%s",
                ast::to_source(*prog.transformed).c_str());
  }
  if (emit_vir) {
    for (const driver::CompiledKernel& k : prog.kernels) {
      std::printf("\n---- %s ----\n%s", k.name.c_str(), vir::to_string(k.kernel).c_str());
    }
  }
}

/// `--sim-profile`: the human-readable summary, now a formatter over the
/// document rather than a second data path.
void print_sim_profile(const obs::json::Value& doc) {
  std::printf("\n---- simulator profile ----\n");
  const obs::json::Value* launches = doc.find("launches");
  if (!launches) return;
  for (std::size_t i = 0; i < launches->size(); ++i) {
    const obs::json::Value& p = launches->at(i);
    const obs::json::Value* t = p.find("totals");
    const obs::json::Value* sms = p.find("sms");
    if (!t || !sms) continue;
    auto u = [&](const char* key) -> unsigned long long {
      const obs::json::Value* v = t->find(key);
      return v ? static_cast<unsigned long long>(v->as_int()) : 0ull;
    };
    std::printf("launch %lld: %s\n",
                static_cast<long long>(p.find("launch_index")->as_int()),
                p.find("kernel")->as_string().c_str());
    std::printf("  cycles %llu, issue cycles %llu, instructions %llu over %zu SM(s)\n",
                u("cycles"), u("issue_cycles"), u("issued_instructions"), sms->size());
    std::printf("  stalls: scoreboard %llu, memory %llu, no-warp (tail) %llu\n",
                u("stall_scoreboard"), u("stall_memory"), u("stall_no_warp"));
  }
}

/// `--annotate`: terminal source listing with per-line attribution columns,
/// followed by a top-stall-lines digest with register/spill provenance.
void print_annotate(const obs::json::Value& doc, const std::string& source) {
  using obs::json::Value;
  struct Row {
    std::uint64_t issued = 0, cycles = 0, sb = 0, mem = 0;
    double pct = 0.0;
  };
  std::map<std::uint64_t, Row> rows;
  if (const Value* lines = doc.find("lines")) {
    for (std::size_t i = 0; i < lines->size(); ++i) {
      const Value& l = lines->at(i);
      Row r;
      r.issued = static_cast<std::uint64_t>(l.find("issued")->as_int());
      r.cycles = static_cast<std::uint64_t>(l.find("cycles")->as_int());
      r.sb = static_cast<std::uint64_t>(l.find("stall_scoreboard")->as_int());
      r.mem = static_cast<std::uint64_t>(l.find("stall_memory")->as_int());
      r.pct = l.find("cycles_pct")->as_double();
      rows[static_cast<std::uint64_t>(l.find("line")->as_int())] = r;
    }
  }
  // Pressure provenance: live ranges grouped by the source line of their
  // defining instruction; spilled ranges keep their variable name and slot.
  struct Prov {
    int ranges = 0;
    int reg_units = 0;
    std::vector<std::string> spills;
  };
  std::map<std::uint64_t, Prov> prov;
  if (const Value* kernels = doc.find("kernels")) {
    for (std::size_t i = 0; i < kernels->size(); ++i) {
      const Value* ranges = kernels->at(i).find("ranges");
      if (!ranges) continue;
      for (std::size_t j = 0; j < ranges->size(); ++j) {
        const Value& r = ranges->at(j);
        Prov& p = prov[static_cast<std::uint64_t>(r.find("line")->as_int())];
        ++p.ranges;
        if (r.find("first_unit")->as_int() >= 0) {
          p.reg_units += static_cast<int>(r.find("units")->as_int());
        }
        if (r.find("spill_slot")->as_int() >= 0) {
          std::string s = "%r" + std::to_string(r.find("vreg")->as_int());
          const std::string& nm = r.find("name")->as_string();
          if (!nm.empty()) s += " '" + nm + "'";
          const Value* mem = r.find("spill_mem");
          const bool shared = mem && mem->as_string() == "shared";
          s += " -> [";
          s += shared ? "shared+" : "local+";
          s += std::to_string(r.find("spill_slot")->as_int()) + "]";
          p.spills.push_back(std::move(s));
        }
      }
    }
  }
  const std::uint64_t total =
      static_cast<std::uint64_t>(doc.find("total_cycles")->as_int());
  std::printf("\n---- source-attributed profile: %s [config %s] ----\n",
              doc.find("input")->as_string().c_str(),
              doc.find("config")->as_string().c_str());
  std::printf("total %llu cycles (per-SM busy cycles summed over SMs and launches)\n\n",
              static_cast<unsigned long long>(total));
  std::printf(" line  cycles%%     issued  sb-stall mem-stall ranges spills  source\n");
  std::istringstream ss(source);
  std::string text;
  std::uint64_t ln = 0;
  auto print_line = [&](std::uint64_t line, const char* src) {
    const Row* r = rows.count(line) ? &rows.at(line) : nullptr;
    const Prov* p = prov.count(line) ? &prov.at(line) : nullptr;
    char num[32];
    if (line == 0) std::snprintf(num, sizeof num, "   ??");
    else std::snprintf(num, sizeof num, "%5llu", static_cast<unsigned long long>(line));
    if (!r && !p) {
      std::printf("%s %54s%s\n", num, "", src);
      return;
    }
    char cyc[64] = "                                       ";
    if (r) {
      std::snprintf(cyc, sizeof cyc, "%6.1f%%  %9llu %9llu %9llu", r->pct,
                    static_cast<unsigned long long>(r->issued),
                    static_cast<unsigned long long>(r->sb),
                    static_cast<unsigned long long>(r->mem));
    }
    char reg[32] = "             ";
    if (p) {
      std::snprintf(reg, sizeof reg, "%6d %6zu", p->ranges, p->spills.size());
    }
    std::printf("%s  %s %s  %s\n", num, cyc, reg, src);
  };
  while (std::getline(ss, text)) {
    ++ln;
    print_line(ln, text.c_str());
  }
  if (rows.count(0) || prov.count(0)) print_line(0, "<unattributed>");

  // The digest the acceptance test reads: the three stall-heaviest lines
  // with their share of cycles and the register pressure they create.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranked;  // (stall, line)
  for (const auto& [line, r] : rows) {
    if (r.sb + r.mem > 0) ranked.emplace_back(r.sb + r.mem, line);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::printf("\ntop stall lines:\n");
  for (std::size_t i = 0; i < ranked.size() && i < 3; ++i) {
    const std::uint64_t line = ranked[i].second;
    const Row& r = rows.at(line);
    std::printf("  %zu. line %llu: %.1f%% of cycles (scoreboard %llu, memory %llu)",
                i + 1, static_cast<unsigned long long>(line), r.pct,
                static_cast<unsigned long long>(r.sb),
                static_cast<unsigned long long>(r.mem));
    if (prov.count(line)) {
      const Prov& p = prov.at(line);
      std::printf("; %d live range(s), %d reg(s)", p.ranges, p.reg_units);
      if (!p.spills.empty()) {
        std::printf("; spilled:");
        for (const std::string& s : p.spills) std::printf(" %s", s.c_str());
      }
    }
    std::printf("\n");
  }
  if (ranked.empty()) std::printf("  (no stall cycles recorded)\n");
}

// -- --sim-compare: field-level cross-check of the two dispatch engines ------

/// Everything the determinism contract covers, as one JSON document: the
/// workload's RunResult (cycles, stats, checksum, per-kernel metrics), every
/// per-SM simulator profile, and the sim.* metrics. The superblock counters
/// are the fast path's own bookkeeping (always zero under ref) and are the
/// one sanctioned difference, so they are excluded.
obs::json::Value compare_doc(const workloads::RunResult& r, const obs::Collector& c) {
  obs::json::Value doc = obs::json::Value::object();
  doc["run"] = r.to_json();
  obs::json::Value profiles = obs::json::Value::array();
  for (const obs::KernelSimProfile& p : c.sim_profiles) profiles.push_back(p.to_json());
  doc["profiles"] = std::move(profiles);
  obs::json::Value metrics = obs::json::Value::object();
  for (const auto& [name, v] : c.metrics.counters()) {
    if (name.rfind("sim.", 0) == 0 && name.rfind("sim.superblock", 0) != 0) {
      metrics[name] = obs::json::Value(v);
    }
  }
  doc["sim_metrics"] = std::move(metrics);
  return doc;
}

/// Recursive structural diff; each divergence is one "path: super=X ref=Y"
/// line.
void diff_json(const obs::json::Value& a, const obs::json::Value& b, const std::string& path,
               std::vector<std::string>& out) {
  using obs::json::Value;
  const std::string label = path.empty() ? "<root>" : path;
  if (a.kind() != b.kind()) {
    out.push_back(label + ": super=" + a.dump() + " ref=" + b.dump());
    return;
  }
  if (a.is_object()) {
    for (const auto& [key, av] : a.members()) {
      const std::string sub = path.empty() ? key : path + "." + key;
      const Value* bv = b.find(key);
      if (!bv) out.push_back(sub + ": super=" + av.dump() + " ref=<absent>");
      else diff_json(av, *bv, sub, out);
    }
    for (const auto& [key, bv] : b.members()) {
      if (!a.find(key)) {
        out.push_back((path.empty() ? key : path + "." + key) + ": super=<absent> ref=" +
                      bv.dump());
      }
    }
    return;
  }
  if (a.is_array()) {
    if (a.size() != b.size()) {
      out.push_back(label + ".length: super=" + std::to_string(a.size()) +
                    " ref=" + std::to_string(b.size()));
      return;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      diff_json(a.at(i), b.at(i), label + "[" + std::to_string(i) + "]", out);
    }
    return;
  }
  if (a.dump() != b.dump()) {
    out.push_back(label + ": super=" + a.dump() + " ref=" + b.dump());
  }
}

/// Runs the compiled workload once per dispatch engine and hard-fails (exit
/// 1) on any divergence in stats, profiles, or checksums.
int run_sim_compare(const workloads::Workload& w, const driver::CompiledProgram& prog,
                    const vgpu::DeviceSpec& spec, vgpu::SimOptions sim) {
  obs::Collector c_super;
  sim.dispatch = vgpu::SimDispatch::kSuper;
  workloads::RunResult r_super = workloads::simulate(w, prog, spec, &c_super, sim);
  obs::Collector c_ref;
  sim.dispatch = vgpu::SimDispatch::kRef;
  workloads::RunResult r_ref = workloads::simulate(w, prog, spec, &c_ref, sim);

  std::vector<std::string> diffs;
  diff_json(compare_doc(r_super, c_super), compare_doc(r_ref, c_ref), "", diffs);
  if (!diffs.empty()) {
    std::fprintf(stderr, "sim-compare: %s: %zu field(s) diverge between dispatch engines:\n",
                 w.name.c_str(), diffs.size());
    for (const std::string& d : diffs) std::fprintf(stderr, "  %s\n", d.c_str());
    return 1;
  }
  std::printf("sim-compare: %s: super and ref dispatch agree "
              "(%llu cycles, checksum %.6g, %zu launch profile(s))\n",
              w.name.c_str(), static_cast<unsigned long long>(r_super.cycles),
              r_super.checksum, c_super.sim_profiles.size());
  return 0;
}

// -- mode rules, checked against the flags the parser saw ---------------------

/// Flags whose output follows the compile report, on stdout or in a file.
constexpr std::string_view kOutputFlags[] = {
    "--emit-vir", "--emit-source", "--time-passes", "--trace-out", "--metrics-out",
    "--simulate", "--sim-profile", "--sim-profile-out", "--annotate",
};

/// Flags that launch the input, so it needs a dataset: a workload's.
constexpr std::string_view kLaunchFlags[] = {
    "--simulate", "--sim-profile", "--sim-profile-out", "--annotate", "--sim-compare",
};

/// `kOutputFlags` and `others`.
std::vector<std::string_view> outputs_and(std::initializer_list<std::string_view> others) {
  std::vector<std::string_view> refused(std::begin(kOutputFlags), std::end(kOutputFlags));
  refused.insert(refused.end(), others);
  return refused;
}

bool contains(std::span<const std::string_view> names, std::string_view name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string fn_name;
  std::string config = "safara_clauses";
  std::string workload_name;
  std::string trace_out;
  std::string metrics_out;
  std::string sim_profile_out;
  bool emit_vir = false;
  bool dump_vir = false;
  bool emit_source = false;
  bool time_passes = false;
  bool sim_profile = false;
  bool sim_compare = false;
  bool annotate = false;
  bool simulate = false;
  int unroll = 0;
  int max_regs = 0;
  bool verify = false;
  driver::RunOptions run;

  std::vector<std::string_view> workload_names;
  for (const workloads::Workload& w : workloads::all_workloads()) workload_names.push_back(w.name);
  driver::Command cmd{
      .prog = "safcc",
      .synopsis = "<file.acc> | --workload NAME [flags]",
      .flags = {
          driver::text_flag("--fn", "a function name", fn_name),
          driver::choice_flag("--config", driver::config_names(), config),
          driver::choice_flag("--workload", workload_names, workload_name),
          driver::switch_flag("--emit-vir", emit_vir),
          driver::switch_flag("--dump-vir", dump_vir),
          driver::switch_flag("--emit-source", emit_source),
          driver::int_flag("--unroll", unroll, 0),
          driver::int_flag("--max-regs", max_regs, 1,
                           run.compiler.device.max_registers_per_thread),
          driver::switch_flag("--verify-clauses", verify),
          driver::text_flag("--trace-out", "a file name", trace_out),
          driver::text_flag("--metrics-out", "a file name", metrics_out),
          driver::switch_flag("--time-passes", time_passes),
          driver::switch_flag("--simulate", simulate),
          driver::switch_flag("--sim-profile", sim_profile),
          driver::text_flag("--sim-profile-out", "a file name", sim_profile_out),
          driver::switch_flag("--annotate", annotate),
          driver::switch_flag("--sim-compare", sim_compare),
      },
      .operand = &path,
      .epilogue = "",
  };
  for (driver::Flag& flag : driver::run_flags(run)) cmd.flags.push_back(std::move(flag));
  const std::vector<std::string_view> seen = driver::parse_flags(cmd, argc, argv);

  if (path.empty() == workload_name.empty()) {
    driver::usage_error(cmd, "expected exactly one input (<file.acc> or --workload NAME)");
  }
  // --dump-vir's stdout is the dump alone (tools/update_golden.py captures it
  // verbatim) and --sim-compare's is its verdict alone, so each refuses every
  // flag whose output it would drop; --sim-compare also picks the dispatch
  // engine of each of its runs itself. --fn picks a function of a file input.
  const std::pair<std::string_view, std::vector<std::string_view>> refusals[] = {
      {"--dump-vir", outputs_and({"--sim-compare"})},
      {"--sim-compare", outputs_and({"--dump-vir", "--sim-dispatch"})},
      {"--workload", {"--fn"}},
  };
  for (const auto& [mode, refused] : refusals) {
    if (!contains(seen, mode)) continue;
    for (std::string_view flag : seen) {
      if (!contains(refused, flag)) continue;
      std::fprintf(stderr, "safcc: %.*s cannot be combined with %.*s\n",
                   static_cast<int>(mode.size()), mode.data(), static_cast<int>(flag.size()),
                   flag.data());
      return 2;
    }
  }
  for (std::string_view flag : seen) {
    if (!contains(kLaunchFlags, flag) || !workload_name.empty()) continue;
    std::fprintf(stderr,
                 "safcc: %.*s needs a runnable input; use --workload NAME "
                 "(a file alone has no dataset to launch with)\n",
                 static_cast<int>(flag.size()), flag.data());
    return 2;
  }
  // The attribution views, each read from a simulated launch's profile.
  const bool profiling = sim_profile || annotate || !sim_profile_out.empty();

  driver::CompilerOptions opts = *driver::named_config(config, run.compiler);
  if (unroll > 1) {
    opts.enable_unroll = true;
    opts.unroll.factor = unroll;
  }
  if (max_regs > 0) opts.regalloc.max_registers = max_regs;
  if (verify) opts.verify_clauses = true;

  // One collector for the whole invocation: compilation spans, metrics, and
  // (with --sim-profile) the simulator's per-SM breakdowns all land here.
  obs::Collector collector;
  const bool observing =
      !trace_out.empty() || !metrics_out.empty() || time_passes || profiling;

  driver::CompiledProgram prog;
  workloads::RunResult run_result;
  bool ran_workload = false;
  std::string input_label;
  std::string source_text;
  try {
    if (!workload_name.empty()) {
      const workloads::Workload* w = workloads::find_workload(workload_name);
      input_label = w->name;
      source_text = w->source;
      driver::Compiler compiler(opts, observing ? &collector : nullptr);
      prog = compiler.compile(w->source, w->function);
      // Dedicated mode: run both dispatch engines and diff their results.
      if (sim_compare) return run_sim_compare(*w, prog, opts.device, run.sim);
      if (profiling || simulate) {
        run_result = workloads::simulate(*w, prog, opts.device,
                                         observing ? &collector : nullptr, run.sim);
        ran_workload = true;
      }
    } else {
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "safcc: cannot open '%s'\n", path.c_str());
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      input_label = path;
      source_text = buf.str();
      driver::Compiler compiler(opts, observing ? &collector : nullptr);
      prog = compiler.compile(buf.str(), fn_name);
    }
  } catch (const CompileError& e) {
    std::fprintf(stderr, "safcc: %s\n", e.what());
    return 1;
  }

  // Canonical dump for the golden-IR snapshot tests: nothing but the dump on
  // stdout, so tools/update_golden.py can capture it verbatim.
  if (dump_vir) {
    std::fputs(driver::dump_vir(prog).c_str(), stdout);
    return 0;
  }

  print_report(prog, config, ran_workload, input_label, run_result);
  if (profiling) {
    const obs::json::Value profile_doc =
        driver::sim_profile_doc(prog, collector, input_label, config);
    if (sim_profile) print_sim_profile(profile_doc);
    if (annotate) print_annotate(profile_doc, source_text);
    if (!sim_profile_out.empty()) {
      if (!write_file(sim_profile_out, profile_doc.dump(2) + "\n")) return 1;
      std::printf("profile: wrote %s\n", sim_profile_out.c_str());
    }
  }
  print_emits(prog, emit_source, emit_vir);
  if (time_passes) {
    std::printf("\n%s", collector.tracer.time_report().c_str());
  }
  if (!trace_out.empty()) {
    if (!write_file(trace_out, collector.tracer.chrome_trace().dump(2) + "\n")) return 1;
    std::printf("trace: wrote %s (open in chrome://tracing or ui.perfetto.dev)\n",
                trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    obs::json::Value doc = collector.report();
    doc["input"] = obs::json::Value(input_label);
    doc["config"] = obs::json::Value(config);
    doc["safara"] = prog.safara.to_json();
    obs::json::Value kernels = obs::json::Value::array();
    for (const driver::CompiledKernel& k : prog.kernels) {
      obs::json::Value kj = obs::json::Value::object();
      kj["name"] = obs::json::Value(k.name);
      kj["regs_used"] = obs::json::Value(k.alloc.regs_used);
      kj["spill_bytes"] = obs::json::Value(k.alloc.spill_bytes);
      kernels.push_back(std::move(kj));
    }
    doc["kernels"] = std::move(kernels);
    if (ran_workload) doc["run"] = run_result.to_json();
    if (!write_file(metrics_out, doc.dump(2) + "\n")) return 1;
    std::printf("metrics: wrote %s\n", metrics_out.c_str());
  }
  return 0;
}

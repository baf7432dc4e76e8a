#include "opt/safara.hpp"

#include <algorithm>
#include <sstream>

#include "ast/walk.hpp"
#include "opt/scalar_replacement.hpp"
#include "sema/sema.hpp"

namespace safara::opt {

using analysis::CostModel;
using analysis::ReuseGroup;

obs::json::Value SafaraRegionReport::to_json() const {
  obs::json::Value v = obs::json::Value::object();
  v["region_index"] = obs::json::Value(region_index);
  v["iterations"] = obs::json::Value(iterations);
  v["groups_replaced"] = obs::json::Value(groups_replaced);
  v["scalars_introduced"] = obs::json::Value(scalars_introduced);
  v["final_registers"] = obs::json::Value(final_registers);
  obs::json::Value lg = obs::json::Value::array();
  for (const std::string& line : log) lg.push_back(obs::json::Value(line));
  v["log"] = std::move(lg);
  return v;
}

obs::json::Value SafaraReport::to_json() const {
  obs::json::Value v = obs::json::Value::object();
  v["total_groups"] = obs::json::Value(total_groups());
  obs::json::Value rs = obs::json::Value::array();
  for (const SafaraRegionReport& r : regions) rs.push_back(r.to_json());
  v["regions"] = std::move(rs);
  return v;
}

namespace {

// Counts offload regions with a plain syntactic walk: a region is a ForStmt
// whose directive opens an offload construct, and regions cannot nest (sema
// rejects that), so the walk does not descend into offload bodies. This is
// exactly sema's discovery order/count without paying a full analysis.
std::size_t count_offload_regions(const ast::Stmt& s) {
  if (s.kind == ast::StmtKind::kFor) {
    const auto& f = s.as<ast::ForStmt>();
    if (f.directive && f.directive->is_offload()) return 1;
  }
  std::size_t count = 0;
  ast::for_each_child(s, [&](const ast::Stmt& c) { count += count_offload_regions(c); });
  return count;
}

}  // namespace

SafaraReport run_safara(ast::Function& fn, const RegisterFeedback& feedback,
                        const SafaraOptions& opts, DiagnosticEngine& diags,
                        obs::Collector* collector) {
  SafaraReport report;
  CostModel cost(opts.latency);
  SrNameGen names;
  obs::Tracer* tracer = obs::tracer_of(collector);

  // The region count is fixed by the source; a syntactic walk discovers it
  // without the full sema analysis this pass formerly ran (and threw away).
  const std::size_t num_regions = fn.body ? count_offload_regions(*fn.body) : 0;

  for (std::size_t r = 0; r < num_regions; ++r) {
    SafaraRegionReport rr;
    rr.region_index = static_cast<int>(r);
    obs::ScopedSpan region_span(tracer, "safara.region", "safara");
    region_span.set_arg("region_index", obs::json::Value(static_cast<int>(r)));

    for (int iter = 0; iter < opts.max_iterations; ++iter) {
      if (!diags.ok()) break;
      obs::ScopedSpan iter_span(tracer, "safara.iteration", "safara");
      iter_span.set_arg("region_index", obs::json::Value(static_cast<int>(r)));
      iter_span.set_arg("iteration", obs::json::Value(iter));
      if (collector) collector->metrics.add("safara.iterations");
      // The backend feedback first: it runs its own sema over `fn`, which
      // rebinds the AST's symbol pointers to a transient symbol table...
      const int regs = feedback(fn, static_cast<int>(r));
      // ...so re-analyze immediately afterwards to bind the AST to symbols
      // that stay alive (owned by `info`) for the rest of this iteration.
      if (collector) collector->metrics.add("safara.sema_reanalyses");
      sema::Sema sema(diags);
      auto info = sema.analyze(fn);
      if (!diags.ok() || r >= info->regions.size()) break;
      const sema::OffloadRegion& region = info->regions[r];
      rr.final_registers = regs;
      const int avail = opts.max_registers - regs;
      iter_span.set_arg("regs_reported", obs::json::Value(regs));
      iter_span.set_arg("register_budget", obs::json::Value(opts.max_registers));
      iter_span.set_arg("regs_available", obs::json::Value(avail));
      // Overwritten below when groups are picked; an iteration that stops
      // early replaces nothing, so the prediction is what ptxas reported.
      iter_span.set_arg("regs_predicted_after", obs::json::Value(regs));
      {
        std::ostringstream os;
        os << "iteration " << iter << ": ptxas reports " << regs
           << " registers, budget " << opts.max_registers << ", available " << avail;
        rr.log.push_back(os.str());
      }
      ++rr.iterations;
      if (avail <= 0) {
        rr.log.push_back("register file saturated; stopping");
        iter_span.set_arg("stop", obs::json::Value("saturated"));
        break;
      }

      analysis::RegionAccesses accesses = analysis::analyze_accesses(region);
      std::vector<ReuseGroup> groups =
          analysis::find_reuse_groups(region, accesses, opts.reuse);
      // Drop groups that save nothing.
      groups.erase(std::remove_if(groups.begin(), groups.end(),
                                  [](const ReuseGroup& g) {
                                    return g.saved_loads_per_iteration() < 1;
                                  }),
                   groups.end());
      if (groups.empty()) {
        rr.log.push_back("no replaceable reuse remains; stopping");
        iter_span.set_arg("stop", obs::json::Value("no_candidates"));
        break;
      }
      iter_span.set_arg("candidate_groups", obs::json::Value(static_cast<int>(groups.size())));

      std::sort(groups.begin(), groups.end(),
                [&](const ReuseGroup& a, const ReuseGroup& b) {
                  double pa = opts.use_cost_model ? cost.group_priority(a)
                                                  : cost.count_priority(a);
                  double pb = opts.use_cost_model ? cost.group_priority(b)
                                                  : cost.count_priority(b);
                  if (pa != pb) return pa > pb;
                  // Deterministic tie-break: array name, then distance.
                  if (a.array->name != b.array->name) {
                    return a.array->name < b.array->name;
                  }
                  return a.distance < b.distance;
                });

      int budget = avail;
      std::vector<const ReuseGroup*> picked;
      for (const ReuseGroup& g : groups) {
        if (g.registers_needed() <= budget) {
          picked.push_back(&g);
          budget -= g.registers_needed();
        }
      }
      if (picked.empty()) {
        rr.log.push_back("remaining candidates exceed the register budget; stopping");
        iter_span.set_arg("stop", obs::json::Value("budget_exhausted"));
        break;
      }

      obs::json::Value picked_json = obs::json::Value::array();
      for (const ReuseGroup* g : picked) {
        std::ostringstream os;
        os << "replacing " << analysis::to_string(g->kind) << " group on '"
           << g->array->name << "' (" << g->reference_count() << " refs, "
           << analysis::to_string(g->space) << ", "
           << analysis::to_string(g->coalescing) << ", cost "
           << cost.group_priority(*g) << ", " << g->registers_needed() << " regs)";
        rr.log.push_back(os.str());
        if (tracer) {
          obs::json::Value gj = obs::json::Value::object();
          gj["array"] = obs::json::Value(g->array->name);
          gj["kind"] = obs::json::Value(analysis::to_string(g->kind));
          gj["references"] = obs::json::Value(g->reference_count());
          gj["cost"] = obs::json::Value(cost.group_priority(*g));
          gj["registers_needed"] = obs::json::Value(g->registers_needed());
          picked_json.push_back(std::move(gj));
        }
        int scalars = apply_scalar_replacement(*region.loop, *g, names, diags);
        rr.scalars_introduced += scalars;
        if (scalars > 0) ++rr.groups_replaced;
        if (collector && scalars > 0) {
          collector->metrics.add("safara.groups_replaced");
          collector->metrics.add("safara.scalars_introduced", scalars);
        }
      }
      // What the pass expects the next feedback round to report: the regs
      // it saw plus everything it just spent on scalars.
      iter_span.set_arg("groups_picked", obs::json::Value(static_cast<int>(picked.size())));
      iter_span.set_arg("regs_predicted_after", obs::json::Value(regs + (avail - budget)));
      if (tracer) iter_span.set_arg("picked", std::move(picked_json));
    }
    region_span.set_arg("iterations", obs::json::Value(rr.iterations));
    region_span.set_arg("final_registers", obs::json::Value(rr.final_registers));
    region_span.set_arg("groups_replaced", obs::json::Value(rr.groups_replaced));
    report.regions.push_back(std::move(rr));
  }
  return report;
}

}  // namespace safara::opt

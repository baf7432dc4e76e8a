#include "obs/collector.hpp"

#include <algorithm>

namespace safara::obs {

json::Value SmProfile::to_json() const {
  json::Value v = json::Value::object();
  v["sm"] = json::Value(sm);
  v["cycles"] = json::Value(cycles);
  v["issue_cycles"] = json::Value(issue_cycles);
  v["issued_instructions"] = json::Value(issued_instructions);
  v["stall_scoreboard"] = json::Value(stall_scoreboard);
  v["stall_memory"] = json::Value(stall_memory);
  v["stall_no_warp"] = json::Value(stall_no_warp);
  v["blocks_executed"] = json::Value(blocks_executed);
  v["max_resident_warps"] = json::Value(max_resident_warps);
  // Sparse per-pc attribution: only instructions that saw any activity.
  // Including it here means `safcc --sim-compare` (which diffs these
  // documents) checks attribution bit-identity between engines for free.
  if (!pcs.empty()) {
    json::Value pj = json::Value::array();
    for (std::size_t pc = 0; pc < pcs.size(); ++pc) {
      const PcProfile& p = pcs[pc];
      if (!p.any()) continue;
      json::Value row = json::Value::object();
      row["pc"] = json::Value(static_cast<std::uint64_t>(pc));
      row["issued"] = json::Value(p.issued);
      row["issue_cycles"] = json::Value(p.issue_cycles);
      row["stall_scoreboard"] = json::Value(p.stall_scoreboard);
      row["stall_memory"] = json::Value(p.stall_memory);
      pj.push_back(std::move(row));
    }
    v["pcs"] = std::move(pj);
  }
  if (!warp_timeline.empty()) {
    json::Value tj = json::Value::array();
    for (const WarpSample& s : warp_timeline) {
      json::Value row = json::Value::object();
      row["cycle"] = json::Value(s.cycle);
      row["warps"] = json::Value(static_cast<std::uint64_t>(s.warps));
      tj.push_back(std::move(row));
    }
    v["warp_timeline"] = std::move(tj);
  }
  return v;
}

SmProfile KernelSimProfile::totals() const {
  SmProfile t;
  t.sm = -1;
  for (const SmProfile& s : sms) {
    t.cycles = std::max(t.cycles, s.cycles);  // launch time = slowest SM
    t.issue_cycles += s.issue_cycles;
    t.issued_instructions += s.issued_instructions;
    t.stall_scoreboard += s.stall_scoreboard;
    t.stall_memory += s.stall_memory;
    t.stall_no_warp += s.stall_no_warp;
    t.blocks_executed += s.blocks_executed;
    t.max_resident_warps = std::max(t.max_resident_warps, s.max_resident_warps);
    if (!s.pcs.empty()) {
      if (t.pcs.size() < s.pcs.size()) t.pcs.resize(s.pcs.size());
      for (std::size_t pc = 0; pc < s.pcs.size(); ++pc) {
        t.pcs[pc].issued += s.pcs[pc].issued;
        t.pcs[pc].issue_cycles += s.pcs[pc].issue_cycles;
        t.pcs[pc].stall_scoreboard += s.pcs[pc].stall_scoreboard;
        t.pcs[pc].stall_memory += s.pcs[pc].stall_memory;
      }
    }
  }
  return t;
}

json::Value KernelSimProfile::to_json() const {
  json::Value v = json::Value::object();
  v["kernel"] = json::Value(kernel);
  v["launch_index"] = json::Value(launch_index);
  if (!launch_stats.is_null()) v["launch_stats"] = launch_stats;
  SmProfile t = totals();
  json::Value tj = t.to_json();
  // The aggregate row is not one SM; drop the index (and the bulky per-pc /
  // timeline arrays, which stay per-SM only).
  json::Value agg = json::Value::object();
  for (const auto& [k, val] : tj.members()) {
    if (k != "sm" && k != "pcs" && k != "warp_timeline") agg[k] = val;
  }
  v["totals"] = std::move(agg);
  json::Value sms_j = json::Value::array();
  for (const SmProfile& s : sms) sms_j.push_back(s.to_json());
  v["sms"] = std::move(sms_j);
  return v;
}

json::Value Collector::sim_to_json() const {
  json::Value v = json::Value::object();
  json::Value launches = json::Value::array();
  for (const KernelSimProfile& p : sim_profiles) launches.push_back(p.to_json());
  v["launches"] = std::move(launches);
  return v;
}

json::Value Collector::report() const {
  json::Value v = json::Value::object();
  v["metrics"] = metrics.to_json();
  if (!sim_profiles.empty()) v["sim"] = sim_to_json();
  return v;
}

}  // namespace safara::obs

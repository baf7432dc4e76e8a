#include "driver/sim_profile.hpp"

#include <map>

#include "regalloc/regalloc.hpp"
#include "vir/vir.hpp"

namespace safara::driver {

namespace {

/// Instruction text without the `;; line N` provenance suffix (the document
/// carries line/col as structured fields instead).
std::string op_text(const vir::Instr& in, const vir::Kernel& k) {
  std::string s = vir::to_string(in, k);
  const std::size_t at = s.rfind("  ;; line ");
  if (at != std::string::npos) s.erase(at);
  return s;
}

}  // namespace

obs::json::Value sim_profile_doc(const CompiledProgram& prog, const obs::Collector& c,
                                 const std::string& input, const std::string& config) {
  using obs::json::Value;
  Value doc = Value::object();
  doc["schema"] = Value("safara.sim_profile/v1");
  doc["input"] = Value(input);
  doc["config"] = Value(config);

  // Static side: instruction and register-pressure provenance.
  Value kernels = Value::array();
  for (const CompiledKernel& k : prog.kernels) {
    Value kj = Value::object();
    kj["name"] = Value(k.name);
    kj["regs_used"] = Value(k.alloc.regs_used);
    kj["spill_bytes"] = Value(k.alloc.spill_bytes);
    Value code = Value::array();
    for (std::size_t pc = 0; pc < k.kernel.code.size(); ++pc) {
      const vir::Instr& in = k.kernel.code[pc];
      Value row = Value::object();
      row["pc"] = Value(static_cast<std::uint64_t>(pc));
      row["op"] = Value(op_text(in, k.kernel));
      row["line"] = Value(static_cast<std::uint64_t>(in.loc.line));
      row["col"] = Value(static_cast<std::uint64_t>(in.loc.col));
      code.push_back(std::move(row));
    }
    kj["code"] = std::move(code);
    Value ranges = Value::array();
    for (const regalloc::LiveRange& r : k.alloc.ranges) {
      Value row = Value::object();
      row["vreg"] = Value(static_cast<std::uint64_t>(r.vreg));
      row["name"] = Value(r.vreg < k.kernel.vreg_names.size()
                              ? k.kernel.vreg_names[r.vreg]
                              : std::string());
      row["start"] = Value(r.start);
      row["end"] = Value(r.end);
      const std::size_t def = static_cast<std::size_t>(r.start < 0 ? 0 : r.start);
      row["line"] = Value(static_cast<std::uint64_t>(
          def < k.kernel.code.size() ? k.kernel.code[def].loc.line : 0));
      row["first_unit"] = Value(r.first_unit);
      row["units"] = Value(r.units);
      row["spill_slot"] = Value(r.spill_slot);
      row["spill_mem"] = Value(std::string(r.in_shared ? "shared" : "local"));
      ranges.push_back(std::move(row));
    }
    kj["ranges"] = std::move(ranges);
    kernels.push_back(std::move(kj));
  }
  doc["kernels"] = std::move(kernels);

  // Dynamic side, verbatim: per-SM pc profiles and occupancy timelines.
  Value launches = Value::array();
  for (const obs::KernelSimProfile& p : c.sim_profiles) launches.push_back(p.to_json());
  doc["launches"] = std::move(launches);

  // Per-line rollup across all launches; pc -> line via the kernel's code.
  struct LineAgg {
    std::uint64_t issued = 0, issue_cycles = 0, sb = 0, mem = 0;
  };
  std::map<std::uint32_t, LineAgg> by_line;
  std::uint64_t total = 0;
  for (const obs::KernelSimProfile& p : c.sim_profiles) {
    const vir::Kernel* kk = nullptr;
    for (const CompiledKernel& k : prog.kernels) {
      if (k.name == p.kernel) {
        kk = &k.kernel;
        break;
      }
    }
    for (const obs::SmProfile& s : p.sms) total += s.cycles;
    const obs::SmProfile t = p.totals();
    for (std::size_t pc = 0; pc < t.pcs.size(); ++pc) {
      const obs::PcProfile& q = t.pcs[pc];
      if (!q.any()) continue;
      const std::uint32_t line =
          (kk && pc < kk->code.size()) ? kk->code[pc].loc.line : 0;
      LineAgg& a = by_line[line];
      a.issued += q.issued;
      a.issue_cycles += q.issue_cycles;
      a.sb += q.stall_scoreboard;
      a.mem += q.stall_memory;
    }
  }
  doc["total_cycles"] = Value(total);
  Value lines = Value::array();
  for (const auto& [line, a] : by_line) {
    Value row = Value::object();
    row["line"] = Value(static_cast<std::uint64_t>(line));
    row["issued"] = Value(a.issued);
    row["issue_cycles"] = Value(a.issue_cycles);
    row["stall_scoreboard"] = Value(a.sb);
    row["stall_memory"] = Value(a.mem);
    const std::uint64_t cyc = a.issue_cycles + a.sb + a.mem;
    row["cycles"] = Value(cyc);
    row["cycles_pct"] =
        Value(total > 0 ? 100.0 * static_cast<double>(cyc) / static_cast<double>(total)
                        : 0.0);
    lines.push_back(std::move(row));
  }
  doc["lines"] = std::move(lines);
  return doc;
}

}  // namespace safara::driver

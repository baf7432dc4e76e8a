#include "workloads/harness.hpp"

#include <algorithm>
#include <chrono>

#include "driver/verified_launch.hpp"
#include "parse/parser.hpp"
#include "rt/runtime.hpp"

namespace safara::workloads {

double checksum_of(const Dataset& data, const std::vector<std::string>& outputs) {
  double sum = 0.0;
  for (const std::string& name : outputs) {
    const driver::HostArray& arr = data.array(name);
    const std::int64_t count = arr.element_count();
    for (std::int64_t i = 0; i < count; ++i) sum += arr.get(i);
  }
  return sum;
}

obs::json::Value KernelMetrics::to_json() const {
  obs::json::Value v = obs::json::Value::object();
  v["name"] = obs::json::Value(name);
  v["regs"] = obs::json::Value(regs);
  v["spill_bytes"] = obs::json::Value(spill_bytes);
  v["shared_spill_bytes"] = obs::json::Value(shared_spill_bytes);
  v["occupancy"] = obs::json::Value(occupancy);
  v["cycles"] = obs::json::Value(cycles);
  return v;
}

obs::json::Value RunResult::to_json() const {
  obs::json::Value v = obs::json::Value::object();
  v["cycles"] = obs::json::Value(cycles);
  v["warp_instructions"] = obs::json::Value(warp_instructions);
  v["global_loads"] = obs::json::Value(global_loads);
  v["mem_transactions"] = obs::json::Value(mem_transactions);
  v["spill_accesses"] = obs::json::Value(spill_accesses);
  v["shared_accesses"] = obs::json::Value(shared_accesses);
  v["shared_bank_conflicts"] = obs::json::Value(shared_bank_conflicts);
  v["max_regs"] = obs::json::Value(max_regs);
  v["min_occupancy"] = obs::json::Value(min_occupancy);
  v["checksum"] = obs::json::Value(checksum);
  obs::json::Value ks = obs::json::Value::array();
  for (const KernelMetrics& k : kernels) ks.push_back(k.to_json());
  v["kernels"] = std::move(ks);
  return v;
}

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

std::vector<vgpu::LaunchStats> run(const driver::CompiledProgram& prog, Dataset& data,
                                   const vgpu::DeviceSpec& spec, obs::Collector* collector,
                                   const vgpu::SimOptions& sim, int steps) {
  obs::Tracer* tracer = obs::tracer_of(collector);
  rt::Device dev(spec);
  rt::Runtime runtime(dev, sim);

  std::map<std::string, rt::Buffer> buffers;
  {
    obs::ScopedSpan span(tracer, "rt.copy_in", "rt");
    for (auto& [name, arr] : data.arrays) {
      rt::Buffer buf = runtime.alloc(arr.elem, arr.dims);
      dev.memory().copy_in(buf.device_addr, arr.data.data(), arr.data.size());
      buffers.emplace(name, buf);
    }
  }
  rt::ArgMap args;
  for (auto& [name, buf] : buffers) args.emplace(name, &buf);
  for (auto& [name, sv] : data.scalars) args.emplace(name, sv);

  std::vector<vgpu::LaunchStats> stats;
  for (int step = 0; step < steps; ++step) {
    for (std::size_t k = 0; k < prog.kernels.size(); ++k) {
      if (prog.fallback) {
        stats.push_back(driver::launch_verified(runtime, prog, k, args, collector).stats);
      } else {
        const driver::CompiledKernel& ck = prog.kernels[k];
        stats.push_back(runtime.launch(ck.kernel, ck.alloc, ck.plan, args, collector));
      }
    }
  }

  obs::ScopedSpan span(tracer, "rt.copy_out", "rt");
  for (auto& [name, arr] : data.arrays) {
    dev.memory().copy_out(buffers.at(name).device_addr, arr.data.data(), arr.data.size());
  }
  return stats;
}

RunResult simulate(const Workload& w, const driver::CompiledProgram& prog,
                   const vgpu::DeviceSpec& spec, obs::Collector* collector,
                   const vgpu::SimOptions& sim) {
  obs::Tracer* tracer = obs::tracer_of(collector);
  obs::ScopedSpan span(tracer, "workload.simulate", "harness");
  span.set_arg("workload", obs::json::Value(w.name));

  Dataset data;
  {
    obs::ScopedSpan dataset_span(tracer, "workloads.dataset", "harness");
    data = w.make_dataset();
  }
  RunResult result;
  const Clock::time_point sim_start = Clock::now();
  const std::vector<vgpu::LaunchStats> launches =
      run(prog, data, spec, collector, sim, w.time_steps);
  result.sim_ms = ms_since(sim_start);

  result.kernels.resize(prog.kernels.size());
  for (std::size_t i = 0; i < launches.size(); ++i) {
    const vgpu::LaunchStats& stats = launches[i];
    result.cycles += stats.cycles;
    result.warp_instructions += stats.warp_instructions;
    result.global_loads += stats.global_loads;
    result.mem_transactions += stats.mem_transactions;
    result.spill_accesses += stats.spill_accesses;
    result.shared_accesses += stats.shared_accesses;
    result.shared_bank_conflicts += stats.shared_bank_conflicts;
    result.max_regs = std::max(result.max_regs, stats.regs_per_thread);
    result.min_occupancy = std::min(result.min_occupancy, stats.occupancy);

    const std::size_t k = i % prog.kernels.size();  // launches cycle through the kernels
    const driver::CompiledKernel& ck = prog.kernels[k];
    KernelMetrics& km = result.kernels[k];
    km.name = ck.name;
    km.regs = ck.alloc.regs_used;
    km.spill_bytes = ck.alloc.spill_bytes;
    km.shared_spill_bytes = ck.alloc.shared_spill_bytes;
    km.occupancy = stats.occupancy;
    km.cycles += stats.cycles;
  }

  obs::ScopedSpan checksum_span(tracer, "workloads.checksum", "harness");
  result.checksum = checksum_of(data, w.outputs);
  return result;
}

RunResult simulate(const Workload& w, const driver::CompilerOptions& opts,
                   obs::Collector* collector, const vgpu::SimOptions& sim) {
  const Clock::time_point compile_start = Clock::now();
  const driver::CompiledProgram prog =
      driver::Compiler(opts, collector).compile(w.source, w.function);
  const double compile_ms = ms_since(compile_start);
  RunResult result = simulate(w, prog, opts.device, collector, sim);
  result.compile_ms = compile_ms;
  return result;
}

RunResult run_reference(const Workload& w) {
  Dataset data = w.make_dataset();

  DiagnosticEngine diags;
  ast::Program program = parse::parse_source(w.source, diags);
  if (!diags.ok()) throw CompileError("workload parse failed:\n" + diags.render());
  ast::Function* fn = w.function.empty() ? program.functions.front().get()
                                         : program.find(w.function);
  if (!fn) throw CompileError("workload function not found: " + w.function);

  driver::RefArgMap args = data.ref_args();
  for (int step = 0; step < w.time_steps; ++step) {
    driver::run_reference(*fn, args);
  }

  RunResult result;
  result.checksum = checksum_of(data, w.outputs);
  return result;
}

}  // namespace safara::workloads

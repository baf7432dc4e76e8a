#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>

#include "ast/hash.hpp"
#include "parse/parser.hpp"
#include "regalloc/regdem.hpp"
#include "rt/runtime.hpp"
#include "sema/sema.hpp"
#include "support/arena.hpp"

namespace safara::perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* to_string(Layer l) {
  switch (l) {
    case Layer::kJob: return "job";
    case Layer::kCompile: return "driver.compile";
    case Layer::kParse: return "parse";
    case Layer::kSema: return "sema";
    case Layer::kOpt: return "opt.safara";
    case Layer::kCodegen: return "codegen";
    case Layer::kVir: return "vir";
    case Layer::kRegalloc: return "regalloc";
    case Layer::kDataset: return "workloads.dataset";
    case Layer::kCopyIn: return "rt.copy_in";
    case Layer::kLaunch: return "vgpu.launch";
    case Layer::kCopyOut: return "rt.copy_out";
    case Layer::kChecksum: return "workloads.checksum";
    case Layer::kCount: break;
  }
  return "?";
}

LayerCounts& LayerCounts::operator+=(const LayerCounts& o) {
  parse_calls += o.parse_calls;
  sema_calls += o.sema_calls;
  codegen_kernels += o.codegen_kernels;
  feedback_lookups += o.feedback_lookups;
  feedback_compiles += o.feedback_compiles;
  groups_replaced += o.groups_replaced;
  vir_instrs += o.vir_instrs;
  regs += o.regs;
  spill_bytes += o.spill_bytes;
  bytes_copied += o.bytes_copied;
  launches += o.launches;
  ro_hits += o.ro_hits;
  ro_misses += o.ro_misses;
  return *this;
}

int JobTrace::open(Layer layer) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{layer, current_, now_ns(), 0});
  current_ = index;
  return index;
}

void JobTrace::close(int span) {
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.t1_ns = now_ns();
  current_ = s.parent;
}

SelfTimes self_times(const JobTrace& trace) {
  SelfTimes self{};
  const std::vector<Span>& spans = trace.spans();
  for (const Span& s : spans) {
    const std::int64_t dur = s.t1_ns - s.t0_ns;
    self[static_cast<std::size_t>(s.layer)] += dur;
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(spans[static_cast<std::size_t>(s.parent)].layer)] -= dur;
    }
  }
  return self;
}

std::size_t FeedbackMemo::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = k.fn_hash;
  h ^= k.config + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= static_cast<std::uint64_t>(k.region) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return static_cast<std::size_t>(h);
}

void FeedbackMemo::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

bool FeedbackMemo::find(std::uint64_t fn_hash, int region, std::uint64_t config,
                        int& regs) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(Key{fn_hash, config, region});
  if (it == map_.end()) return false;
  regs = it->second;
  return true;
}

void FeedbackMemo::insert(std::uint64_t fn_hash, int region, std::uint64_t config, int regs) {
  std::lock_guard<std::mutex> lock(mu_);
  map_.emplace(Key{fn_hash, config, region}, regs);
}

driver::CompiledProgram replay_compile(JobTrace& trace, FeedbackMemo& memo,
                                       std::string_view source, const std::string& fn_name,
                                       const driver::CompilerOptions& opts) {
  if (opts.enable_unroll || opts.enable_carr_kennedy || opts.verify_clauses) {
    throw std::invalid_argument("replay: unroll, Carr-Kennedy and clause verification "
                                "are not replayed");
  }
  SpanScope compile_span(trace, Layer::kCompile);
  LayerCounts& counts = trace.counts;

  // Declared before `program` so the parsed tree dies first, as in the driver.
  support::Arena parse_arena;
  DiagnosticEngine diags;
  ast::Program program;
  {
    SpanScope span(trace, Layer::kParse);
    ++counts.parse_calls;
    support::ArenaScope scope(parse_arena);
    program = parse::parse_source(source, diags);
  }
  if (!diags.ok()) throw CompileError("parse failed:\n" + diags.render());
  const ast::Function* fn = fn_name.empty() && program.functions.size() == 1
                                ? program.functions.front().get()
                                : program.find(fn_name);
  if (!fn) throw CompileError("replay: no function named '" + fn_name + "'");

  driver::CompiledProgram out;
  out.arena = std::make_unique<support::Arena>();
  support::ArenaScope ast_scope(*out.arena);
  out.function_name = fn->name;
  out.transformed = fn->clone();
  ast::Function& work = *out.transformed;

  sema::Sema sema(diags);
  // Kept alive like the driver's: the AST's bound symbols point into it.
  std::unique_ptr<sema::FunctionInfo> info;
  {
    SpanScope span(trace, Layer::kSema);
    ++counts.sema_calls;
    info = sema.analyze(work);
  }
  if (!diags.ok()) throw CompileError("sema failed:\n" + diags.render());

  codegen::CodegenOptions cg;
  cg.honor_dim = opts.honor_dim;
  cg.honor_small = opts.honor_small;
  cg.licm = true;
  cg.cse_loads_within_stmt = opts.persona == driver::Persona::kPgiLike;

  if (opts.enable_safara) {
    opt::SafaraOptions sopts = opts.safara;
    sopts.latency = opts.device.lat;
    sopts.max_registers = std::min(sopts.max_registers, opts.device.max_registers_per_thread);
    const std::uint64_t config = driver::options_fingerprint(opts);
    auto feedback = [&](ast::Function& f, int region_index) -> int {
      std::uint64_t fn_hash = 0;
      if (opts.safara_feedback_cache) {
        ++counts.feedback_lookups;
        fn_hash = ast::hash(f);
        int regs = 0;
        if (memo.find(fn_hash, region_index, config, regs)) return regs;
      }
      DiagnosticEngine fb_diags;
      std::unique_ptr<sema::FunctionInfo> fb_info;
      {
        SpanScope span(trace, Layer::kSema);
        ++counts.sema_calls;
        fb_info = sema::Sema(fb_diags).analyze(f);
      }
      if (!fb_diags.ok() || region_index >= static_cast<int>(fb_info->regions.size())) {
        throw CompileError("SAFARA feedback compile failed:\n" + fb_diags.render());
      }
      codegen::CodegenResult res;
      {
        SpanScope span(trace, Layer::kCodegen);
        ++counts.codegen_kernels;
        res = codegen::generate_kernel(*fb_info,
                                       fb_info->regions[static_cast<std::size_t>(region_index)],
                                       region_index, cg, fb_diags);
      }
      if (!fb_diags.ok()) {
        throw CompileError("SAFARA feedback codegen failed:\n" + fb_diags.render());
      }
      {
        SpanScope span(trace, Layer::kVir);
        vir::passes::run_pipeline(res.kernel, opts.opt_level);
      }
      regalloc::AllocationResult alloc;
      {
        SpanScope span(trace, Layer::kRegalloc);
        alloc = regalloc::allocate(res.kernel, opts.regalloc);
      }
      ++counts.feedback_compiles;
      if (opts.safara_feedback_cache) memo.insert(fn_hash, region_index, config, alloc.regs_used);
      return alloc.regs_used;
    };
    {
      SpanScope span(trace, Layer::kOpt);
      out.safara = opt::run_safara(work, feedback, sopts, diags);
    }
    counts.groups_replaced += static_cast<std::uint64_t>(out.safara.total_groups());
    if (!diags.ok()) throw CompileError("SAFARA pass failed:\n" + diags.render());
  }

  std::unique_ptr<sema::FunctionInfo> final_info;
  {
    SpanScope span(trace, Layer::kSema);
    ++counts.sema_calls;
    final_info = sema.analyze(work);
  }
  if (!diags.ok()) throw CompileError("post-optimization sema failed:\n" + diags.render());

  for (std::size_t r = 0; r < final_info->regions.size(); ++r) {
    codegen::CodegenResult res;
    {
      SpanScope span(trace, Layer::kCodegen);
      ++counts.codegen_kernels;
      res = codegen::generate_kernel(*final_info, final_info->regions[r], static_cast<int>(r),
                                     cg, diags);
    }
    if (!diags.ok()) throw CompileError("codegen failed:\n" + diags.render());
    driver::CompiledKernel ck;
    ck.name = res.kernel.name;
    ck.plan = std::move(res.plan);
    {
      SpanScope span(trace, Layer::kVir);
      ck.vir_stats = vir::passes::run_pipeline(res.kernel, opts.opt_level);
    }
    {
      SpanScope span(trace, Layer::kRegalloc);
      ck.alloc = regalloc::allocate(res.kernel, opts.regalloc);
      regalloc::demote_spill_slots(res.kernel, ck.alloc, opts.regalloc, opts.device,
                                   codegen::LaunchPlan::kDefaultVectorLen);
    }
    counts.vir_instrs += res.kernel.code.size();
    counts.regs += static_cast<std::uint64_t>(ck.alloc.regs_used);
    counts.spill_bytes += static_cast<std::uint64_t>(ck.alloc.spill_bytes);
    ck.kernel = std::move(res.kernel);

    if (const ast::AccDirective* dir = final_info->regions[r].loop->directive.get()) {
      for (const ast::DimGroup& g : dir->dim_groups) {
        driver::ClauseChecks::DimGroup check;
        check.arrays = g.arrays;
        for (const ast::DimGroup::Bound& b : g.bounds) {
          check.lb.push_back(b.lb ? b.lb->clone() : nullptr);
          check.len.push_back(b.len->clone());
        }
        ck.checks.dim_groups.push_back(std::move(check));
      }
      ck.checks.small_arrays = dir->small_arrays;
    }
    out.kernels.push_back(std::move(ck));
  }
  return out;
}

ReplayedRun replay_simulate(JobTrace& trace, FeedbackMemo& memo, const workloads::Workload& w,
                            const driver::CompilerOptions& opts) {
  ReplayedRun run;
  run.program = replay_compile(trace, memo, w.source, w.function, opts);
  const driver::CompiledProgram& prog = run.program;
  LayerCounts& counts = trace.counts;

  workloads::Dataset data;
  {
    SpanScope span(trace, Layer::kDataset);
    data = w.make_dataset();
  }
  rt::Device dev(vgpu::DeviceSpec::k20xm());
  rt::Runtime runtime(dev);

  std::map<std::string, rt::Buffer> buffers;
  {
    SpanScope span(trace, Layer::kCopyIn);
    for (auto& [name, arr] : data.arrays) {
      rt::Buffer buf = runtime.alloc(arr.elem, arr.dims);
      dev.memory().copy_in(buf.device_addr, arr.data.data(), arr.data.size());
      buffers.emplace(name, buf);
      counts.bytes_copied += arr.data.size();
    }
  }
  rt::ArgMap args;
  for (auto& [name, buf] : buffers) args.emplace(name, &buf);
  for (auto& [name, sv] : data.scalars) args.emplace(name, sv);

  workloads::RunResult& result = run.result;
  result.kernels.resize(prog.kernels.size());
  for (int step = 0; step < w.time_steps; ++step) {
    for (std::size_t k = 0; k < prog.kernels.size(); ++k) {
      const driver::CompiledKernel& ck = prog.kernels[k];
      vgpu::LaunchStats stats;
      int span_index = -1;
      {
        SpanScope span(trace, Layer::kLaunch);
        span_index = span.index();
        stats = runtime.launch(ck.kernel, ck.alloc, ck.plan, args);
      }
      (step == 0 ? trace.first_launches : trace.steady_launches).push_back(span_index);
      ++counts.launches;
      counts.ro_hits += stats.ro_hits;
      counts.ro_misses += stats.ro_misses;

      result.cycles += stats.cycles;
      result.warp_instructions += stats.warp_instructions;
      result.global_loads += stats.global_loads;
      result.mem_transactions += stats.mem_transactions;
      result.spill_accesses += stats.spill_accesses;
      result.shared_accesses += stats.shared_accesses;
      result.shared_bank_conflicts += stats.shared_bank_conflicts;
      result.max_regs = std::max(result.max_regs, stats.regs_per_thread);
      result.min_occupancy = std::min(result.min_occupancy, stats.occupancy);

      workloads::KernelMetrics& km = result.kernels[k];
      km.name = ck.name;
      km.regs = ck.alloc.regs_used;
      km.spill_bytes = ck.alloc.spill_bytes;
      km.shared_spill_bytes = ck.alloc.shared_spill_bytes;
      km.occupancy = stats.occupancy;
      km.cycles += stats.cycles;
    }
  }

  {
    SpanScope span(trace, Layer::kCopyOut);
    for (auto& [name, arr] : data.arrays) {
      dev.memory().copy_out(buffers.at(name).device_addr, arr.data.data(), arr.data.size());
      counts.bytes_copied += arr.data.size();
    }
  }
  {
    SpanScope span(trace, Layer::kChecksum);
    result.checksum = workloads::checksum_of(data, w.outputs);
  }
  return run;
}

}  // namespace safara::perfbench

#include "driver/compiler.hpp"

#include <mutex>
#include <unordered_map>

#include <algorithm>
#include <optional>
#include <sstream>

#include "ast/hash.hpp"
#include "parse/parser.hpp"
#include "regalloc/regdem.hpp"
#include "sema/sema.hpp"

namespace safara::driver {

namespace {

// Process-wide memo of SAFARA feedback compiles. The SAFARA loop repeatedly
// asks "how many registers does this mutated region use?", and converged or
// re-visited mutations (including identical iteration-0 regions across
// ablation configurations) keep asking about identical ASTs — the answer is
// a pure function of the key, so it is shared across Compiler instances.
struct FeedbackKey {
  std::uint64_t fn_hash = 0;   // canonical ast::hash of the mutated function
  std::uint64_t options = 0;   // injective encoding of codegen+regalloc opts
  int region = 0;

  bool operator==(const FeedbackKey& o) const {
    return fn_hash == o.fn_hash && options == o.options && region == o.region;
  }
};

struct FeedbackKeyHash {
  std::size_t operator()(const FeedbackKey& k) const {
    std::uint64_t h = k.fn_hash;
    h ^= k.options + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h ^= static_cast<std::uint64_t>(k.region) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

std::mutex g_feedback_cache_mu;
std::unordered_map<FeedbackKey, int, FeedbackKeyHash> g_feedback_cache;

// Everything besides the AST that the feedback pipeline's answer depends on.
// SafaraOptions are deliberately excluded: they steer which mutations get
// *tried*, not what a given mutated AST compiles to. The VIR opt level is
// included: the pipeline runs inside feedback compiles too, and a register
// count measured at one level must never answer a query at another.
std::uint64_t feedback_options_fingerprint(const codegen::CodegenOptions& cg,
                                           const regalloc::AllocatorOptions& ra,
                                           int opt_level) {
  std::uint64_t bits = 0;
  bits |= cg.honor_dim ? 1u : 0u;
  bits |= cg.honor_small ? 2u : 0u;
  bits |= cg.licm ? 4u : 0u;
  bits |= cg.cse_loads_within_stmt ? 8u : 0u;
  bits |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(opt_level) & 3u) << 4;
  bits |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(ra.strategy) & 3u) << 6;
  bits |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(ra.max_registers)) << 8;
  // The spill backing store rides along even though RegDem never changes
  // regs_used: a cache entry must answer for exactly one option tuple.
  bits |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(ra.spill_mem) & 3u) << 40;
  return bits;
}

}  // namespace

std::uint64_t options_fingerprint(const CompilerOptions& o) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(static_cast<std::uint64_t>(o.persona));
  mix((o.enable_safara ? 1u : 0u) | (o.enable_carr_kennedy ? 2u : 0u) |
      (o.honor_dim ? 4u : 0u) | (o.honor_small ? 8u : 0u) |
      (o.enable_unroll ? 16u : 0u) | (o.verify_clauses ? 32u : 0u));
  mix(static_cast<std::uint64_t>(o.opt_level));
  mix(static_cast<std::uint64_t>(o.safara.max_registers));
  mix(static_cast<std::uint64_t>(o.safara.max_iterations));
  mix(o.safara.use_cost_model ? 1u : 0u);
  mix(static_cast<std::uint64_t>(o.carr_kennedy.register_budget));
  mix(static_cast<std::uint64_t>(o.carr_kennedy.max_distance));
  mix(static_cast<std::uint64_t>(o.unroll.factor));
  mix(static_cast<std::uint64_t>(o.unroll.max_body_statements));
  mix(static_cast<std::uint64_t>(o.regalloc.max_registers));
  mix(static_cast<std::uint64_t>(o.regalloc.strategy));
  mix(static_cast<std::uint64_t>(o.regalloc.spill_mem));
  const vgpu::DeviceSpec& d = o.device;
  for (const std::int64_t v :
       {static_cast<std::int64_t>(d.num_sms), static_cast<std::int64_t>(d.warp_size),
        static_cast<std::int64_t>(d.max_threads_per_sm),
        static_cast<std::int64_t>(d.max_warps_per_sm),
        static_cast<std::int64_t>(d.max_blocks_per_sm),
        static_cast<std::int64_t>(d.max_threads_per_block), d.registers_per_sm,
        static_cast<std::int64_t>(d.max_registers_per_thread),
        static_cast<std::int64_t>(d.reg_granularity),
        static_cast<std::int64_t>(d.schedulers_per_sm), d.shared_mem_per_sm,
        static_cast<std::int64_t>(d.shared_mem_banks),
        static_cast<std::int64_t>(d.shared_bank_bytes),
        static_cast<std::int64_t>(d.shared_alloc_granularity),
        static_cast<std::int64_t>(d.ro_cache_bytes),
        static_cast<std::int64_t>(d.ro_cache_line),
        static_cast<std::int64_t>(d.ro_cache_ways),
        static_cast<std::int64_t>(d.memory_segment)}) {
    mix(static_cast<std::uint64_t>(v));
  }
  const vgpu::LatencyModel& l = d.lat;
  for (const int v : {l.alu, l.imul64, l.int_div, l.sfu, l.global_base,
                      l.global_per_extra_tx, l.ro_cache_hit, l.ro_cache_miss,
                      l.local_mem, l.shared_mem, l.shared_conflict, l.atomic,
                      l.store_issue, l.tx_cycles}) {
    mix(static_cast<std::uint64_t>(v));
  }
  return h;
}

void clear_safara_feedback_cache() {
  std::lock_guard<std::mutex> lock(g_feedback_cache_mu);
  g_feedback_cache.clear();
}

std::size_t safara_feedback_cache_size() {
  std::lock_guard<std::mutex> lock(g_feedback_cache_mu);
  return g_feedback_cache.size();
}

CompilerOptions CompilerOptions::defaults() { return {}; }

CompilerOptions CompilerOptions::openuh_base(CompilerOptions base) { return base; }

CompilerOptions CompilerOptions::openuh_small(CompilerOptions base) {
  base.honor_small = true;
  return base;
}

CompilerOptions CompilerOptions::openuh_small_dim(CompilerOptions base) {
  base.honor_small = true;
  base.honor_dim = true;
  return base;
}

CompilerOptions CompilerOptions::openuh_safara(CompilerOptions base) {
  base.enable_safara = true;
  return base;
}

CompilerOptions CompilerOptions::openuh_safara_clauses(CompilerOptions base) {
  base.enable_safara = true;
  base.honor_small = true;
  base.honor_dim = true;
  return base;
}

CompilerOptions CompilerOptions::pgi_like(CompilerOptions base) {
  base.persona = Persona::kPgiLike;
  return base;
}

CompilerOptions CompilerOptions::openuh_safara_clauses_verified(CompilerOptions base) {
  base = openuh_safara_clauses(std::move(base));
  base.verify_clauses = true;
  return base;
}

namespace {

struct NamedConfig {
  std::string_view name;
  CompilerOptions (*make)(CompilerOptions);
};

constexpr NamedConfig kNamedConfigs[] = {
    {"base", &CompilerOptions::openuh_base},
    {"small", &CompilerOptions::openuh_small},
    {"small_dim", &CompilerOptions::openuh_small_dim},
    {"safara", &CompilerOptions::openuh_safara},
    {"safara_clauses", &CompilerOptions::openuh_safara_clauses},
    {"pgi", &CompilerOptions::pgi_like},
};

}  // namespace

std::optional<CompilerOptions> named_config(std::string_view name, CompilerOptions base) {
  for (const NamedConfig& c : kNamedConfigs) {
    if (c.name == name) return c.make(std::move(base));
  }
  return std::nullopt;
}

std::vector<std::string_view> config_names() {
  std::vector<std::string_view> names;
  for (const NamedConfig& c : kNamedConfigs) names.push_back(c.name);
  return names;
}

codegen::CodegenOptions Compiler::codegen_options() const {
  codegen::CodegenOptions cg;
  cg.honor_dim = opts_.honor_dim;
  cg.honor_small = opts_.honor_small;
  cg.licm = true;
  cg.cse_loads_within_stmt = opts_.persona == Persona::kPgiLike;
  return cg;
}

CompiledProgram Compiler::compile(std::string_view source, const std::string& fn_name) {
  // The parsed program only lives until the selected function has been
  // cloned into the CompiledProgram's arena, so it bump-allocates from a
  // scratch arena of its own. Declared before `program` so the parsed tree
  // dies first.
  support::Arena parse_arena;
  DiagnosticEngine diags;
  ast::Program program;
  {
    obs::ScopedSpan span(obs::tracer_of(collector_), "frontend.parse", "frontend");
    span.set_arg("bytes", obs::json::Value(static_cast<std::int64_t>(source.size())));
    support::ArenaScope scope(parse_arena);
    program = parse::parse_source(source, diags);
  }
  if (!diags.ok()) {
    throw CompileError("parse failed:\n" + diags.render());
  }
  const ast::Function* fn = nullptr;
  if (fn_name.empty()) {
    if (program.functions.size() != 1) {
      throw CompileError("compile: source has " +
                         std::to_string(program.functions.size()) +
                         " functions; specify one by name");
    }
    fn = program.functions.front().get();
  } else {
    fn = program.find(fn_name);
    if (!fn) throw CompileError("compile: no function named '" + fn_name + "'");
  }
  return compile(*fn);
}

CompiledProgram Compiler::compile(const ast::Function& fn) {
  obs::Tracer* tracer = obs::tracer_of(collector_);
  obs::ScopedSpan compile_span(tracer, "compile", "driver");
  compile_span.set_arg("function", obs::json::Value(fn.name));
  if (collector_) collector_->metrics.add("driver.compiles");

  CompiledProgram out;
  out.arena = std::make_unique<support::Arena>();
  // Every AST node this compile creates — the working clone, the scalars the
  // optimization passes introduce, the clause-check expressions — lands in
  // the program's arena. The scope covers the whole compile, including the
  // fallback twin compile, which nests its own program arena inside.
  support::ArenaScope ast_scope(*out.arena);
  out.function_name = fn.name;
  out.transformed = fn.clone();
  ast::Function& work = *out.transformed;

  DiagnosticEngine diags;
  sema::Sema sema(diags);
  decltype(sema.analyze(work)) info;
  {
    obs::ScopedSpan span(tracer, "sema", "frontend");
    info = sema.analyze(work);
  }
  if (!diags.ok()) {
    throw CompileError("sema failed for '" + fn.name + "':\n" + diags.render());
  }

  if (opts_.enable_unroll) {
    obs::ScopedSpan span(tracer, "opt.unroll", "opt");
    out.unroll = opt::run_unroll(work, opts_.unroll, diags);
    span.set_arg("loops_unrolled", obs::json::Value(out.unroll.loops_unrolled));
    if (!diags.ok()) {
      throw CompileError("unroll pass failed:\n" + diags.render());
    }
  }

  if (opts_.enable_carr_kennedy) {
    obs::ScopedSpan span(tracer, "opt.carr_kennedy", "opt");
    out.carr_kennedy = opt::run_carr_kennedy(work, opts_.carr_kennedy, diags);
    span.set_arg("groups_replaced", obs::json::Value(out.carr_kennedy.groups_replaced));
    span.set_arg("loops_sequentialized",
                 obs::json::Value(out.carr_kennedy.loops_sequentialized));
    if (!diags.ok()) {
      throw CompileError("Carr-Kennedy pass failed:\n" + diags.render());
    }
  }

  // The pipeline's work counts cover every pipeline this compile runs, the
  // feedback compiles' included.
  const auto count_pipeline_work = [this](const vir::passes::PassStats& s) {
    if (!collector_) return;
    collector_->metrics.add("vir.pipeline_iterations", s.pipeline_iterations);
    collector_->metrics.add("vir.dom_builds", s.dom_builds);
    collector_->metrics.add("vir.liveness_runs", s.liveness_runs);
  };
  // Each region's last SAFARA feedback compile, by region index; empty when
  // that round was answered from the cache. The pipeline and the allocator
  // are deterministic in the kernel, the opt level and the allocator options,
  // and the final compile shares the last two with its feedback compiles, so
  // a final kernel equal to `input` would only rebuild the rest.
  struct BackendCompile {
    vir::Kernel input;   // generate_kernel's kernel, before the pipeline
    vir::Kernel kernel;  // after it
    vir::passes::PassStats vir_stats;
    regalloc::AllocationResult alloc;
  };
  std::vector<std::optional<BackendCompile>> last_compiles;

  if (opts_.enable_safara) {
    opt::SafaraOptions sopts = opts_.safara;
    sopts.latency = opts_.device.lat;
    sopts.max_registers = std::min(sopts.max_registers, opts_.device.max_registers_per_thread);
    const codegen::CodegenOptions cg = codegen_options();
    const std::uint64_t opts_fp =
        feedback_options_fingerprint(cg, opts_.regalloc, opts_.opt_level);
    auto feedback = [&](ast::Function& f, int region_index) -> int {
      obs::ScopedSpan fb_span(tracer, "safara.feedback_compile", "safara");
      const auto region = static_cast<std::size_t>(region_index);
      if (last_compiles.size() <= region) last_compiles.resize(region + 1);
      last_compiles[region].reset();
      FeedbackKey key;
      if (opts_.safara_feedback_cache) {
        key.fn_hash = ast::hash(f);
        key.options = opts_fp;
        key.region = region_index;
        std::lock_guard<std::mutex> lock(g_feedback_cache_mu);
        auto it = g_feedback_cache.find(key);
        if (it != g_feedback_cache.end()) {
          fb_span.set_arg("cache", obs::json::Value("hit"));
          fb_span.set_arg("regs_used", obs::json::Value(it->second));
          if (collector_) collector_->metrics.add("safara.feedback_cache_hits");
          return it->second;
        }
      }
      if (opts_.safara_feedback_cache) {
        fb_span.set_arg("cache", obs::json::Value("miss"));
        if (collector_) collector_->metrics.add("safara.feedback_cache_misses");
      }
      DiagnosticEngine fb_diags;
      sema::Sema fb_sema(fb_diags);
      auto fb_info = fb_sema.analyze(f);
      if (!fb_diags.ok() ||
          region_index >= static_cast<int>(fb_info->regions.size())) {
        throw CompileError("SAFARA feedback compile failed:\n" + fb_diags.render());
      }
      codegen::CodegenResult res = codegen::generate_kernel(
          *fb_info, fb_info->regions[region], region_index, cg, fb_diags);
      if (!fb_diags.ok()) {
        throw CompileError("SAFARA feedback codegen failed:\n" + fb_diags.render());
      }
      // The feedback answer must be measured on the same IR the final
      // pipeline allocates: registers the cleanup frees are headroom SAFARA
      // is allowed to spend on more scalar replacement.
      vir::Kernel input = res.kernel;
      const vir::passes::PassStats vir_stats =
          vir::passes::run_pipeline(res.kernel, opts_.opt_level);
      count_pipeline_work(vir_stats);
      regalloc::AllocationResult alloc = regalloc::allocate(res.kernel, opts_.regalloc);
      const int regs_used = alloc.regs_used;
      if (opts_.safara_feedback_cache) {
        std::lock_guard<std::mutex> lock(g_feedback_cache_mu);
        g_feedback_cache.emplace(key, regs_used);
      }
      last_compiles[region] = BackendCompile{std::move(input), std::move(res.kernel),
                                             vir_stats, std::move(alloc)};
      fb_span.set_arg("regs_used", obs::json::Value(regs_used));
      if (collector_) collector_->metrics.add("safara.feedback_compiles");
      return regs_used;
    };
    obs::ScopedSpan span(tracer, "opt.safara", "opt");
    out.safara = opt::run_safara(work, feedback, sopts, diags, collector_);
    span.set_arg("groups_replaced", obs::json::Value(out.safara.total_groups()));
    if (!diags.ok()) {
      throw CompileError("SAFARA pass failed:\n" + diags.render());
    }
  }

  // Final analysis and code generation.
  decltype(sema.analyze(work)) final_info;
  {
    obs::ScopedSpan span(tracer, "sema.final", "frontend");
    final_info = sema.analyze(work);
  }
  if (!diags.ok()) {
    throw CompileError("post-optimization sema failed:\n" + diags.render());
  }
  const codegen::CodegenOptions cg = codegen_options();
  for (std::size_t r = 0; r < final_info->regions.size(); ++r) {
    obs::ScopedSpan span(tracer, "codegen", "backend");
    span.set_arg("region_index", obs::json::Value(static_cast<int>(r)));
    codegen::CodegenResult res = codegen::generate_kernel(
        *final_info, final_info->regions[r], static_cast<int>(r), cg, diags);
    if (!diags.ok()) {
      throw CompileError("codegen failed:\n" + diags.render());
    }
    CompiledKernel ck;
    ck.name = res.kernel.name;
    ck.plan = std::move(res.plan);
    // Unchanged since the region's last feedback compile: take its pipeline
    // and allocator results instead of building them again.
    BackendCompile* reused = nullptr;
    if (r < last_compiles.size() && last_compiles[r] && last_compiles[r]->input == res.kernel) {
      reused = &*last_compiles[r];
    }
    {
      obs::ScopedSpan vir_span(tracer, "vir.passes", "backend");
      if (reused) {
        res.kernel = std::move(reused->kernel);
        ck.vir_stats = reused->vir_stats;
        vir_span.set_arg("reused", obs::json::Value(true));
      } else {
        ck.vir_stats = vir::passes::run_pipeline(res.kernel, opts_.opt_level);
        count_pipeline_work(ck.vir_stats);
      }
      vir_span.set_arg("opt_level", obs::json::Value(opts_.opt_level));
      vir_span.set_arg("pressure_before", obs::json::Value(ck.vir_stats.pressure_before));
      vir_span.set_arg("pressure_after", obs::json::Value(ck.vir_stats.pressure_after));
    }
    {
      obs::ScopedSpan alloc_span(tracer, "regalloc", "backend");
      if (reused) {
        ck.alloc = std::move(reused->alloc);
        alloc_span.set_arg("reused", obs::json::Value(true));
      } else {
        ck.alloc = regalloc::allocate(res.kernel, opts_.regalloc);
      }
      // RegDem: redirect the hottest spill slots to shared memory while the
      // per-block budget keeps occupancy intact. Post-allocation only — it
      // never changes regs_used, so SAFARA's feedback compiles (which only
      // ask for the register count) stay untouched. The admission check
      // assumes the compile-time default block size; the simulator recomputes
      // occupancy with the actual launch config.
      const regalloc::RegDemReport regdem = regalloc::demote_spill_slots(
          res.kernel, ck.alloc, opts_.regalloc, opts_.device,
          codegen::LaunchPlan::kDefaultVectorLen);
      alloc_span.set_arg("regs_used", obs::json::Value(ck.alloc.regs_used));
      alloc_span.set_arg("spill_bytes", obs::json::Value(ck.alloc.spill_bytes));
      if (regdem.demoted_slots > 0) {
        alloc_span.set_arg("shared_spill_bytes",
                           obs::json::Value(ck.alloc.shared_spill_bytes));
      }
    }
    ck.kernel = std::move(res.kernel);
    span.set_arg("kernel", obs::json::Value(ck.name));
    if (collector_) {
      collector_->metrics.add("driver.kernels");
      collector_->metrics.add("driver.kernels_reused", reused ? 1 : 0);
      collector_->metrics.set("regalloc.regs_used." + ck.name, ck.alloc.regs_used);
      collector_->metrics.set("regalloc.spill_bytes." + ck.name, ck.alloc.spill_bytes);
      collector_->metrics.add("regalloc.shared_spill_slots", ck.alloc.shared_spill_slots);
      collector_->metrics.add("regalloc.shared_spill_bytes", ck.alloc.shared_spill_bytes);
      collector_->metrics.add("regalloc.coalesced", ck.alloc.coalesced);
      collector_->metrics.add("regalloc.split_ranges", ck.alloc.split_ranges);
      collector_->metrics.add("regalloc.remat", ck.alloc.remat_count);
      collector_->metrics.add("regalloc.spills", ck.alloc.spills);
      collector_->metrics.add("regalloc.iterations", ck.alloc.iterations);
      collector_->metrics.add("vir.copyprop_removed", ck.vir_stats.copyprop_removed);
      collector_->metrics.add("vir.gvn_hits", ck.vir_stats.gvn_hits);
      collector_->metrics.add("vir.dce_removed", ck.vir_stats.dce_removed);
      collector_->metrics.add("vir.strength_reduced", ck.vir_stats.strength_reduced);
      collector_->metrics.add("vir.sched_moves", ck.vir_stats.sched_moves);
      collector_->metrics.set("vir.phi_count." + ck.name, ck.vir_stats.phi_count);
      collector_->metrics.set("vir.regs_before." + ck.name, ck.vir_stats.pressure_before);
      collector_->metrics.set("vir.regs_after." + ck.name, ck.vir_stats.pressure_after);
    }

    // Record the clause assertions for launch-time verification.
    const ast::AccDirective* dir = final_info->regions[r].loop->directive.get();
    if (dir) {
      for (const ast::DimGroup& g : dir->dim_groups) {
        ClauseChecks::DimGroup check;
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

  // Two-version scheme (Section IV): compile a clause-ignoring twin so the
  // runtime can fall back when an assertion turns out to be false.
  if (opts_.verify_clauses && (opts_.honor_dim || opts_.honor_small)) {
    CompilerOptions fb_opts = opts_;
    fb_opts.honor_dim = false;
    fb_opts.honor_small = false;
    fb_opts.verify_clauses = false;
    Compiler fb_compiler(fb_opts, collector_);
    out.fallback = std::make_unique<CompiledProgram>(fb_compiler.compile(fn));
  }
  return out;
}

std::string dump_vir(const CompiledProgram& prog) {
  std::ostringstream os;
  for (const CompiledKernel& k : prog.kernels) {
    os << "==== " << k.name << " ====\n"
       << k.ptxas_info() << "\n"
       << vir::to_string(k.kernel);
  }
  return os.str();
}

}  // namespace safara::driver

// The compiler driver: ties the whole pipeline together
//   parse -> sema -> [Carr-Kennedy | SAFARA] -> codegen -> ptxas-sim
// under a selectable configuration ("persona"), mirroring the compilers the
// paper evaluates:
//   * OpenUH base            — no SR, clauses ignored
//   * OpenUH + SAFARA        — feedback-driven scalar replacement
//   * OpenUH + SAFARA+clauses— SAFARA with dim/small honored
//   * PGI-like               — an independent baseline persona: no SAFARA,
//                              no clause extensions, but generic
//                              statement-level redundant-load elimination
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ast/decl.hpp"
#include "codegen/codegen.hpp"
#include "obs/collector.hpp"
#include "opt/carr_kennedy.hpp"
#include "opt/safara.hpp"
#include "opt/unroll.hpp"
#include "regalloc/regalloc.hpp"
#include "support/arena.hpp"
#include "vgpu/device.hpp"
#include "vir/passes/passes.hpp"

namespace safara::driver {

enum class Persona : std::uint8_t { kOpenUH, kPgiLike };

struct CompilerOptions {
  Persona persona = Persona::kOpenUH;
  bool enable_safara = false;
  bool enable_carr_kennedy = false;  // classical-SR ablation
  bool honor_dim = false;
  bool honor_small = false;
  /// Unroll inner seq loops before scalar replacement (the paper's stated
  /// future-work combination).
  bool enable_unroll = false;
  /// Also compile a clause-ignoring fallback version of every kernel and
  /// record the runtime checks that select between them (the two-version
  /// scheme sketched at the end of Section IV).
  bool verify_clauses = false;
  /// Memoize SAFARA feedback compiles in a process-wide cache keyed by the
  /// canonical hash of the post-mutation function (ast/hash.hpp), the region
  /// index, and the codegen/regalloc option fingerprint. A hit returns the
  /// recorded ptxas-sim register count without re-running sema/codegen/
  /// regalloc; because that pipeline is deterministic, cached and uncached
  /// runs produce identical SafaraReports (guarded by tests).
  bool safara_feedback_cache = true;
  /// Machine-independent VIR optimizer level (src/vir/passes), applied
  /// between codegen and regalloc everywhere a kernel is lowered — including
  /// SAFARA's feedback compiles, so registers the cleanup frees become
  /// scalar-replacement headroom. 0 = off (the pre-pipeline behaviour),
  /// 1 = copy propagation + DCE, 2 = + strength reduction, GVN, and
  /// pressure-aware scheduling.
  int opt_level = 2;
  opt::SafaraOptions safara;
  opt::CarrKennedyOptions carr_kennedy;
  opt::UnrollOptions unroll;
  regalloc::AllocatorOptions regalloc;
  vgpu::DeviceSpec device = vgpu::DeviceSpec::k20xm();

  // The configurations used throughout the evaluation: small = the small
  // clause only, small_dim = small + dim, safara = SAFARA only (Fig. 7),
  // safara_clauses = small + dim + SAFARA. Each starts from `base` (the run's
  // flags, say) and sets only what defines the config.
  static CompilerOptions openuh_base(CompilerOptions base = defaults());
  static CompilerOptions openuh_small(CompilerOptions base = defaults());
  static CompilerOptions openuh_small_dim(CompilerOptions base = defaults());
  static CompilerOptions openuh_safara(CompilerOptions base = defaults());
  static CompilerOptions openuh_safara_clauses(CompilerOptions base = defaults());
  static CompilerOptions pgi_like(CompilerOptions base = defaults());
  /// small+dim+SAFARA with runtime clause verification and a fallback kernel.
  static CompilerOptions openuh_safara_clauses_verified(CompilerOptions base = defaults());
  /// CompilerOptions{}, as the factories' default argument (GCC rejects `= {}`
  /// for a parameter of the enclosing class's own type).
  static CompilerOptions defaults();
};

/// The factory a configuration name selects (base, small, small_dim, safara,
/// safara_clauses, pgi — the names safcc's --config, the golden files and the
/// examples use), applied to `base`; nullopt for any other name.
std::optional<CompilerOptions> named_config(std::string_view name,
                                            CompilerOptions base = CompilerOptions::defaults());
/// Every name named_config() accepts, in the order above.
std::vector<std::string_view> config_names();

/// Runtime-verifiable assertions a kernel's clauses made about its arrays.
struct ClauseChecks {
  struct DimGroup {
    std::vector<std::string> arrays;
    /// Explicit per-dimension (lb, len) expressions from the clause, if any
    /// (evaluated against the scalar arguments at launch time).
    std::vector<ast::ExprPtr> lb;   // entries may be null (lb defaults to 0)
    std::vector<ast::ExprPtr> len;  // empty if the clause gave no bounds
  };
  std::vector<DimGroup> dim_groups;
  std::vector<std::string> small_arrays;

  bool any() const { return !dim_groups.empty() || !small_arrays.empty(); }
};

struct CompiledKernel {
  std::string name;
  vir::Kernel kernel;
  codegen::LaunchPlan plan;
  regalloc::AllocationResult alloc;
  /// What the VIR pass pipeline did to this kernel (all zeros at level 0).
  vir::passes::PassStats vir_stats;
  /// What the clauses asserted (for launch-time verification).
  ClauseChecks checks;

  /// The `ptxas -v` style feedback line for this kernel.
  std::string ptxas_info() const { return alloc.ptxas_info(name); }
};

struct CompiledProgram {
  /// Backing store for `transformed` and every AST node the optimization
  /// passes grew onto it (clause-check expressions included): the whole tree
  /// is bump-allocated here and reclaimed wholesale when the program dies.
  /// Declared first so it is destroyed last, after every member that owns
  /// nodes inside it.
  std::unique_ptr<support::Arena> arena;
  std::string function_name;
  /// The post-optimization AST (inspectable; printable via ast::to_source).
  ast::FunctionPtr transformed;
  std::vector<CompiledKernel> kernels;
  opt::SafaraReport safara;
  opt::CarrKennedyReport carr_kennedy;
  opt::UnrollReport unroll;
  /// Clause-ignoring twin of this program (present when the compiler was
  /// asked to verify clauses); kernels pair up by index.
  std::unique_ptr<CompiledProgram> fallback;
};

/// Stable 64-bit fingerprint of every CompilerOptions field that can change
/// what compile() (or a simulation of its output) produces: persona, pass
/// toggles, clause handling, opt level, SAFARA/unroll/Carr-Kennedy knobs,
/// the regalloc configuration (strategy, max-regs cap, spill backing store),
/// and the full device model including its latency table. Any memo keyed on
/// this (plus the canonical AST hash) can never answer a compile made under
/// one option tuple with a result produced under another. Deliberately
/// excluded: safara_feedback_cache (memoization on/off produces identical
/// results by contract, guarded by tests).
std::uint64_t options_fingerprint(const CompilerOptions& opts);

/// Canonical VIR dump of every kernel in the program: the `ptxas -v`
/// feedback line followed by the disassembly, under `==== name ====`
/// headers. This is the byte-exact format the golden-IR snapshot tests and
/// `safcc --dump-vir` share (tools/update_golden.py regenerates snapshots).
std::string dump_vir(const CompiledProgram& prog);

/// Drops every entry of the process-wide SAFARA feedback-compile cache.
/// Tests that assert cold-cache behavior (or byte-identical metrics across
/// repeated in-process compiles) call this between runs.
void clear_safara_feedback_cache();
/// Number of (function-hash, region, options) entries currently memoized.
std::size_t safara_feedback_cache_size();

class Compiler {
 public:
  explicit Compiler(CompilerOptions opts = {}) : opts_(std::move(opts)) {}
  Compiler(CompilerOptions opts, obs::Collector* collector)
      : opts_(std::move(opts)), collector_(collector) {}

  /// Compiles function `fn_name` of `source` (the sole function if empty).
  /// Throws CompileError with rendered diagnostics on any front-end error.
  CompiledProgram compile(std::string_view source, const std::string& fn_name = "");

  /// Compiles an already-parsed function (cloned internally; the input is
  /// not mutated).
  CompiledProgram compile(const ast::Function& fn);

  const CompilerOptions& options() const { return opts_; }

 private:
  codegen::CodegenOptions codegen_options() const;

  CompilerOptions opts_;
  obs::Collector* collector_ = nullptr;
};

}  // namespace safara::driver

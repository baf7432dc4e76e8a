// Semantic analysis: name resolution, type checking, canonical-loop and
// directive validation, and offload-region discovery.
//
// Sema is re-runnable: optimization passes clone and rewrite a function's
// AST, then re-run sema to rebind symbols (including any scalars the pass
// introduced). Symbol attributes that come from directives (dim groups,
// small) are re-derived on every run, so they survive re-analysis.
#pragma once

#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "ast/decl.hpp"
#include "sema/symbol.hpp"
#include "support/diagnostics.hpp"

namespace safara::sema {

/// An offload (compute) region: a top-level loop nest annotated with
/// `#pragma acc parallel/kernels loop`.
struct OffloadRegion {
  ast::ForStmt* loop = nullptr;
  /// The parallel (gang/vector) loops of the nest, outermost first. The
  /// innermost entry maps to the x dimension of the launch configuration.
  std::vector<ast::ForStmt*> scheduled_loops;
  /// Every array an assignment inside the nest writes.
  std::unordered_set<const Symbol*> assigned_arrays;

  /// The paper's memory-space rule (Section III-B): an array is read-only in
  /// the region when it is declared const or nothing in the region assigns
  /// it. Codegen sends such loads through the read-only cache and SAFARA's
  /// cost model prices them at the read-only latency, both by this answer.
  bool read_only(const Symbol& array) const {
    return array.is_const || !assigned_arrays.contains(&array);
  }
};

/// Analysis results for one function. Owns the symbols; AST nodes hold
/// non-owning Symbol pointers into `symbols`.
struct FunctionInfo {
  ast::Function* fn = nullptr;
  std::deque<Symbol> symbols;  // deque: stable addresses
  std::vector<OffloadRegion> regions;

  Symbol* find_symbol(const std::string& name);
  const Symbol* find_symbol(const std::string& name) const;
};

class Sema {
 public:
  explicit Sema(DiagnosticEngine& diags) : diags_(diags) {}

  /// Analyzes `fn` in place: binds symbols, computes expression types,
  /// validates loops and directives, and discovers offload regions.
  std::unique_ptr<FunctionInfo> analyze(ast::Function& fn);

 private:
  DiagnosticEngine& diags_;
};

/// Names and arities of the supported math intrinsics.
bool is_intrinsic(const std::string& name, int* arity = nullptr);

}  // namespace safara::sema

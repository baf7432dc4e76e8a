// The differential oracle pairs the fuzzer checks every program against.
//
// Each oracle runs one program two ways that the project's determinism
// contracts say must agree exactly:
//   kRoundtrip  — parse -> print -> reparse: structural AST equality
//                 (canonical hash) and a print fixpoint.
//   kRefVsSim   — CPU reference interpreter vs the simulator (openuh_base),
//                 byte-exact array results.
//   kSafaraOnOff— openuh_base vs openuh_safara_clauses on the simulator:
//                 optimizations must never change observable behaviour.
//   kDispatch   — superblock vs reference dispatch engine: identical results
//                 AND identical LaunchStats.
//   kThreads    — 1 vs 4 simulator threads: identical results and stats.
//   kOptVsNoopt — the VIR pass pipeline off (--opt-level 0) vs full
//                 (--opt-level 2) on openuh_safara_clauses: byte-exact
//                 results plus LaunchStats compatibility (same launches,
//                 stores and atomics; the optimized side may only shed
//                 global loads, never add them). A base-config compile of
//                 both levels additionally bounds the max live register
//                 pressure: without the SAFARA feedback loop in play,
//                 optimizing must never raise a kernel's pressure.
//   kLinearVsColor — linear-scan vs graph-coloring register allocation on
//                 openuh_safara_clauses: byte-exact results and compatible
//                 launch metadata (same launch count, global stores and
//                 atomics; loads are unconstrained because the SAFARA
//                 feedback loop reacts to each allocator's register counts).
//                 A feedback-free base-config pair must additionally agree
//                 on loads: there the generated code is identical and only
//                 the allocation may differ.
//   kSpillMem   — --spill-mem local vs auto (RegDem): the spill backing
//                 store is pure placement, so results must be byte-exact and
//                 the launch metadata that doesn't depend on latency must be
//                 identical (registers, warp instructions, global traffic,
//                 total spill accesses); only cycles/stalls and the
//                 shared-memory counters may differ. Runs twice: once on
//                 openuh_safara_clauses at the default register budget, and
//                 once on a pressure pair (base config, 24-register cap)
//                 where spilling — and hence demotion — is near-certain.
//
// Every pair except kRoundtrip and kRefVsSim goes through one pair runner
// (oracles.cpp): compile both sides, run each through workloads::run on the
// arguments derive_args builds, then compare the arrays byte for byte, the
// launch counts, and the LaunchStats fields the pair lists. An oracle adds
// only the checks no other oracle makes.
//
// run_oracle never throws: compile/runtime exceptions become Status::kError,
// which the harness counts as a divergence too (a generated program that one
// side rejects is as much a bug as a wrong answer).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ast/decl.hpp"
#include "workloads/workloads.hpp"

namespace safara::fuzz {

enum class Oracle : std::uint8_t {
  kRoundtrip,
  kRefVsSim,
  kSafaraOnOff,
  kDispatch,
  kThreads,
  kOptVsNoopt,
  kLinearVsColor,
  kSpillMem,
};

const std::vector<Oracle>& all_oracles();
const char* to_string(Oracle o);
/// Parses an oracle name ("roundtrip", "ref-vs-sim", "safara-on-off",
/// "dispatch", "threads", "opt-vs-noopt", "linear-vs-color",
/// "spillmem-local-vs-shared"). Returns false on unknown names.
bool parse_oracle(std::string_view name, Oracle& out);

enum class Status : std::uint8_t { kOk, kDiverged, kError };
const char* to_string(Status s);

struct OracleResult {
  Oracle oracle = Oracle::kRoundtrip;
  Status status = Status::kOk;
  std::string detail;  // divergence description or exception text
};

/// Reconstructs a runnable, deterministic argument set from nothing but the
/// parameter list, using the generator's conventions: n=24, m=16, other int
/// scalars 8, float scalars 1.5, double scalars 2.5; rank-1 arrays length n,
/// rank-2 arrays [n][m]; contents from a name-seeded xorshift fill (floats in
/// [0.25, 1.25], ints in [0, 96]). This is what makes a corpus .acc file or a
/// reduced candidate runnable from its source text alone.
/// Throws std::runtime_error on extents it cannot evaluate.
workloads::Dataset derive_args(const ast::Function& fn);

struct OracleOptions {
  /// Miscompile injection for testing the harness itself: side B of
  /// kRefVsSim, kSafaraOnOff, kOptVsNoopt, kLinearVsColor (its
  /// safara_clauses pair) and kSpillMem compiles a mutated program (first
  /// '+' flipped to '-'), which the oracle must then catch.
  bool inject_miscompile = false;
};

OracleResult run_oracle(const std::string& source, Oracle o,
                        const OracleOptions& opts = {});

}  // namespace safara::fuzz

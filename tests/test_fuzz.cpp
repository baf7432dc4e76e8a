// Differential fuzzing subsystem tests: generator determinism and argument
// convention, all oracles over generated seeds and the checked-in corpus,
// the self-test path (an injected miscompile must be caught AND reduced to a
// tiny reproducer), and the greedy reducer itself.
//
// SAFARA_CORPUS_DIR is injected by tests/CMakeLists.txt and points at the
// source-tree tests/corpus directory.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "fuzz/fuzz.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/reducer.hpp"
#include "parse/parser.hpp"

namespace safara::fuzz {

// Names a parameterized test's oracle by its flag spelling.
void PrintTo(Oracle o, std::ostream* os) { *os << to_string(o); }

namespace {

int line_count(const std::string& s) {
  int lines = 0;
  for (char c : s) {
    if (c == '\n') ++lines;
  }
  if (!s.empty() && s.back() != '\n') ++lines;
  return lines;
}

// -- generator ----------------------------------------------------------------

TEST(FuzzGenerator, SameSeedSameProgram) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1000000007ull}) {
    EXPECT_EQ(generate_program(seed), generate_program(seed)) << "seed " << seed;
  }
}

TEST(FuzzGenerator, DifferentSeedsDiverge) {
  // Not a hard guarantee per pair, but across a small window every program
  // being identical would mean the seed is ignored.
  const std::string first = generate_program(1);
  bool any_different = false;
  for (std::uint64_t seed = 2; seed <= 10 && !any_different; ++seed) {
    any_different = generate_program(seed) != first;
  }
  EXPECT_TRUE(any_different);
}

TEST(FuzzGenerator, ProgramsParseCleanly) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const std::string src = generate_program(seed);
    DiagnosticEngine diags;
    ast::Program p = parse::parse_source(src, diags);
    EXPECT_TRUE(diags.ok()) << "seed " << seed << ":\n" << diags.render() << "\n" << src;
    ASSERT_EQ(p.functions.size(), 1u) << src;
  }
}

// -- argument derivation ------------------------------------------------------

TEST(FuzzArgs, DeriveArgsFollowsConvention) {
  const char* src = R"(
void fuzz_fn(int n, int m, int c0, float alpha, double beta, float *inA,
             double out0[?][?], int inB[24]) {
})";
  DiagnosticEngine diags;
  ast::Program p = parse::parse_source(src, diags);
  ASSERT_TRUE(diags.ok()) << diags.render();
  workloads::Dataset args = derive_args(*p.functions[0]);

  ASSERT_TRUE(args.scalars.count("n"));
  EXPECT_EQ(args.scalars.at("n").as_int(), 24);
  EXPECT_EQ(args.scalars.at("m").as_int(), 16);
  EXPECT_EQ(args.scalars.at("c0").as_int(), 8);
  EXPECT_DOUBLE_EQ(args.scalars.at("alpha").as_double(), 1.5);
  EXPECT_DOUBLE_EQ(args.scalars.at("beta").as_double(), 2.5);

  ASSERT_TRUE(args.arrays.count("inA"));
  EXPECT_EQ(args.arrays.at("inA").element_count(), 24);  // pointer => length n
  ASSERT_TRUE(args.arrays.count("out0"));
  EXPECT_EQ(args.arrays.at("out0").element_count(), 24 * 16);  // [?][?] => [n][m]
  ASSERT_TRUE(args.arrays.count("inB"));
  EXPECT_EQ(args.arrays.at("inB").element_count(), 24);

  // Fills are name-seeded and deterministic, so two derivations agree.
  workloads::Dataset again = derive_args(*p.functions[0]);
  EXPECT_EQ(args.arrays.at("inA").data, again.arrays.at("inA").data);
  // Integer fills stay non-negative so `% extent` indexing is safe.
  const driver::HostArray& ints = args.arrays.at("inB");
  for (std::int64_t i = 0; i < ints.element_count(); ++i) {
    EXPECT_GE(ints.get_int(i), 0);
  }
}

// -- oracles over generated programs ------------------------------------------

TEST(FuzzOracles, GeneratedSeedsPassEveryOracle) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const std::string src = generate_program(seed);
    for (Oracle o : all_oracles()) {
      OracleResult r = run_oracle(src, o);
      EXPECT_EQ(r.status, Status::kOk)
          << "seed " << seed << " oracle " << to_string(o) << ": " << r.detail << "\n"
          << src;
    }
  }
}

TEST(FuzzOracles, NamesRoundTripThroughParser) {
  for (Oracle o : all_oracles()) {
    Oracle parsed;
    ASSERT_TRUE(parse_oracle(to_string(o), parsed)) << to_string(o);
    EXPECT_EQ(parsed, o);
  }
  Oracle ignored;
  EXPECT_FALSE(parse_oracle("not-an-oracle", ignored));
}

TEST(FuzzOracles, BrokenProgramReportsErrorNotThrow) {
  OracleResult r = run_oracle("void f( {", Oracle::kRefVsSim);
  EXPECT_EQ(r.status, Status::kError);
  EXPECT_FALSE(r.detail.empty());
}

// -- corpus -------------------------------------------------------------------

TEST(FuzzCorpus, EveryCorpusProgramPassesEveryOracle) {
  FuzzOptions opts;
  opts.count = 0;  // corpus only
  opts.corpus_dir = SAFARA_CORPUS_DIR;
  FuzzReport report = run_fuzz(opts);
  EXPECT_GE(report.programs, 4) << "corpus should not be empty";
  std::string details;
  for (const Divergence& d : report.divergences) {
    details += d.id + " [" + std::string(to_string(d.oracle)) + "]: " + d.detail + "\n";
  }
  EXPECT_TRUE(report.ok()) << details;
}

// -- the harness end to end ---------------------------------------------------

TEST(FuzzHarness, SmokeRunIsClean) {
  FuzzOptions opts;
  opts.seed = 1;
  opts.count = 10;
  FuzzReport report = run_fuzz(opts);
  EXPECT_EQ(report.programs, 10);
  EXPECT_EQ(report.oracle_runs, 10 * static_cast<int>(all_oracles().size()));
  std::string details;
  for (const Divergence& d : report.divergences) {
    details += d.id + ": " + d.detail + "\n";
  }
  EXPECT_TRUE(report.ok()) << details;

  const std::string json = report.to_json().dump(2);
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"oracle_runs\""), std::string::npos) << json;
}

TEST(FuzzHarness, InjectedMiscompileIsCaughtAndReduced) {
  // Self-test: flip one binary op on side B of the safara-on/off pair and the
  // harness must (a) catch the divergence and (b) greedily shrink the program
  // to a tiny reproducer that still diverges. Seed 7's flip survives later
  // overwrites, so it reliably reaches the output arrays.
  FuzzOptions opts;
  opts.seed = 7;
  opts.count = 1;
  opts.oracles = {Oracle::kSafaraOnOff};
  opts.inject_miscompile = true;
  opts.reduce = true;
  FuzzReport report = run_fuzz(opts);
  ASSERT_EQ(report.divergences.size(), 1u);
  const Divergence& d = report.divergences[0];
  EXPECT_EQ(d.oracle, Oracle::kSafaraOnOff);
  EXPECT_EQ(d.status, Status::kDiverged);
  ASSERT_FALSE(d.reduced.empty());
  EXPECT_LT(d.reduced.size(), d.source.size());
  EXPECT_LE(line_count(d.reduced), 15) << d.reduced;

  // The reduced program must still trip the same oracle under injection.
  OracleOptions oracle_opts;
  oracle_opts.inject_miscompile = true;
  OracleResult r = run_oracle(d.reduced, Oracle::kSafaraOnOff, oracle_opts);
  EXPECT_EQ(r.status, Status::kDiverged) << d.reduced;
}

// Every oracle that takes --inject-miscompile must catch it: the mutation
// lands on side B of the pair, so a clean pass here means the oracle compiled
// one program twice instead of comparing its two sides.
class InjectedMiscompile : public ::testing::TestWithParam<Oracle> {};

TEST_P(InjectedMiscompile, IsCaught) {
  FuzzOptions opts;
  opts.seed = 7;
  opts.count = 1;
  opts.oracles = {GetParam()};
  opts.inject_miscompile = true;
  FuzzReport report = run_fuzz(opts);
  ASSERT_EQ(report.divergences.size(), 1u);
  EXPECT_EQ(report.divergences[0].oracle, GetParam());
  EXPECT_EQ(report.divergences[0].status, Status::kDiverged)
      << report.divergences[0].detail;
}

INSTANTIATE_TEST_SUITE_P(
    FuzzHarness, InjectedMiscompile,
    ::testing::Values(Oracle::kRefVsSim, Oracle::kSafaraOnOff, Oracle::kOptVsNoopt,
                      Oracle::kLinearVsColor, Oracle::kSpillMem),
    [](const ::testing::TestParamInfo<Oracle>& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// -- reducer ------------------------------------------------------------------

TEST(FuzzReducer, ShrinksWhilePredicateHolds) {
  const char* src = R"(
void fuzz_fn(int n, int m, float alpha, float *inA, float *inB, float *out0) {
  #pragma acc parallel loop gang vector(64)
  for (i = 2; i < n - 2; i++) {
    float t0 = inB[i] * 2.0f;
    out0[i] = alpha * inA[i] + t0;
    out0[(i * 3) % n] = 0.0f;
  }
})";
  // Keep anything that still parses and mentions alpha: the reducer should
  // strip the unrelated statements and arrays but never produce junk.
  Predicate keep = [](const std::string& candidate) {
    if (candidate.find("alpha") == std::string::npos) return false;
    DiagnosticEngine diags;
    parse::parse_source(candidate, diags);
    return diags.ok();
  };
  ReduceResult r = reduce(src, keep);
  EXPECT_GT(r.applied, 0);
  EXPECT_LT(r.source.size(), std::string(src).size());
  EXPECT_TRUE(keep(r.source)) << r.source;
}

TEST(FuzzReducer, UnreduciblePredicateReturnsOriginalShape) {
  // A predicate that rejects every candidate leaves the (reprinted) source
  // semantically intact: nothing applied.
  const char* src = "void fuzz_fn(int n, float *out0) {\n}\n";
  Predicate never = [](const std::string&) { return false; };
  ReduceResult r = reduce(src, never);
  EXPECT_EQ(r.applied, 0);
  DiagnosticEngine diags;
  parse::parse_source(r.source, diags);
  EXPECT_TRUE(diags.ok());
}

}  // namespace
}  // namespace safara::fuzz

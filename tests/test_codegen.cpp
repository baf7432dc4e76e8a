// Codegen unit tests: kernel parameter construction (dope vectors, dim
// sharing, small narrowing), VIR structure, value numbering / hoisting, and
// the atomic reduction lowering.
#include <gtest/gtest.h>

#include <set>

#include "codegen/codegen.hpp"
#include "parse/parser.hpp"
#include "sema/sema.hpp"
#include "vir/vir.hpp"

namespace safara::codegen {
namespace {

using vir::Instr;
using vir::Opcode;
using vir::ParamInfo;
using vir::VType;

struct Compiled {
  DiagnosticEngine diags;
  ast::Program program;
  std::unique_ptr<sema::FunctionInfo> info;
  CodegenResult result;
};

std::unique_ptr<Compiled> gen(std::string_view src, CodegenOptions opts = {},
                              int region = 0) {
  auto c = std::make_unique<Compiled>();
  c->program = parse::parse_source(src, c->diags);
  EXPECT_TRUE(c->diags.ok()) << c->diags.render();
  sema::Sema sema(c->diags);
  c->info = sema.analyze(*c->program.functions.front());
  EXPECT_TRUE(c->diags.ok()) << c->diags.render();
  c->result = generate_kernel(*c->info, c->info->regions[static_cast<std::size_t>(region)],
                              region, opts, c->diags);
  EXPECT_TRUE(c->diags.ok()) << c->diags.render();
  return c;
}

int count_ops(const vir::Kernel& k, Opcode op) {
  int n = 0;
  for (const Instr& in : k.code) {
    if (in.op == op) ++n;
  }
  return n;
}

std::set<std::string> param_names(const vir::Kernel& k, ParamInfo::Kind kind) {
  std::set<std::string> out;
  for (const ParamInfo& p : k.params) {
    if (p.kind != kind) continue;
    std::string name = p.name;
    if (kind == ParamInfo::Kind::kDopeLb || kind == ParamInfo::Kind::kDopeLen) {
      name += ':';
      name += std::to_string(p.dim);
    }
    out.insert(name);
  }
  return out;
}

constexpr const char* kAllocPair = R"(
void f(int nx, int ny, const float p[?][?], float q[?][?]) {
  #pragma acc parallel loop gang vector(64) dim((0:nx, 0:ny)(p, q)) small(p, q)
  for (i = 0; i < nx; i++) {
    #pragma acc loop seq
    for (k = 0; k < ny; k++) {
      q[i][k] = p[i][k] * 2.0f;
    }
  }
})";

TEST(Codegen, AllocatableGetsOwnDopeParams) {
  auto c = gen(kAllocPair);  // base: clauses ignored
  auto lbs = param_names(c->result.kernel, ParamInfo::Kind::kDopeLb);
  auto lens = param_names(c->result.kernel, ParamInfo::Kind::kDopeLen);
  // Each rank-2 allocatable: lb0, lb1 and len1 (row-major linearization).
  EXPECT_TRUE(lbs.count("p:0") && lbs.count("p:1"));
  EXPECT_TRUE(lbs.count("q:0") && lbs.count("q:1"));
  EXPECT_TRUE(lens.count("p:1"));
  EXPECT_TRUE(lens.count("q:1"));
}

TEST(Codegen, DimClauseWithBoundsDropsDopeParams) {
  CodegenOptions opts;
  opts.honor_dim = true;
  auto c = gen(kAllocPair, opts);
  // Explicit (0:nx, 0:ny) bounds: extents come from the scalar args, no dope
  // params remain at all.
  EXPECT_TRUE(param_names(c->result.kernel, ParamInfo::Kind::kDopeLb).empty());
  EXPECT_TRUE(param_names(c->result.kernel, ParamInfo::Kind::kDopeLen).empty());
}

TEST(Codegen, DimClauseWithoutBoundsSharesRepresentativeDope) {
  const char* src = R"(
void f(int nx, const float p[?][?], float q[?][?]) {
  #pragma acc parallel loop gang vector(64) dim((p, q))
  for (i = 0; i < nx; i++) {
    q[i][0] = p[i][0];
  }
})";
  CodegenOptions opts;
  opts.honor_dim = true;
  auto c = gen(src, opts);
  auto lbs = param_names(c->result.kernel, ParamInfo::Kind::kDopeLb);
  // Only the group representative's dope appears.
  EXPECT_TRUE(lbs.count("p:0"));
  EXPECT_FALSE(lbs.count("q:0"));
}

TEST(Codegen, SmallClauseNarrowsDopeType) {
  CodegenOptions small_on;
  small_on.honor_small = true;
  auto base = gen(kAllocPair);
  auto small = gen(kAllocPair, small_on);
  auto dope_type = [](const vir::Kernel& k) {
    for (const ParamInfo& p : k.params) {
      if (p.kind == ParamInfo::Kind::kDopeLen) return p.type;
    }
    return VType::kPred;
  };
  EXPECT_EQ(dope_type(base->result.kernel), VType::kI64);
  EXPECT_EQ(dope_type(small->result.kernel), VType::kI32);
}

TEST(Codegen, SmallReducesI64Temporaries) {
  CodegenOptions small_on;
  small_on.honor_small = true;
  auto base = gen(kAllocPair);
  auto small = gen(kAllocPair, small_on);
  auto count_i64 = [](const vir::Kernel& k) {
    int n = 0;
    for (VType t : k.vreg_types) {
      if (t == VType::kI64) ++n;
    }
    return n;
  };
  EXPECT_LT(count_i64(small->result.kernel), count_i64(base->result.kernel));
}

TEST(Codegen, DimEnablesOffsetSharing) {
  CodegenOptions both;
  both.honor_dim = true;
  auto base = gen(kAllocPair);
  auto dim = gen(kAllocPair, both);
  // With one dope set, the p/q offset chains unify: fewer multiplies.
  EXPECT_LT(count_ops(dim->result.kernel, Opcode::kMul),
            count_ops(base->result.kernel, Opcode::kMul));
}

TEST(Codegen, GridStrideLoopStructure) {
  const char* src = R"(
void f(int n, float *x) {
  #pragma acc parallel loop gang vector(128)
  for (i = 0; i < n; i++) { x[i] = 1.0f; }
})";
  auto c = gen(src);
  const vir::Kernel& k = c->result.kernel;
  EXPECT_EQ(count_ops(k, Opcode::kMovSpecial), 4);  // tid, ctaid, ntid, nctaid
  EXPECT_EQ(count_ops(k, Opcode::kCbr), 1);
  EXPECT_EQ(count_ops(k, Opcode::kBra), 1);
  EXPECT_EQ(count_ops(k, Opcode::kExit), 1);
  // Every cbr must carry a reconvergence label.
  for (const Instr& in : k.code) {
    if (in.op == Opcode::kCbr) {
      EXPECT_NE(in.imm2, vir::kNoLabel);
    }
  }
}

TEST(Codegen, LaunchPlanDimsInnermostFirst) {
  const char* src = R"(
void f(int n, int m, const float a[n][m], float b[n][m]) {
  #pragma acc parallel loop gang(n/2) vector(2)
  for (j = 0; j < n; j++) {
    #pragma acc loop vector(64)
    for (i = 0; i < m; i++) {
      b[j][i] = a[j][i];
    }
  }
})";
  auto c = gen(src);
  const LaunchPlan& plan = c->result.plan;
  ASSERT_EQ(plan.dims.size(), 2u);
  // dims[0] is x = the inner i loop (vector 64); dims[1] = j.
  ASSERT_NE(plan.dims[0].vector_len, nullptr);
  EXPECT_EQ(plan.dims[0].vector_len->as<ast::IntLit>().value, 64);
  ASSERT_NE(plan.dims[1].gang_count, nullptr);
}

TEST(Codegen, ReductionBecomesAtomic) {
  const char* src = R"(
void f(int n, const float *x, float *sum) {
  #pragma acc parallel loop gang vector
  for (i = 0; i < n; i++) {
    sum[0] += x[i];
  }
})";
  auto c = gen(src);
  EXPECT_EQ(count_ops(c->result.kernel, Opcode::kAtomAdd), 1);
}

TEST(Codegen, SubAssignReductionNegates) {
  const char* src = R"(
void f(int n, const float *x, float *sum) {
  #pragma acc parallel loop gang vector
  for (i = 0; i < n; i++) {
    sum[0] -= x[i];
  }
})";
  auto c = gen(src);
  EXPECT_EQ(count_ops(c->result.kernel, Opcode::kAtomAdd), 1);
  EXPECT_GE(count_ops(c->result.kernel, Opcode::kNeg), 1);
}

TEST(Codegen, IndexedWriteIsNotAtomic) {
  const char* src = R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector
  for (i = 0; i < n; i++) {
    y[i] += x[i];
  }
})";
  auto c = gen(src);
  EXPECT_EQ(count_ops(c->result.kernel, Opcode::kAtomAdd), 0);
  EXPECT_EQ(count_ops(c->result.kernel, Opcode::kStGlobal), 1);
}

TEST(Codegen, ReadOnlyLoadsFlagged) {
  auto c = gen(kAllocPair);
  for (const Instr& in : c->result.kernel.code) {
    if (in.op == Opcode::kLdGlobal) {
      EXPECT_TRUE(in.flags & Instr::kFlagReadOnly);  // p is never written
    }
  }
}

TEST(Codegen, WrittenArrayLoadsNotReadOnly) {
  const char* src = R"(
void f(int n, float *x) {
  #pragma acc parallel loop gang vector
  for (i = 0; i < n; i++) { x[i] = x[i] + 1.0f; }
})";
  auto c = gen(src);
  for (const Instr& in : c->result.kernel.code) {
    if (in.op == Opcode::kLdGlobal) {
      EXPECT_FALSE(in.flags & Instr::kFlagReadOnly);
    }
  }
}

TEST(Codegen, LoadsAreNotValueNumbered) {
  // Two identical reads must stay two loads — removing them is scalar
  // replacement's job (the paper's premise), not the backend's.
  const char* src = R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector
  for (i = 0; i < n; i++) { y[i] = x[i] * x[i]; }
})";
  auto c = gen(src);
  EXPECT_EQ(count_ops(c->result.kernel, Opcode::kLdGlobal), 2);
}

TEST(Codegen, StatementCseCollapsesLoads) {
  const char* src = R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector
  for (i = 0; i < n; i++) { y[i] = x[i] * x[i]; }
})";
  CodegenOptions pgi;
  pgi.cse_loads_within_stmt = true;
  auto c = gen(src, pgi);
  EXPECT_EQ(count_ops(c->result.kernel, Opcode::kLdGlobal), 1);
}

TEST(Codegen, StatementCseDoesNotCrossStatements) {
  const char* src = R"(
void f(int n, const float *x, float *y, float *z) {
  #pragma acc parallel loop gang vector
  for (i = 0; i < n; i++) {
    y[i] = x[i];
    z[i] = x[i];
  }
})";
  CodegenOptions pgi;
  pgi.cse_loads_within_stmt = true;
  auto c = gen(src, pgi);
  EXPECT_EQ(count_ops(c->result.kernel, Opcode::kLdGlobal), 2);
}

TEST(Codegen, InvariantHoistingMovesWorkOut) {
  const char* src = R"(
void f(int n, int m, const float a[n][m], float b[n][m]) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    #pragma acc loop seq
    for (k = 0; k < m; k++) {
      b[i][k] = a[i][k] + float(n * 7);
    }
  }
})";
  CodegenOptions hoisting;
  hoisting.licm = true;
  CodegenOptions no_hoisting;
  no_hoisting.licm = false;
  auto with = gen(src, hoisting);
  auto without = gen(src, no_hoisting);
  // The hoisted version has strictly fewer instructions inside the k loop;
  // as a proxy, the total code length shrinks relative to the non-LICM
  // version executing the invariant multiply per iteration... both versions
  // have the same static length, so compare positions: with LICM, the n*7
  // multiply (kMul on i32 with param operands) appears before the loop head
  // label of the innermost loop.
  const vir::Kernel& k = with->result.kernel;
  // Find the innermost loop head (last label target that is branched back to).
  std::int32_t back_branch_target = -1;
  for (std::size_t idx = 0; idx < k.code.size(); ++idx) {
    if (k.code[idx].op == Opcode::kBra) {
      std::int32_t t = k.target(static_cast<std::int32_t>(k.code[idx].imm));
      if (t < static_cast<std::int32_t>(idx)) back_branch_target = t;
    }
  }
  ASSERT_GE(back_branch_target, 0);
  bool found_before_loop = false;
  for (std::int32_t idx = 0; idx < back_branch_target; ++idx) {
    const Instr& in = k.code[static_cast<std::size_t>(idx)];
    if (in.op == Opcode::kMul && in.type == VType::kI32) found_before_loop = true;
  }
  EXPECT_TRUE(found_before_loop);
  (void)without;
}

TEST(Codegen, PointerParamHasNoDope) {
  const char* src = R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector
  for (i = 0; i < n; i++) { y[i] = x[i]; }
})";
  auto c = gen(src);
  EXPECT_TRUE(param_names(c->result.kernel, ParamInfo::Kind::kDopeLb).empty());
  EXPECT_TRUE(param_names(c->result.kernel, ParamInfo::Kind::kDopeLen).empty());
}

TEST(Codegen, StaticArrayExtentsAreImmediates) {
  const char* src = R"(
void f(int n, const float a[8][16], float b[8][16]) {
  #pragma acc parallel loop gang vector
  for (i = 0; i < 8; i++) {
    #pragma acc loop seq
    for (k = 0; k < 16; k++) { b[i][k] = a[i][k]; }
  }
})";
  auto c = gen(src);
  EXPECT_TRUE(param_names(c->result.kernel, ParamInfo::Kind::kDopeLen).empty());
}

TEST(Codegen, FullySequentialRegionSingleThreadPlan) {
  const char* src = R"(
void f(int n, float *x) {
  #pragma acc parallel loop seq
  for (i = 0; i < n; i++) { x[i] = 1.0f; }
})";
  auto c = gen(src);
  ASSERT_EQ(c->result.plan.dims.size(), 1u);
  EXPECT_EQ(c->result.plan.dims[0].vector_len->as<ast::IntLit>().value, 1);
}

TEST(Codegen, LabelsResolveInsideCode) {
  auto c = gen(kAllocPair);
  const vir::Kernel& k = c->result.kernel;
  for (std::int32_t label : k.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LE(label, static_cast<std::int32_t>(k.code.size()));
  }
  for (const Instr& in : k.code) {
    if (in.op == Opcode::kBra || in.op == Opcode::kCbr) {
      EXPECT_LT(static_cast<std::size_t>(in.imm), k.labels.size());
    }
  }
}

}  // namespace
}  // namespace safara::codegen

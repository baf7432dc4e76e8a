#include <gtest/gtest.h>

#include "parse/parser.hpp"
#include "sema/sema.hpp"

namespace safara::sema {
namespace {

struct Analyzed {
  DiagnosticEngine diags;
  ast::Program program;
  std::unique_ptr<FunctionInfo> info;
};

std::unique_ptr<Analyzed> analyze(std::string_view src) {
  auto a = std::make_unique<Analyzed>();
  a->program = parse::parse_source(src, a->diags);
  EXPECT_TRUE(a->diags.ok()) << a->diags.render();
  Sema sema(a->diags);
  a->info = sema.analyze(*a->program.functions.front());
  return a;
}

std::unique_ptr<Analyzed> analyze_ok(std::string_view src) {
  auto a = analyze(src);
  EXPECT_TRUE(a->diags.ok()) << a->diags.render();
  return a;
}

void analyze_err(std::string_view src, const std::string& fragment = "") {
  auto a = analyze(src);
  EXPECT_FALSE(a->diags.ok()) << "expected a sema error for: " << src;
  if (!fragment.empty()) {
    EXPECT_NE(a->diags.render().find(fragment), std::string::npos)
        << "missing '" << fragment << "' in: " << a->diags.render();
  }
}

// -- binding & typing ---------------------------------------------------------

TEST(Sema, BindsParamsAndLocals) {
  auto a = analyze_ok(R"(
void f(int n, float *x) {
  for (i = 0; i < n; i++) {
    float t = x[i];
    x[i] = t * 2.0f;
  }
})");
  EXPECT_NE(a->info->find_symbol("n"), nullptr);
  EXPECT_NE(a->info->find_symbol("x"), nullptr);
  EXPECT_NE(a->info->find_symbol("t"), nullptr);
  EXPECT_NE(a->info->find_symbol("i"), nullptr);
  EXPECT_EQ(a->info->find_symbol("i")->kind, SymbolKind::kInduction);
}

TEST(Sema, UndeclaredVariableIsError) {
  analyze_err("void f(int n, float *x) { for (i=0;i<n;i++) { x[i] = y; } }",
              "undeclared");
}

TEST(Sema, ArrayWithoutSubscriptsIsError) {
  analyze_err("void f(int n, float *x, float *y) { for (i=0;i<n;i++) { y[i] = x; } }",
              "without subscripts");
}

TEST(Sema, RankMismatchIsError) {
  analyze_err("void f(int n, float a[n][n]) { for (i=0;i<n;i++) { a[i] = 0.0f; } }",
              "rank");
}

TEST(Sema, FloatSubscriptIsError) {
  analyze_err("void f(int n, float *a) { for (i=0;i<n;i++) { a[1.5f] = 0.0f; } }",
              "integer");
}

TEST(Sema, ConstArrayWriteIsError) {
  analyze_err("void f(int n, const float *a) { for (i=0;i<n;i++) { a[i] = 0.0f; } }",
              "const");
}

TEST(Sema, AssignToInductionVarIsError) {
  analyze_err("void f(int n, float *a) { for (i=0;i<n;i++) { i = 3; a[i]=0.0f; } }",
              "induction");
}

TEST(Sema, RedefinitionIsError) {
  analyze_err(R"(
void f(int n, float *a) {
  for (i = 0; i < n; i++) {
    float t = 1.0f;
    float t = 2.0f;
    a[i] = t;
  }
})", "redefinition");
}

TEST(Sema, NestedLoopsCannotShareInductionName) {
  analyze_err(R"(
void f(int n, float *a) {
  for (i = 0; i < n; i++) {
    for (i = 0; i < n; i++) { a[i] = 0.0f; }
  }
})", "enclosing loop");
}

TEST(Sema, ShadowingInSiblingLoopsIsFine) {
  analyze_ok(R"(
void f(int n, float *a) {
  for (i = 0; i < n; i++) { a[i] = 0.0f; }
  for (i = 0; i < n; i++) { a[i] = 1.0f; }
})");
}

TEST(Sema, CommonTypePromotion) {
  auto a = analyze_ok(R"(
void f(int n, double *d, float *x) {
  for (i = 0; i < n; i++) {
    d[i] = x[i] + i;
  }
})");
  // the rhs add has type f32 (float + int), assignment converts to f64.
  const auto& loop = a->program.functions[0]->body->stmts[0]->as<ast::ForStmt>();
  const auto& assign = loop.body->stmts[0]->as<ast::AssignStmt>();
  EXPECT_EQ(assign.rhs->type, ast::ScalarType::kF32);
}

TEST(Sema, RemRequiresIntegers) {
  analyze_err("void f(int n, float *a) { for (i=0;i<n;i++) { a[i] = 1.5f % 2.0f; } }",
              "integer");
}

TEST(Sema, UnknownCallIsError) {
  analyze_err("void f(int n, float *a) { for (i=0;i<n;i++) { a[i] = foo(i); } }",
              "unknown function");
}

TEST(Sema, IntrinsicArityChecked) {
  analyze_err("void f(int n, float *a) { for (i=0;i<n;i++) { a[i] = sqrt(1.0f, 2.0f); } }",
              "argument");
}

TEST(Sema, IntrinsicTypesInferred) {
  auto a = analyze_ok(R"(
void f(int n, float *x, double *d) {
  for (i = 0; i < n; i++) {
    x[i] = sqrt(x[i]);
    d[i] = pow(d[i], 2.0);
  }
})");
  (void)a;
}

// -- regions & directives ---------------------------------------------------------

constexpr const char* kTwoLevel = R"(
void f(int n, int m, const float a[n][m], float b[n][m]) {
  #pragma acc parallel loop gang
  for (j = 0; j < n; j++) {
    #pragma acc loop vector(64)
    for (i = 0; i < m; i++) {
      b[j][i] = a[j][i];
    }
  }
})";

TEST(SemaRegion, DiscoversOffloadRegion) {
  auto a = analyze_ok(kTwoLevel);
  ASSERT_EQ(a->info->regions.size(), 1u);
  EXPECT_EQ(a->info->regions[0].scheduled_loops.size(), 2u);
}

TEST(SemaRegion, SeqLoopNotScheduled) {
  auto a = analyze_ok(R"(
void f(int n, int m, const float a[n][m], float b[n][m]) {
  #pragma acc parallel loop gang vector(64)
  for (j = 0; j < n; j++) {
    #pragma acc loop seq
    for (i = 0; i < m; i++) {
      b[j][i] = a[j][i];
    }
  }
})");
  EXPECT_EQ(a->info->regions[0].scheduled_loops.size(), 1u);
}

TEST(SemaRegion, MultipleRegions) {
  auto a = analyze_ok(R"(
void f(int n, float *x) {
  #pragma acc parallel loop gang vector
  for (i = 0; i < n; i++) { x[i] = 1.0f; }
  #pragma acc parallel loop gang vector
  for (i = 0; i < n; i++) { x[i] = x[i] * 2.0f; }
})");
  EXPECT_EQ(a->info->regions.size(), 2u);
}

TEST(SemaRegion, ReadOnlyIsDecidedPerRegion) {
  // Each region records the arrays its own assignments write: `x` is written
  // only in the first region, `y` only in the second (under an `if`), and
  // `c` is const. An assignment outside every region counts for none.
  auto a = analyze_ok(R"(
void f(int n, float *x, float *y, const float *c, float *h) {
  #pragma acc parallel loop gang vector
  for (i = 0; i < n; i++) { x[i] = y[i] + c[i]; }
  #pragma acc parallel loop gang vector
  for (i = 0; i < n; i++) {
    if (i > 0) { y[i] = x[i] * c[i]; }
  }
  for (i = 0; i < n; i++) { h[i] = 0.0f; }
})");
  ASSERT_EQ(a->info->regions.size(), 2u);
  const sema::OffloadRegion& first = a->info->regions[0];
  const sema::OffloadRegion& second = a->info->regions[1];
  const sema::Symbol& x = *a->info->find_symbol("x");
  const sema::Symbol& y = *a->info->find_symbol("y");
  const sema::Symbol& c = *a->info->find_symbol("c");
  const sema::Symbol& h = *a->info->find_symbol("h");
  EXPECT_FALSE(first.read_only(x));
  EXPECT_TRUE(first.read_only(y));
  EXPECT_TRUE(second.read_only(x));
  EXPECT_FALSE(second.read_only(y));
  EXPECT_TRUE(first.read_only(c));
  EXPECT_TRUE(second.read_only(c));
  EXPECT_TRUE(first.read_only(h));
  EXPECT_TRUE(second.read_only(h));
}

TEST(SemaRegion, NestedOffloadIsError) {
  analyze_err(R"(
void f(int n, float *x) {
  #pragma acc parallel loop gang
  for (i = 0; i < n; i++) {
    #pragma acc parallel loop vector
    for (j = 0; j < n; j++) { x[j] = 1.0f; }
  }
})", "nested");
}

TEST(SemaRegion, OrphanLoopDirectiveIsError) {
  analyze_err(R"(
void f(int n, float *x) {
  #pragma acc loop vector
  for (i = 0; i < n; i++) { x[i] = 1.0f; }
})", "inside an offload region");
}

TEST(SemaRegion, SeqConflictsWithGang) {
  analyze_err(R"(
void f(int n, float *x) {
  #pragma acc parallel loop seq gang
  for (i = 0; i < n; i++) { x[i] = 1.0f; }
})", "conflicts");
}

TEST(SemaRegion, ImperfectScheduledNestIsError) {
  analyze_err(R"(
void f(int n, int m, const float a[n][m], float b[n][m], float *c) {
  #pragma acc parallel loop gang
  for (j = 0; j < n; j++) {
    c[j] = 0.0f;
    #pragma acc loop vector(64)
    for (i = 0; i < m; i++) { b[j][i] = a[j][i]; }
  }
})", "perfectly nested");
}

TEST(SemaRegion, StatementsBesideSeqLoopAreFine) {
  analyze_ok(R"(
void f(int n, int m, const float a[n][m], float b[n][m], float *c) {
  #pragma acc parallel loop gang vector(64)
  for (j = 0; j < n; j++) {
    c[j] = 0.0f;
    #pragma acc loop seq
    for (i = 0; i < m; i++) { b[j][i] = a[j][i]; }
  }
})");
}

TEST(SemaRegion, FourScheduledDimsIsError) {
  analyze_err(R"(
void f(int n, const float a[n][n][n][n], float b[n][n][n][n]) {
  #pragma acc parallel loop gang
  for (x = 0; x < n; x++) {
    #pragma acc loop gang
    for (y = 0; y < n; y++) {
      #pragma acc loop worker
      for (z = 0; z < n; z++) {
        #pragma acc loop vector
        for (w = 0; w < n; w++) { b[x][y][z][w] = a[x][y][z][w]; }
      }
    }
  }
})", "at most 3");
}

// -- dim / small validation ------------------------------------------------------

TEST(SemaDim, AppliesGroupAttributes) {
  auto a = analyze_ok(R"(
void f(int nx, int ny, float p[?][?], float q[?][?]) {
  #pragma acc parallel loop gang vector dim((0:nx, 0:ny)(p, q)) small(p)
  for (i = 0; i < nx; i++) { p[i][0] = q[i][0]; }
})");
  const Symbol* p = a->info->find_symbol("p");
  const Symbol* q = a->info->find_symbol("q");
  EXPECT_GE(p->dim_group, 0);
  EXPECT_EQ(p->dim_group, q->dim_group);
  EXPECT_EQ(p->dim_lb.size(), 2u);
  EXPECT_TRUE(p->small);
  EXPECT_FALSE(q->small);
}

TEST(SemaDim, PointerInDimIsError) {
  analyze_err(R"(
void f(int n, float *p, float *q) {
  #pragma acc parallel loop gang vector dim((p, q))
  for (i = 0; i < n; i++) { p[i] = q[i]; }
})", "pointer");
}

TEST(SemaDim, SingleArrayGroupIsError) {
  analyze_err(R"(
void f(int n, float p[?][?]) {
  #pragma acc parallel loop gang vector dim((p))
  for (i = 0; i < n; i++) { p[i][0] = 1.0f; }
})", "at least two");
}

TEST(SemaDim, RankMismatchInGroupIsError) {
  analyze_err(R"(
void f(int n, float p[?][?], float q[?]) {
  #pragma acc parallel loop gang vector dim((p, q))
  for (i = 0; i < n; i++) { p[i][0] = q[i]; }
})", "equal rank");
}

TEST(SemaDim, ArrayInTwoGroupsIsError) {
  analyze_err(R"(
void f(int n, float p[?][?], float q[?][?], float r[?][?]) {
  #pragma acc parallel loop gang vector dim((p, q), (p, r))
  for (i = 0; i < n; i++) { p[i][0] = q[i][0] + r[i][0]; }
})", "more than one");
}

TEST(SemaDim, BoundsCountMustMatchRank) {
  analyze_err(R"(
void f(int n, float p[?][?], float q[?][?]) {
  #pragma acc parallel loop gang vector dim((0:n)(p, q))
  for (i = 0; i < n; i++) { p[i][0] = q[i][0]; }
})", "bounds count");
}

TEST(SemaDim, DimOnInnerLoopIsError) {
  analyze_err(R"(
void f(int n, float p[?][?], float q[?][?]) {
  #pragma acc parallel loop gang
  for (j = 0; j < n; j++) {
    #pragma acc loop vector dim((p, q))
    for (i = 0; i < n; i++) { p[j][i] = q[j][i]; }
  }
})", "parallel/kernels");
}

TEST(SemaSmall, UnknownArrayIsError) {
  analyze_err(R"(
void f(int n, float *p) {
  #pragma acc parallel loop gang vector small(zz)
  for (i = 0; i < n; i++) { p[i] = 1.0f; }
})", "unknown array");
}

TEST(SemaSmall, ScalarInSmallIsError) {
  analyze_err(R"(
void f(int n, float *p) {
  #pragma acc parallel loop gang vector small(n)
  for (i = 0; i < n; i++) { p[i] = 1.0f; }
})", "not an array");
}

TEST(Sema, ReanalysisIsIdempotent) {
  auto a = analyze_ok(kTwoLevel);
  // Re-running sema on the same AST must rebind cleanly.
  DiagnosticEngine diags2;
  Sema sema2(diags2);
  auto info2 = sema2.analyze(*a->program.functions.front());
  EXPECT_TRUE(diags2.ok()) << diags2.render();
  EXPECT_EQ(info2->regions.size(), 1u);
}

}  // namespace
}  // namespace safara::sema

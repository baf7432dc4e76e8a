#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ast/printer.hpp"
#include "ast/walk.hpp"
#include "lex/lexer.hpp"
#include "parse/parser.hpp"

namespace safara::parse {
namespace {

using ast::ExprKind;
using ast::StmtKind;

ast::Program parse_ok(std::string_view src) {
  DiagnosticEngine diags;
  ast::Program p = parse_source(src, diags);
  EXPECT_TRUE(diags.ok()) << diags.render();
  return p;
}

void parse_err(std::string_view src) {
  DiagnosticEngine diags;
  parse_source(src, diags);
  EXPECT_FALSE(diags.ok()) << "expected a parse error for: " << src;
}

ast::ExprPtr parse_expr(std::string_view src) {
  DiagnosticEngine diags;
  lex::Lexer lexer(src, diags);
  Parser parser(lexer.tokenize(), diags);
  ast::ExprPtr e = parser.parse_expression();
  EXPECT_TRUE(diags.ok()) << diags.render();
  return e;
}

// -- expressions --------------------------------------------------------------

TEST(ParserExpr, PrecedenceMulOverAdd) {
  auto e = parse_expr("a + b * c");
  ASSERT_EQ(e->kind, ExprKind::kBinary);
  EXPECT_EQ(e->as<ast::Binary>().op, ast::BinaryOp::kAdd);
  EXPECT_EQ(e->as<ast::Binary>().rhs->as<ast::Binary>().op, ast::BinaryOp::kMul);
}

TEST(ParserExpr, ParensOverridePrecedence) {
  auto e = parse_expr("(a + b) * c");
  EXPECT_EQ(e->as<ast::Binary>().op, ast::BinaryOp::kMul);
}

TEST(ParserExpr, LeftAssociativity) {
  auto e = parse_expr("a - b - c");
  // (a-b)-c
  EXPECT_EQ(ast::to_source(*e), "a - b - c");
  EXPECT_EQ(e->as<ast::Binary>().lhs->kind, ExprKind::kBinary);
}

TEST(ParserExpr, ComparisonsAndLogical) {
  auto e = parse_expr("a < b && c >= d || !e");
  EXPECT_EQ(e->as<ast::Binary>().op, ast::BinaryOp::kOr);
}

TEST(ParserExpr, UnaryMinusBinds) {
  auto e = parse_expr("-a * b");
  EXPECT_EQ(e->as<ast::Binary>().op, ast::BinaryOp::kMul);
  EXPECT_EQ(e->as<ast::Binary>().lhs->kind, ExprKind::kUnary);
}

TEST(ParserExpr, MultiDimArrayRef) {
  auto e = parse_expr("a[i][j+1][k*2]");
  ASSERT_EQ(e->kind, ExprKind::kArrayRef);
  EXPECT_EQ(e->as<ast::ArrayRef>().indices.size(), 3u);
}

TEST(ParserExpr, IntrinsicCall) {
  auto e = parse_expr("sqrt(x * x + y)");
  ASSERT_EQ(e->kind, ExprKind::kCall);
  EXPECT_EQ(e->as<ast::Call>().callee, "sqrt");
  EXPECT_EQ(e->as<ast::Call>().args.size(), 1u);
}

TEST(ParserExpr, ExplicitCast) {
  auto e = parse_expr("float(n)");
  ASSERT_EQ(e->kind, ExprKind::kCast);
  EXPECT_EQ(e->type, ast::ScalarType::kF32);
}

// -- declarations / functions --------------------------------------------------

TEST(Parser, FunctionWithScalarParams) {
  auto p = parse_ok("void f(int n, float alpha, double d, long l) { }");
  ASSERT_EQ(p.functions.size(), 1u);
  const auto& params = p.functions[0]->params;
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].elem, ast::ScalarType::kI32);
  EXPECT_EQ(params[1].elem, ast::ScalarType::kF32);
  EXPECT_EQ(params[2].elem, ast::ScalarType::kF64);
  EXPECT_EQ(params[3].elem, ast::ScalarType::kI64);
}

TEST(Parser, PointerParam) {
  auto p = parse_ok("void f(const float *x) { }");
  const auto& prm = p.functions[0]->params[0];
  EXPECT_EQ(prm.decl_kind, ast::ArrayDeclKind::kPointer);
  EXPECT_TRUE(prm.is_const);
  EXPECT_EQ(prm.rank(), 1);
}

TEST(Parser, StaticArrayParam) {
  auto p = parse_ok("void f(float a[16][8]) { }");
  const auto& prm = p.functions[0]->params[0];
  EXPECT_EQ(prm.decl_kind, ast::ArrayDeclKind::kStatic);
  EXPECT_EQ(prm.rank(), 2);
}

TEST(Parser, VlaParam) {
  auto p = parse_ok("void f(int n, int m, float a[n][m+1]) { }");
  EXPECT_EQ(p.functions[0]->params[2].decl_kind, ast::ArrayDeclKind::kVla);
}

TEST(Parser, AllocatableParam) {
  auto p = parse_ok("void f(float a[?][?][?]) { }");
  const auto& prm = p.functions[0]->params[0];
  EXPECT_EQ(prm.decl_kind, ast::ArrayDeclKind::kAllocatable);
  EXPECT_EQ(prm.rank(), 3);
}

TEST(Parser, MixedAllocatableExtentsRejected) {
  parse_err("void f(int n, float a[?][n]) { }");
}

TEST(Parser, MultipleFunctions) {
  auto p = parse_ok("void f() { }\nvoid g() { }\n");
  EXPECT_EQ(p.functions.size(), 2u);
  EXPECT_NE(p.find("g"), nullptr);
  EXPECT_EQ(p.find("h"), nullptr);
}

// -- statements ------------------------------------------------------------------

TEST(Parser, CanonicalForVariants) {
  auto p = parse_ok(R"(
void f(int n, float *a) {
  for (i = 0; i < n; i++) { a[i] = 0.0f; }
  for (int j = n; j > 0; j--) { a[j] = 1.0f; }
  for (k = 0; k <= n; k += 4) { a[k] = 2.0f; }
  for (l = n; l >= 0; l -= 2) { a[l] = 3.0f; }
  for (m = 0; m < n; m = m + 3) { a[m] = 4.0f; }
})");
  const auto& body = p.functions[0]->body->stmts;
  ASSERT_EQ(body.size(), 5u);
  EXPECT_EQ(body[0]->as<ast::ForStmt>().step, 1);
  EXPECT_EQ(body[1]->as<ast::ForStmt>().step, -1);
  EXPECT_TRUE(body[1]->as<ast::ForStmt>().declares_iv);
  EXPECT_EQ(body[2]->as<ast::ForStmt>().step, 4);
  EXPECT_EQ(body[3]->as<ast::ForStmt>().step, -2);
  EXPECT_EQ(body[4]->as<ast::ForStmt>().step, 3);
}

TEST(Parser, NonCanonicalForRejected) {
  parse_err("void f(int n, float *a) { for (i = 0; i < n; i *= 2) { } }");
  parse_err("void f(int n, int m, float *a) { for (i = 0; j < n; i++) { } }");
  parse_err("void f(int n, float *a) { for (i = 0; i != n; i++) { } }");
}

TEST(Parser, ZeroStepRejected) {
  parse_err("void f(int n, float *a) { for (i = 0; i < n; i += 0) { } }");
}

TEST(Parser, IfElseChain) {
  auto p = parse_ok(R"(
void f(int n, float *a) {
  for (i = 0; i < n; i++) {
    if (i < 2) { a[i] = 0.0f; }
    else if (i < 5) { a[i] = 1.0f; }
    else { a[i] = 2.0f; }
  }
})");
  const auto& loop = p.functions[0]->body->stmts[0]->as<ast::ForStmt>();
  const auto& if_stmt = loop.body->stmts[0]->as<ast::IfStmt>();
  ASSERT_NE(if_stmt.else_block, nullptr);
  EXPECT_EQ(if_stmt.else_block->stmts[0]->kind, StmtKind::kIf);
}

TEST(Parser, CompoundAssignments) {
  auto p = parse_ok(R"(
void f(int n, float *a) {
  for (i = 0; i < n; i++) {
    a[i] += 1.0f;
    a[i] -= 2.0f;
    a[i] *= 3.0f;
    a[i] /= 4.0f;
  }
})");
  const auto& body = p.functions[0]->body->stmts[0]->as<ast::ForStmt>().body->stmts;
  EXPECT_EQ(body[0]->as<ast::AssignStmt>().op, ast::AssignOp::kAddAssign);
  EXPECT_EQ(body[3]->as<ast::AssignStmt>().op, ast::AssignOp::kDivAssign);
}

TEST(Parser, AssignToExpressionRejected) {
  parse_err("void f(int n) { n + 1 = 5; }");
}

// -- directives --------------------------------------------------------------------

ast::ForStmt& first_loop(ast::Program& p) {
  return p.functions[0]->body->stmts[0]->as<ast::ForStmt>();
}

TEST(ParserDirective, ParallelLoopGangVector) {
  auto p = parse_ok(R"(
void f(int n, float *a) {
  #pragma acc parallel loop gang(n/2) vector(128)
  for (i = 0; i < n; i++) { a[i] = 1.0f; }
})");
  auto& loop = first_loop(p);
  ASSERT_NE(loop.directive, nullptr);
  EXPECT_EQ(loop.directive->kind, ast::DirectiveKind::kParallelLoop);
  EXPECT_TRUE(loop.directive->has_gang);
  EXPECT_TRUE(loop.directive->has_vector);
  EXPECT_EQ(ast::to_source(*loop.directive->gang_size), "n / 2");
}

TEST(ParserDirective, KernelsAlias) {
  auto p = parse_ok(R"(
void f(int n, float *a) {
  #pragma acc kernels loop gang vector
  for (i = 0; i < n; i++) { a[i] = 1.0f; }
})");
  EXPECT_EQ(first_loop(p).directive->kind, ast::DirectiveKind::kKernelsLoop);
}

TEST(ParserDirective, SeqWorkerIndependentCollapse) {
  auto p = parse_ok(R"(
void f(int n, float *a) {
  #pragma acc parallel loop gang vector collapse(2) independent
  for (i = 0; i < n; i++) {
    for (j = 0; j < n; j++) { a[i] = 1.0f; }
  }
})");
  auto& d = *first_loop(p).directive;
  EXPECT_EQ(d.collapse, 2);
  EXPECT_TRUE(d.independent);
}

TEST(ParserDirective, DataClauses) {
  auto p = parse_ok(R"(
void f(int n, float *a, float *b) {
  #pragma acc parallel loop gang vector copyin(a) copyout(b) copy(a, b)
  for (i = 0; i < n; i++) { b[i] = a[i]; }
})");
  auto& d = *first_loop(p).directive;
  EXPECT_EQ(d.copyin, std::vector<std::string>{"a"});
  EXPECT_EQ(d.copy.size(), 2u);
}

TEST(ParserDirective, ReductionClause) {
  auto p = parse_ok(R"(
void f(int n, float *a, float *s) {
  #pragma acc parallel loop gang vector reduction(+:acc1) reduction(max:acc2)
  for (i = 0; i < n; i++) {
    float acc1 = 0.0f;
    float acc2 = 0.0f;
    s[0] += a[i];
  }
})");
  auto& d = *first_loop(p).directive;
  ASSERT_EQ(d.reductions.size(), 2u);
  EXPECT_EQ(d.reductions[0].op, ast::ReductionOp::kSum);
  EXPECT_EQ(d.reductions[1].op, ast::ReductionOp::kMax);
}

TEST(ParserDirective, DimClauseWithBounds) {
  auto p = parse_ok(R"(
void f(int nx, int ny, float a[?][?], float b[?][?]) {
  #pragma acc parallel loop gang vector dim((0:nx, 0:ny)(a, b))
  for (i = 0; i < nx; i++) { a[i][0] = b[i][0]; }
})");
  auto& d = *first_loop(p).directive;
  ASSERT_EQ(d.dim_groups.size(), 1u);
  EXPECT_EQ(d.dim_groups[0].bounds.size(), 2u);
  EXPECT_EQ(d.dim_groups[0].arrays, (std::vector<std::string>{"a", "b"}));
}

TEST(ParserDirective, DimClauseNamesOnly) {
  auto p = parse_ok(R"(
void f(int nx, float a[?][?], float b[?][?]) {
  #pragma acc parallel loop gang vector dim((a, b))
  for (i = 0; i < nx; i++) { a[i][0] = b[i][0]; }
})");
  auto& d = *first_loop(p).directive;
  ASSERT_EQ(d.dim_groups.size(), 1u);
  EXPECT_TRUE(d.dim_groups[0].bounds.empty());
}

TEST(ParserDirective, DimClauseMultipleGroups) {
  auto p = parse_ok(R"(
void f(int nx, float a[?][?], float b[?][?], float c[?], float d[?]) {
  #pragma acc parallel loop gang vector dim((a, b), (c, d))
  for (i = 0; i < nx; i++) { a[i][0] = b[i][0] + c[i] + d[i]; }
})");
  EXPECT_EQ(first_loop(p).directive->dim_groups.size(), 2u);
}

TEST(ParserDirective, SmallClause) {
  auto p = parse_ok(R"(
void f(int n, float *a, float *b) {
  #pragma acc parallel loop gang vector small(a, b)
  for (i = 0; i < n; i++) { b[i] = a[i]; }
})");
  EXPECT_EQ(first_loop(p).directive->small_arrays,
            (std::vector<std::string>{"a", "b"}));
}

TEST(ParserDirective, UnknownClauseIsError) {
  parse_err(R"(
void f(int n, float *a) {
  #pragma acc parallel loop gang vector turbo(9000)
  for (i = 0; i < n; i++) { a[i] = 1.0f; }
})");
}

TEST(ParserDirective, NonAccPragmaIsError) {
  parse_err(R"(
void f(int n, float *a) {
  #pragma omp parallel for
  for (i = 0; i < n; i++) { a[i] = 1.0f; }
})");
}

TEST(ParserDirective, DirectiveMustPrecedeFor) {
  parse_err(R"(
void f(int n, float *a) {
  #pragma acc parallel loop gang vector
  a[0] = 1.0f;
})");
}

TEST(ParserDirective, DimBoundsWithoutArraysIsError) {
  parse_err(R"(
void f(int nx, float a[?][?], float b[?][?]) {
  #pragma acc parallel loop gang vector dim((0:nx, 0:nx))
  for (i = 0; i < nx; i++) { a[i][0] = b[i][0]; }
})");
}

// -- the AST walk -------------------------------------------------------------

const char* kind_name(StmtKind k) {
  switch (k) {
    case StmtKind::kBlock: return "block";
    case StmtKind::kDecl: return "decl";
    case StmtKind::kAssign: return "assign";
    case StmtKind::kFor: return "for";
    case StmtKind::kIf: return "if";
    case StmtKind::kReturn: return "return";
  }
  return "?";
}

const ast::Expr& node(const ast::Expr& e) { return e; }
ast::Expr& node(ast::ExprPtr& slot) { return *slot; }

// Records every node the three walk templates hand out, and which one did.
// `E` and `S` are const or not; the templates keep that.
template <typename E>
void record_expr(E& e, const char* via, std::vector<std::string>& out) {
  out.push_back(via + ast::to_source(e));
  ast::for_each_operand(e, [&](auto& o) { record_expr(node(o), "operand ", out); });
}

template <typename S>
void record_stmt(S& s, std::vector<std::string>& out) {
  ast::for_each_expr(s, [&](auto& e) { record_expr(node(e), "expr ", out); });
  ast::for_each_child(s, [&](auto& c) {
    out.push_back(std::string("child ") + kind_name(c.kind));
    record_stmt(c, out);
  });
}

TEST(AstWalk, VisitsEveryNodeInSourceOrder) {
  auto p = parse_ok(R"(
void f(int n, float x, float *a) {
  float t;
  float u = -x;
  for (i = 0; i < n; i++) {
    if (i < 2) {
      a[i + 1] = float(i) * 2.5f;
    }
    if (x > u) {
      t = sqrt(a[i]);
    } else {
      return;
    }
  }
})");
  // Grouped by statement: the statement, then its expressions, each followed
  // by its operands.
  const std::vector<std::string> expected = {
      "child decl",
      "child decl", "expr -(x)", "operand x",
      "child for", "expr 0", "expr n",
      "child block",
      "child if", "expr i < 2", "operand i", "operand 2",
      "child block",
      "child assign", "expr a[i + 1]", "operand i + 1", "operand i", "operand 1",
      "expr float(i) * 2.5f", "operand float(i)", "operand i", "operand 2.5f",
      "child if", "expr x > u", "operand x", "operand u",
      "child block",
      "child assign", "expr t", "expr sqrt(a[i])", "operand a[i]", "operand i",
      "child block",
      "child return",
  };
  ast::BlockStmt& body = *p.functions[0]->body;
  std::vector<std::string> visited;
  record_stmt(std::as_const(body), visited);
  EXPECT_EQ(visited, expected);
  visited.clear();
  record_stmt(body, visited);
  EXPECT_EQ(visited, expected);
}

}  // namespace
}  // namespace safara::parse

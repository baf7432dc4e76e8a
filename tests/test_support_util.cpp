// Tests for the support layer (diagnostics, string utilities), device
// memory, and the host-side launch-expression evaluator.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "parse/parser.hpp"
#include "rt/host_eval.hpp"
#include "support/diagnostics.hpp"
#include "support/string_util.hpp"
#include "support/thread_pool.hpp"
#include "vgpu/memory.hpp"

namespace safara {
namespace {

// -- diagnostics ---------------------------------------------------------------

TEST(Diagnostics, CountsOnlyErrors) {
  DiagnosticEngine d;
  d.note({1, 1}, "note");
  d.warning({2, 1}, "warn");
  EXPECT_TRUE(d.ok());
  d.error({3, 1}, "err");
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.error_count(), 1u);
  EXPECT_EQ(d.diagnostics().size(), 3u);
}

TEST(Diagnostics, RenderIncludesLocationAndSeverity) {
  DiagnosticEngine d;
  d.error({12, 5}, "something bad");
  std::string text = d.render();
  EXPECT_NE(text.find("12:5"), std::string::npos);
  EXPECT_NE(text.find("error"), std::string::npos);
  EXPECT_NE(text.find("something bad"), std::string::npos);
}

TEST(Diagnostics, ClearResets) {
  DiagnosticEngine d;
  d.error({1, 1}, "x");
  d.clear();
  EXPECT_TRUE(d.ok());
  EXPECT_TRUE(d.diagnostics().empty());
}

TEST(Diagnostics, UnknownLocationRenders) {
  EXPECT_EQ(to_string(SourceLoc{}), "?:?");
  EXPECT_EQ(to_string(SourceLoc{3, 7}), "3:7");
}

// -- string utilities -------------------------------------------------------------

TEST(StringUtil, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
}

TEST(StringUtil, ParseIntStrict) {
  EXPECT_EQ(parse_int_strict("42"), 42);
  EXPECT_EQ(parse_int_strict("-7"), -7);
  EXPECT_EQ(parse_int_strict("0"), 0);
  EXPECT_EQ(parse_int_strict("+3"), 3);
  // atoi would accept all of these; the strict parser must not.
  EXPECT_EQ(parse_int_strict(""), std::nullopt);
  EXPECT_EQ(parse_int_strict(" 42"), std::nullopt);
  EXPECT_EQ(parse_int_strict("42 "), std::nullopt);
  EXPECT_EQ(parse_int_strict("42x"), std::nullopt);
  EXPECT_EQ(parse_int_strict("x42"), std::nullopt);
  EXPECT_EQ(parse_int_strict("-"), std::nullopt);
  EXPECT_EQ(parse_int_strict("99999999999999999999"), std::nullopt);  // overflow
}

// -- device memory ----------------------------------------------------------------

TEST(DeviceMemory, AllocationsAreAlignedAndDisjoint) {
  vgpu::DeviceMemory mem;
  std::uint64_t a = mem.allocate(100);
  std::uint64_t b = mem.allocate(100);
  EXPECT_GE(a, vgpu::DeviceMemory::kBase);
  EXPECT_EQ(a % 256, vgpu::DeviceMemory::kBase % 256);
  EXPECT_GE(b, a + 100);
}

TEST(DeviceMemory, LoadStoreRoundTrip) {
  vgpu::DeviceMemory mem;
  std::uint64_t a = mem.allocate(64);
  mem.store<double>(a, 3.5);
  EXPECT_DOUBLE_EQ(mem.load<double>(a), 3.5);
  mem.store<std::int32_t>(a + 8, -42);
  EXPECT_EQ(mem.load<std::int32_t>(a + 8), -42);
}

TEST(DeviceMemory, NullAndOutOfBoundsThrow) {
  vgpu::DeviceMemory mem;
  std::uint64_t a = mem.allocate(16);
  EXPECT_THROW(mem.load<float>(0), std::runtime_error);  // null pointer
  EXPECT_THROW(mem.load<double>(a + 16), std::runtime_error);
}

TEST(DeviceMemory, CapacityEnforced) {
  vgpu::DeviceMemory mem(1024);
  mem.allocate(512);
  EXPECT_THROW(mem.allocate(4096), std::runtime_error);
}

TEST(DeviceMemory, CopyInOut) {
  vgpu::DeviceMemory mem;
  std::uint64_t a = mem.allocate(16);
  float src[4] = {1, 2, 3, 4};
  float dst[4] = {};
  mem.copy_in(a, src, sizeof src);
  mem.copy_out(a, dst, sizeof dst);
  EXPECT_EQ(dst[3], 4.0f);
}

// -- host expression evaluator -------------------------------------------------------

rt::ArgMap args_nm(int n, int m) {
  rt::ArgMap args;
  args.emplace("n", rt::ScalarValue::of_i32(n));
  args.emplace("m", rt::ScalarValue::of_i32(m));
  return args;
}

std::int64_t eval(const std::string& expr, const rt::ArgMap& args) {
  DiagnosticEngine diags;
  std::string src = "void f(int n, int m, int *o) { for(i=0;i<1;i++){ o[0] = " + expr +
                    "; } }";
  ast::Program p = parse::parse_source(src, diags);
  EXPECT_TRUE(diags.ok()) << diags.render();
  const auto& loop = p.functions[0]->body->stmts[0]->as<ast::ForStmt>();
  const auto& assign = loop.body->stmts[0]->as<ast::AssignStmt>();
  return rt::eval_int(*assign.rhs, args);
}

TEST(HostEval, Arithmetic) {
  auto args = args_nm(10, 3);
  EXPECT_EQ(eval("n + m * 2", args), 16);
  EXPECT_EQ(eval("(n + 63) / 64", args), 1);
  EXPECT_EQ(eval("n % m", args), 1);
  EXPECT_EQ(eval("-n", args), -10);
}

TEST(HostEval, ComparisonsAndLogic) {
  auto args = args_nm(10, 3);
  EXPECT_EQ(eval("n > m && m > 0", args), 1);
  EXPECT_EQ(eval("n < m || m == 3", args), 1);
  EXPECT_EQ(eval("!(n == 10)", args), 0);
}

TEST(HostEval, MinMaxAbs) {
  auto args = args_nm(10, 3);
  EXPECT_EQ(eval("min(n, m)", args), 3);
  EXPECT_EQ(eval("max(n, m)", args), 10);
  EXPECT_EQ(eval("abs(m - n)", args), 7);
}

TEST(HostEval, DivisionByZeroIsZero) {
  auto args = args_nm(10, 0);
  EXPECT_EQ(eval("n / m", args), 0);
}

TEST(HostEval, MissingScalarThrows) {
  rt::ArgMap args;
  args.emplace("n", rt::ScalarValue::of_i32(1));
  EXPECT_THROW(eval("n + m", args), std::runtime_error);
}

// -- thread pool ---------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  support::ThreadPool pool(3);
  for (int n : {0, 1, 7, 1000}) {
    std::vector<std::atomic<int>> seen(static_cast<std::size_t>(n));
    pool.parallel_for(4, n, [&](std::int64_t i) {
      seen[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPool, SingleParticipantRunsInline) {
  // max_participants == 1 must not touch the workers: results are produced
  // on the calling thread, in index order.
  support::ThreadPool pool(3);
  std::vector<std::int64_t> order;
  pool.parallel_for(1, 5, [&](std::int64_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, LowestIndexExceptionWinsAndPoolSurvives) {
  support::ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    try {
      pool.parallel_for(4, 100, [&](std::int64_t i) {
        if (i == 13 || i == 60) throw std::runtime_error("boom " + std::to_string(i));
      });
      FAIL() << "expected the exception to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 13");
    }
    // The pool must stay usable after a throwing job.
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(4, 10, [&](std::int64_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 45);
  }
}

}  // namespace
}  // namespace safara

// Host-runtime tests: launch-configuration derivation, parameter
// marshalling (dope vectors, type punning), and error reporting.
#include <gtest/gtest.h>

#include "rt/runtime.hpp"
#include "tests_common.hpp"

namespace safara::test {
namespace {

driver::CompiledProgram compile(const std::string& src,
                                driver::CompilerOptions opts = {}) {
  driver::Compiler compiler(opts);
  return compiler.compile(src);
}

TEST(Runtime, ConfigureUsesClauses) {
  auto prog = compile(R"(
void f(int n, int m, const float a[n][m], float b[n][m]) {
  #pragma acc parallel loop gang(n/2) vector(2)
  for (j = 0; j < n; j++) {
    #pragma acc loop gang((m+63)/64) vector(64)
    for (i = 0; i < m; i++) { b[j][i] = a[j][i]; }
  }
})");
  rt::Device dev;
  rt::Runtime runtime(dev);
  rt::ArgMap args;
  args.emplace("n", rt::ScalarValue::of_i32(32));
  args.emplace("m", rt::ScalarValue::of_i32(200));
  vgpu::LaunchConfig cfg = runtime.configure(prog.kernels[0].plan, args);
  EXPECT_EQ(cfg.block[0], 64);
  EXPECT_EQ(cfg.grid[0], (200 + 63) / 64);
  EXPECT_EQ(cfg.block[1], 2);
  EXPECT_EQ(cfg.grid[1], 16);
}

TEST(Runtime, ConfigureDefaultsWithoutClauses) {
  auto prog = compile(R"(
void f(int n, float *x) {
  #pragma acc parallel loop gang vector
  for (i = 0; i < n; i++) { x[i] = 1.0f; }
})");
  rt::Device dev;
  rt::Runtime runtime(dev);
  rt::ArgMap args;
  args.emplace("n", rt::ScalarValue::of_i32(1000));
  vgpu::LaunchConfig cfg = runtime.configure(prog.kernels[0].plan, args);
  EXPECT_EQ(cfg.block[0], codegen::LaunchPlan::kDefaultVectorLen);
  EXPECT_EQ(cfg.grid[0], (1000 + cfg.block[0] - 1) / cfg.block[0]);
}

TEST(Runtime, BlockSizeClampedTo1024) {
  auto prog = compile(R"(
void f(int n, float *x) {
  #pragma acc parallel loop gang vector(4096)
  for (i = 0; i < n; i++) { x[i] = 1.0f; }
})");
  rt::Device dev;
  rt::Runtime runtime(dev);
  rt::ArgMap args;
  args.emplace("n", rt::ScalarValue::of_i32(8192));
  vgpu::LaunchConfig cfg = runtime.configure(prog.kernels[0].plan, args);
  EXPECT_LE(cfg.threads_per_block(), 1024);
}

TEST(Runtime, MissingArgumentThrows) {
  auto prog = compile(R"(
void f(int n, float *x) {
  #pragma acc parallel loop gang vector
  for (i = 0; i < n; i++) { x[i] = 1.0f; }
})");
  rt::Device dev;
  rt::Runtime runtime(dev);
  rt::Buffer x = runtime.alloc(ast::ScalarType::kF32, {{0, 16}});
  rt::ArgMap args;
  args.emplace("x", &x);  // `n` missing
  EXPECT_THROW(
      runtime.launch(prog.kernels[0].kernel, prog.kernels[0].alloc,
                     prog.kernels[0].plan, args),
      std::runtime_error);
}

TEST(Runtime, BufferPassedAsScalarThrows) {
  auto prog = compile(R"(
void f(int n, float *x) {
  #pragma acc parallel loop gang vector
  for (i = 0; i < n; i++) { x[i] = float(n); }
})");
  rt::Device dev;
  rt::Runtime runtime(dev);
  rt::Buffer x = runtime.alloc(ast::ScalarType::kF32, {{0, 16}});
  rt::ArgMap args;
  args.emplace("n", &x);  // wrong kind
  args.emplace("x", &x);
  EXPECT_THROW(
      runtime.launch(prog.kernels[0].kernel, prog.kernels[0].alloc,
                     prog.kernels[0].plan, args),
      std::runtime_error);
}

TEST(Runtime, DopeVectorMarshalling) {
  // Allocatable with nonzero lower bounds: the kernel must read the right
  // elements via the runtime-provided dope values.
  const char* src = R"(
void f(int n, const float a[?], float b[?]) {
  #pragma acc parallel loop gang vector(64)
  for (i = 5; i < n + 5; i++) {
    b[i] = a[i] * 2.0f;
  }
})";
  auto prog = compile(src);
  rt::Device dev;
  rt::Runtime runtime(dev);
  // Buffers with lower bound 5.
  rt::Buffer a = runtime.alloc(ast::ScalarType::kF32, {{5, 16}});
  rt::Buffer b = runtime.alloc(ast::ScalarType::kF32, {{5, 16}});
  std::vector<float> host(16);
  for (int i = 0; i < 16; ++i) host[static_cast<std::size_t>(i)] = float(i);
  runtime.copy_in<float>(a, host);
  rt::ArgMap args;
  args.emplace("n", rt::ScalarValue::of_i32(16));
  args.emplace("a", &a);
  args.emplace("b", &b);
  runtime.launch(prog.kernels[0].kernel, prog.kernels[0].alloc, prog.kernels[0].plan,
                 args);
  std::vector<float> out(16);
  runtime.copy_out<float>(b, out);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(i)], 2.0f * float(i));
  }
}

TEST(Runtime, ScalarTypePunning) {
  const char* src = R"(
void f(int n, float ff, double dd, long ll, float *out) {
  #pragma acc parallel loop gang vector(32)
  for (i = 0; i < n; i++) {
    out[i] = ff + float(dd) + float(ll);
  }
})";
  auto prog = compile(src);
  rt::Device dev;
  rt::Runtime runtime(dev);
  rt::Buffer out = runtime.alloc(ast::ScalarType::kF32, {{0, 8}});
  rt::ArgMap args;
  args.emplace("n", rt::ScalarValue::of_i32(8));
  args.emplace("ff", rt::ScalarValue::of_f32(1.5f));
  args.emplace("dd", rt::ScalarValue::of_f64(2.25));
  args.emplace("ll", rt::ScalarValue::of_i64(3));
  args.emplace("out", &out);
  runtime.launch(prog.kernels[0].kernel, prog.kernels[0].alloc, prog.kernels[0].plan,
                 args);
  std::vector<float> host(8);
  runtime.copy_out<float>(out, host);
  EXPECT_FLOAT_EQ(host[0], 1.5f + 2.25f + 3.0f);
}

TEST(Runtime, DeviceMemoryExhaustionThrows) {
  rt::Device dev;
  rt::Runtime runtime(dev);
  EXPECT_THROW(runtime.alloc(ast::ScalarType::kF64, {{0, 1'000'000'000}}),
               std::runtime_error);
}

TEST(Runtime, MultiKernelProgramRunsInOrder) {
  const char* src = R"(
void f(int n, float *x) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) { x[i] = 1.0f; }
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) { x[i] = x[i] + 2.0f; }
})";
  workloads::Dataset data;
  data.arrays.emplace("x", f32_array({{0, 128}}));
  data.scalars.emplace("n", rt::ScalarValue::of_i32(128));
  auto prog = compile(src);
  ASSERT_EQ(prog.kernels.size(), 2u);
  workloads::run(prog, data);
  for (int i = 0; i < 128; ++i) {
    EXPECT_FLOAT_EQ(static_cast<float>(data.array("x").get(i)), 3.0f);
  }
}

}  // namespace
}  // namespace safara::test

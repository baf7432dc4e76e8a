// Shared helpers for the test suite: compile ACC-C, run on the simulator,
// run the CPU reference, and compare.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "driver/compiler.hpp"
#include "driver/reference.hpp"
#include "obs/collector.hpp"
#include "parse/parser.hpp"
#include "rt/runtime.hpp"

namespace safara::test {

/// Host-side data for one run: named arrays + named scalars.
struct Data {
  std::map<std::string, driver::HostArray> arrays;
  std::map<std::string, rt::ScalarValue> scalars;

  driver::HostArray& array(const std::string& name) { return arrays.at(name); }

  Data clone() const { return *this; }
};

inline driver::RefArgMap ref_args(Data& d) {
  driver::RefArgMap args;
  for (auto& [name, arr] : d.arrays) args.emplace(name, &arr);
  for (auto& [name, sv] : d.scalars) args.emplace(name, sv);
  return args;
}

/// Runs every kernel of `prog` once under `sim`, with `data` arrays living on
/// the simulated device; results are copied back into `data`.
inline std::vector<vgpu::LaunchStats> run_sim(const driver::CompiledProgram& prog,
                                              Data& data,
                                              vgpu::DeviceSpec spec = vgpu::DeviceSpec::k20xm(),
                                              obs::Collector* collector = nullptr,
                                              const vgpu::SimOptions& sim = {}) {
  rt::Device dev(spec);
  rt::Runtime runtime(dev, sim);
  std::map<std::string, rt::Buffer> buffers;
  rt::ArgMap args;
  for (auto& [name, arr] : data.arrays) {
    rt::Buffer buf = runtime.alloc(arr.elem, arr.dims);
    dev.memory().copy_in(buf.device_addr, arr.data.data(), arr.data.size());
    buffers.emplace(name, buf);
  }
  for (auto& [name, buf] : buffers) args.emplace(name, &buf);
  for (auto& [name, sv] : data.scalars) args.emplace(name, sv);

  std::vector<vgpu::LaunchStats> stats;
  for (const driver::CompiledKernel& k : prog.kernels) {
    stats.push_back(runtime.launch(k.kernel, k.alloc, k.plan, args, collector));
  }
  for (auto& [name, arr] : data.arrays) {
    dev.memory().copy_out(buffers.at(name).device_addr, arr.data.data(), arr.data.size());
  }
  return stats;
}

/// Element-wise comparison of an array across two datasets.
inline void expect_arrays_near(const driver::HostArray& a, const driver::HostArray& b,
                               double rel_tol, const std::string& label) {
  ASSERT_EQ(a.element_count(), b.element_count()) << label;
  for (std::int64_t i = 0; i < a.element_count(); ++i) {
    double x = a.get(i);
    double y = b.get(i);
    double denom = std::max({std::fabs(x), std::fabs(y), 1e-30});
    ASSERT_LE(std::fabs(x - y) / denom, rel_tol)
        << label << " differs at linear index " << i << ": " << x << " vs " << y;
  }
}

/// Compiles with `opts`, runs on the simulator, and checks every array in
/// `data` against the sequential reference. Returns the simulator stats.
inline std::vector<vgpu::LaunchStats> check_against_reference(
    const std::string& source, const driver::CompilerOptions& opts, const Data& data,
    double rel_tol = 1e-6) {
  driver::Compiler compiler(opts);
  driver::CompiledProgram prog = compiler.compile(source);

  Data sim_data = data.clone();
  auto stats = run_sim(prog, sim_data);

  Data ref_data = data.clone();
  {
    DiagnosticEngine diags;
    ast::Program program = parse::parse_source(source, diags);
    if (!diags.ok()) throw CompileError(diags.render());
    driver::RefArgMap args = ref_args(ref_data);
    driver::run_reference(*program.functions.front(), args);
  }

  for (auto& [name, arr] : sim_data.arrays) {
    expect_arrays_near(arr, ref_data.arrays.at(name), rel_tol, name);
  }
  return stats;
}

/// Convenience constructors.
inline driver::HostArray f32_array(std::vector<rt::Dim> dims) {
  return driver::HostArray::make(ast::ScalarType::kF32, std::move(dims));
}
inline driver::HostArray f64_array(std::vector<rt::Dim> dims) {
  return driver::HostArray::make(ast::ScalarType::kF64, std::move(dims));
}
inline driver::HostArray i32_array(std::vector<rt::Dim> dims) {
  return driver::HostArray::make(ast::ScalarType::kI32, std::move(dims));
}

/// Deterministic pseudo-random fill (xorshift; no <random> jitter across
/// platforms).
inline void fill_pattern(driver::HostArray& arr, std::uint64_t seed = 12345) {
  std::uint64_t s = seed * 2654435761u + 1;
  for (std::int64_t i = 0; i < arr.element_count(); ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    double v = 0.25 + static_cast<double>(s % 1000) / 1000.0;
    if (ast::is_float(arr.elem)) {
      arr.set(i, v);
    } else {
      arr.set_int(i, static_cast<std::int64_t>(s % 97));
    }
  }
}

}  // namespace safara::test

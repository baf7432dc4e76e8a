// The mini OpenACC host runtime: owns a simulated device, allocates device
// buffers, moves data, computes launch configurations from compiled launch
// plans, marshals kernel parameters (including dope vectors), and launches
// kernels on the simulator.
#pragma once

#include <span>
#include <vector>

#include "codegen/codegen.hpp"
#include "obs/collector.hpp"
#include "regalloc/regalloc.hpp"
#include "rt/args.hpp"
#include "rt/buffer.hpp"
#include "vgpu/device.hpp"
#include "vgpu/memory.hpp"
#include "vgpu/sim.hpp"

namespace safara::rt {

/// A simulated accelerator: device model + global memory.
class Device {
 public:
  explicit Device(vgpu::DeviceSpec spec = vgpu::DeviceSpec::k20xm())
      : spec_(spec) {}

  const vgpu::DeviceSpec& spec() const { return spec_; }
  vgpu::DeviceMemory& memory() { return mem_; }

 private:
  vgpu::DeviceSpec spec_;
  vgpu::DeviceMemory mem_;
};

class Runtime {
 public:
  /// Every launch() simulates under `sim`.
  explicit Runtime(Device& dev, vgpu::SimOptions sim = {}) : dev_(dev), sim_(sim) {}

  /// Allocates a device array. `dims` are outermost-first, matching the
  /// declaration order in ACC-C (`a[d0][d1][d2]`).
  Buffer alloc(ast::ScalarType elem, std::vector<Dim> dims);

  template <typename T>
  void copy_in(Buffer& buf, std::span<const T> host) {
    dev_.memory().copy_in(buf.device_addr, host.data(), host.size_bytes());
  }
  template <typename T>
  void copy_out(const Buffer& buf, std::span<T> host) {
    dev_.memory().copy_out(buf.device_addr, host.data(), host.size_bytes());
  }

  /// Derives the launch configuration from a compiled launch plan.
  vgpu::LaunchConfig configure(const codegen::LaunchPlan& plan, const ArgMap& args) const;

  /// Marshals kernel parameters and launches on the simulator. A non-null
  /// `collector` receives the launch's trace span and simulator profile.
  vgpu::LaunchStats launch(const vir::Kernel& kernel,
                           const regalloc::AllocationResult& alloc,
                           const codegen::LaunchPlan& plan, const ArgMap& args,
                           obs::Collector* collector = nullptr);

  Device& device() { return dev_; }

 private:
  std::vector<std::uint64_t> marshal_params(const vir::Kernel& kernel,
                                            const ArgMap& args) const;

  Device& dev_;
  vgpu::SimOptions sim_;
};

}  // namespace safara::rt

// Simulated device global memory: a flat, bounds-checked byte arena.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace safara::vgpu {

class DeviceMemory {
 public:
  /// Device addresses start at a nonzero base so that address 0 is always an
  /// invalid (null) pointer, as on real hardware.
  static constexpr std::uint64_t kBase = 0x1000;

  explicit DeviceMemory(std::size_t capacity_bytes = 256 << 20)
      : capacity_(capacity_bytes) {}

  /// Allocates `bytes` with 256-byte alignment; returns the device address.
  std::uint64_t allocate(std::size_t bytes) {
    std::size_t aligned = (top_ + 255) & ~std::size_t{255};
    if (aligned + bytes > capacity_) {
      throw std::runtime_error("DeviceMemory: out of simulated device memory");
    }
    if (aligned + bytes > storage_.size()) storage_.resize(aligned + bytes);
    top_ = aligned + bytes;
    return kBase + aligned;
  }

  void reset() {
    storage_.clear();
    top_ = 0;
  }

  template <typename T>
  T load(std::uint64_t addr) const {
    check(addr, sizeof(T));
    T v;
    std::memcpy(&v, storage_.data() + (addr - kBase), sizeof(T));
    return v;
  }

  template <typename T>
  void store(std::uint64_t addr, T v) {
    check(addr, sizeof(T));
    std::memcpy(storage_.data() + (addr - kBase), &v, sizeof(T));
  }

  void copy_in(std::uint64_t addr, const void* src, std::size_t bytes) {
    check(addr, bytes);
    std::memcpy(storage_.data() + (addr - kBase), src, bytes);
  }

  void copy_out(std::uint64_t addr, void* dst, std::size_t bytes) const {
    check(addr, bytes);
    std::memcpy(dst, storage_.data() + (addr - kBase), bytes);
  }

 private:
  void check(std::uint64_t addr, std::size_t bytes) const {
    if (addr < kBase || addr - kBase + bytes > storage_.size()) {
      throw std::runtime_error("DeviceMemory: out-of-bounds access at address " +
                               std::to_string(addr));
    }
  }

  std::vector<std::uint8_t> storage_;
  std::size_t top_ = 0;
  std::size_t capacity_;
};

}  // namespace safara::vgpu

// RegDem: post-allocation register demotion to shared memory.
//
// Both allocators lay out every spill slot in L1-cached local memory. This
// pass runs afterwards and redirects the hottest slots to the SM's shared
// memory instead — a much cheaper backing store (vgpu::LatencyModel::
// shared_mem vs local_mem), but one that draws on a per-block budget that
// competes with occupancy. Slots are ranked by static access weight
// (accesses x 10^loop_depth, the coloring allocator's spill cost) and
// demoted hottest-first; each admission re-runs vgpu::compute_occupancy
// with the candidate per-block shared footprint and stops as soon as the
// footprint would lower the kernel's resident-block count (SpillMem::kAuto)
// or make it unlaunchable (SpillMem::kShared, which otherwise demotes
// everything).
//
// The pass mutates the AllocationResult in place: demoted slots move into a
// warp-interleaved shared frame (lane l of a slot at byte
// slot_offset*warp_size + l*size, so 4-byte types are bank-conflict-free
// and 8-byte types serialize 2-way on 32x4B banks), the surviving local
// frame is re-packed at natural alignment, and the per-vreg/per-range
// `in_shared` provenance plus `shared_spill_{bytes,slots}` totals are
// filled in for the simulator, `--annotate`, and the metrics sink.
#pragma once

#include "regalloc/regalloc.hpp"
#include "vgpu/device.hpp"

namespace safara::regalloc {

struct RegDemReport {
  int demoted_slots = 0;
  int demoted_bytes = 0;  // per-thread shared frame size
  int candidate_slots = 0;
  /// Per-block shared-memory footprint the demotion commits the launch to
  /// (demoted_bytes x threads_per_block, before granularity rounding).
  std::int64_t shared_bytes_per_block = 0;
};

/// Runs RegDem on `alloc` (a no-op under SpillMem::kLocal or when nothing
/// spilled). `threads_per_block` is the block size the occupancy admission
/// check assumes — the driver passes the compile-time default vector length.
RegDemReport demote_spill_slots(const vir::Kernel& kernel,
                                AllocationResult& alloc,
                                const AllocatorOptions& opts,
                                const vgpu::DeviceSpec& spec,
                                int threads_per_block);

}  // namespace safara::regalloc

#include "regalloc/regdem.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "vgpu/occupancy.hpp"

namespace safara::regalloc {

using vir::Instr;
using vir::Kernel;
using vir::VType;

RegDemReport demote_spill_slots(const Kernel& kernel, AllocationResult& alloc,
                                const AllocatorOptions& opts,
                                const vgpu::DeviceSpec& spec,
                                int threads_per_block) {
  RegDemReport report;
  if (opts.spill_mem == SpillMem::kLocal || !alloc.any_spills()) return report;

  const std::uint32_t nv = kernel.num_vregs();
  auto is_remat = [&](std::uint32_t v) {
    return v < alloc.remat.size() && alloc.remat[v];
  };

  // Candidates: every spilled vreg that actually touches memory
  // (rematerialized vregs own a slot but never load from it, so moving the
  // slot buys nothing and would burn shared budget).
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t v = 0; v < nv; ++v) {
    if (v < alloc.spilled.size() && alloc.spilled[v] && !is_remat(v)) {
      candidates.push_back(v);
    }
  }
  report.candidate_slots = static_cast<int>(candidates.size());
  if (candidates.empty()) return report;

  // Access weight per vreg: accesses x 10^loop_depth — the same notion of
  // "hot" the coloring allocator spills by, so RegDem preferentially rescues
  // exactly the slots the allocator was most reluctant to create.
  const std::vector<int> depth = instruction_loop_depth(kernel);
  std::vector<double> weight(nv, 0.0);
  const std::int32_t n = static_cast<std::int32_t>(kernel.code.size());
  for (std::int32_t i = 0; i < n; ++i) {
    const Instr& in = kernel.code[static_cast<std::size_t>(i)];
    const double mult = std::pow(10.0, depth[static_cast<std::size_t>(i)]);
    auto touch = [&](std::uint32_t v) {
      if (v < nv) weight[v] += mult;
    };
    if (vir::has_dst(in.op) && in.dst != vir::kNoReg) touch(in.dst);
    vir::for_each_use(in, touch);
  }

  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     if (weight[a] != weight[b]) return weight[a] > weight[b];
                     return a < b;
                   });

  // Hottest-first admission: each demotion re-runs the occupancy calculation
  // with the tentative per-block shared footprint and the pass stops at the
  // first slot that would lower the resident-block count below the
  // no-shared baseline.
  const int floor_blocks =
      vgpu::compute_occupancy(spec, alloc.regs_used, threads_per_block, 0).blocks_per_sm;

  std::vector<char> demote(nv, 0);
  std::vector<int> shared_slot(nv, -1);
  int shared_frame = 0;
  for (std::uint32_t v : candidates) {
    const int size = vir::size_of(kernel.vreg_types[v]);
    const int aligned = (shared_frame + size - 1) / size * size;
    const std::int64_t per_block =
        static_cast<std::int64_t>(aligned + size) * threads_per_block;
    const vgpu::Occupancy occ =
        vgpu::compute_occupancy(spec, alloc.regs_used, threads_per_block, per_block);
    if (occ.blocks_per_sm < floor_blocks) break;
    demote[v] = 1;
    shared_slot[v] = aligned;
    shared_frame = aligned + size;
    ++report.demoted_slots;
  }
  if (report.demoted_slots == 0) return report;
  report.demoted_bytes = shared_frame;
  report.shared_bytes_per_block =
      static_cast<std::int64_t>(shared_frame) * threads_per_block;

  // Re-pack the surviving local frame (iterating ranges in the allocator's
  // slot order keeps the layout stable) and rewrite each spilled range's
  // provenance to its new home.
  std::vector<LiveRange*> spilled_ranges;
  for (LiveRange& r : alloc.ranges) {
    if (r.first_unit < 0 && r.spill_slot >= 0) spilled_ranges.push_back(&r);
  }
  std::stable_sort(spilled_ranges.begin(), spilled_ranges.end(),
                   [](const LiveRange* a, const LiveRange* b) {
                     return a->spill_slot < b->spill_slot;
                   });
  alloc.in_shared.assign(nv, false);
  AllocationResult local_frame;  // only spill_bytes is used: the re-pack cursor
  std::vector<int> local_slot(nv, -1);
  for (LiveRange* r : spilled_ranges) {
    const std::uint32_t v = r->vreg;
    if (demote[v]) {
      r->in_shared = true;
      r->spill_slot = shared_slot[v];
      alloc.in_shared[v] = true;
      continue;
    }
    // A vreg can own several range records; reserve its local slot once.
    if (local_slot[v] < 0) {
      local_slot[v] = reserve_spill_slot(local_frame, kernel.vreg_types[v]);
    }
    r->spill_slot = local_slot[v];
  }
  alloc.spill_bytes = local_frame.spill_bytes;
  alloc.shared_spill_bytes = shared_frame;
  alloc.shared_spill_slots = report.demoted_slots;
  return report;
}

}  // namespace safara::regalloc

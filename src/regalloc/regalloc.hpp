// ptxas-sim: the register-allocation stage that plays the role of NVIDIA's
// closed-source PTX assembler in the paper's feedback loop.
//
// Two allocators share this interface: the default Chaitin–Briggs
// graph-coloring allocator (color.cpp — precise per-point liveness, live
// ranges split into continuous segments, iterated copy coalescing, and
// rematerialization of cheap recomputable values instead of reloading them),
// and the original linear scan over hole-free intervals (kept as a
// differential-testing reference behind `--regalloc linear`). Both run
// against a bank of 32-bit hardware registers (64-bit values occupy an
// aligned pair). Their outputs are the signals SAFARA consumes: the hardware
// register count and spill traffic, formatted like `ptxas -v` output. The
// allocation is also consumed by the GPU simulator, which charges
// local-memory latency to accesses of spilled virtual registers (ALU
// latency for rematerialized ones) and feeds the register count into the
// occupancy calculation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "vir/vir.hpp"

namespace safara::regalloc {

/// Provenance record for one allocated (or spilled) live range: which vreg —
/// and through `Kernel::vreg_names`, which source variable — occupied which
/// physical register units over which instruction range, or which spill slot
/// it was demoted to. This is the per-live-range attribution RegDem-style
/// spill-slot selection and `safcc --annotate` consume.
struct LiveRange {
  std::uint32_t vreg = 0;
  std::int32_t start = 0;  // first instruction index of the interval
  std::int32_t end = 0;    // last instruction index (inclusive)
  /// First 32-bit register unit, or -1 when the range lives in a spill slot.
  int first_unit = -1;
  int units = 0;
  /// Byte offset of the spill slot (-1 when in a register). Slots are
  /// naturally aligned for the vreg's type within the per-thread frame.
  int spill_slot = -1;
  /// True when the RegDem pass redirected this range's spill slot to shared
  /// memory (spill_slot then offsets into the shared frame, not local).
  bool in_shared = false;

  bool operator==(const LiveRange&) const = default;
};

struct AllocationResult {
  /// High-water mark of simultaneously live 32-bit registers (the number
  /// `ptxas -v` reports). Includes both halves of 64-bit values.
  int regs_used = 0;
  /// Peak simultaneously live predicate registers (separate file).
  int pred_regs_used = 0;
  /// Per-vreg: true if this virtual register was spilled to memory.
  std::vector<bool> spilled;
  /// Per-vreg (parallel to `spilled`; empty until RegDem runs): true when
  /// the spill slot lives in shared memory rather than L1-cached local.
  std::vector<bool> in_shared;
  /// Total local-memory bytes reserved for spill slots (each slot naturally
  /// aligned; this is the aligned frame size). After RegDem, slots demoted
  /// to shared memory are re-packed out of this into `shared_spill_bytes`.
  int spill_bytes = 0;
  /// Per-thread bytes of spill slots RegDem moved to shared memory, and how
  /// many slots those are (0 until the pass runs / when it moves nothing).
  int shared_spill_bytes = 0;
  int shared_spill_slots = 0;
  /// Static number of loads/stores the spills introduce.
  int spill_loads = 0;
  int spill_stores = 0;
  /// Per-vreg (parallel to `spilled`, may be empty for the linear allocator):
  /// true when the spilled value is rematerialized — recomputed by one cheap
  /// pure instruction at each use instead of reloaded from local memory. A
  /// rematerialized vreg still counts as spilled (it owns no register and
  /// its slot is still reserved); only the simulator's latency model and the
  /// `regalloc.remat` metric distinguish it.
  std::vector<bool> remat;
  /// One provenance record per non-predicate live range segment, in start
  /// order. Purely observational: nothing downstream of the allocator keys
  /// off it except reporting.
  std::vector<LiveRange> ranges;
  /// Coloring-allocator statistics (zero under linear scan except `spills`
  /// and `iterations`), surfaced as `regalloc.*` metrics.
  int coalesced = 0;     // copy-related live ranges merged
  int split_ranges = 0;  // extra segments beyond one per live vreg
  int remat_count = 0;   // spilled vregs served by rematerialization
  int spills = 0;        // vregs demoted to local memory
  int iterations = 0;    // build/simplify/select rounds until colorable

  bool any_spills() const { return spill_bytes > 0; }

  /// "ptxas info    : Used 26 registers, 0 bytes spill stores, ..." — the
  /// static feedback line SAFARA parses conceptually.
  std::string ptxas_info(const std::string& kernel_name) const;

  bool operator==(const AllocationResult&) const = default;
};

enum class Strategy : std::uint8_t {
  kLinear = 0,  // Poletto–Sarkar linear scan (the reference allocator)
  kColor = 1,   // Chaitin–Briggs graph coloring (default)
};

const char* to_string(Strategy s);
bool parse_strategy(std::string_view text, Strategy& out);

/// Where spilled values live (src/regalloc/regdem.hpp implements the pass).
enum class SpillMem : std::uint8_t {
  kLocal = 0,  // every spill slot in L1-cached local memory (pre-RegDem)
  kAuto = 1,   // demote hottest-first while occupancy is preserved (RegDem)
};

const char* to_string(SpillMem m);
bool parse_spill_mem(std::string_view text, SpillMem& out);

struct AllocatorOptions {
  /// Hardware limit per thread (255 on Kepler). Lowering it models
  /// __launch_bounds__-style pressure and forces spilling.
  int max_registers = 255;
  Strategy strategy = Strategy::kColor;
  /// Spill backing store; anything but kLocal arms the post-allocation
  /// RegDem pass in the driver (the allocators themselves always lay out a
  /// local frame — RegDem rewrites the placement afterwards).
  SpillMem spill_mem = SpillMem::kLocal;
};

/// Approximate loop depth per instruction (every backward branch nests the
/// span it jumps over one level deeper, capped at 6). The coloring
/// allocator's spill-cost weighting and RegDem's slot ranking share it so
/// "hot" means the same thing in both places.
std::vector<int> instruction_loop_depth(const vir::Kernel& k);

/// Reserves a spill slot for `type` in the local frame at the type's natural
/// alignment, growing `result.spill_bytes` to the aligned total, and returns
/// the slot's byte offset. Shared by both allocators (and by RegDem when it
/// re-packs the frame), so every layout rounds identically.
int reserve_spill_slot(AllocationResult& result, vir::VType type);

/// Dispatches on `opts.strategy`.
AllocationResult allocate(const vir::Kernel& kernel, const AllocatorOptions& opts = {});

/// The two allocators, callable directly (the fuzz oracle compares them).
AllocationResult allocate_linear(const vir::Kernel& kernel, const AllocatorOptions& opts = {});
AllocationResult allocate_color(const vir::Kernel& kernel, const AllocatorOptions& opts = {});

}  // namespace safara::regalloc

#include "regalloc/regalloc.hpp"

#include <algorithm>
#include <sstream>

#include "vir/cfg.hpp"

namespace safara::regalloc {

using vir::Instr;
using vir::Kernel;
using vir::LiveInterval;
using vir::VType;

namespace {

/// Bank of 32-bit register units with first-fit allocation; 64-bit values
/// take an even-aligned pair (matching NVIDIA's register pairing rules).
class RegisterBank {
 public:
  explicit RegisterBank(int capacity) : in_use_(static_cast<std::size_t>(capacity), false) {}

  /// Returns the first unit index, or -1 if the bank cannot satisfy it.
  int take(int units) {
    const int n = static_cast<int>(in_use_.size());
    if (units == 1) {
      for (int i = 0; i < n; ++i) {
        if (!in_use_[i]) {
          in_use_[i] = true;
          bump(i + 1);
          return i;
        }
      }
      return -1;
    }
    for (int i = 0; i + 1 < n; i += 2) {
      if (!in_use_[i] && !in_use_[i + 1]) {
        in_use_[i] = in_use_[i + 1] = true;
        bump(i + 2);
        return i;
      }
    }
    return -1;
  }

  void release(int first, int units) {
    for (int i = 0; i < units; ++i) in_use_[first + i] = false;
  }

  int high_water() const { return high_water_; }

 private:
  void bump(int top) { high_water_ = std::max(high_water_, top); }

  std::vector<bool> in_use_;
  int high_water_ = 0;
};

struct Active {
  LiveInterval interval;
  int first_unit = 0;
  int units = 0;
};

}  // namespace

const char* to_string(Strategy s) {
  return s == Strategy::kLinear ? "linear" : "color";
}

bool parse_strategy(std::string_view text, Strategy& out) {
  if (text == "linear") {
    out = Strategy::kLinear;
    return true;
  }
  if (text == "color") {
    out = Strategy::kColor;
    return true;
  }
  return false;
}

const char* to_string(SpillMem m) {
  switch (m) {
    case SpillMem::kLocal: return "local";
    case SpillMem::kShared: return "shared";
    case SpillMem::kAuto: return "auto";
  }
  return "?";
}

bool parse_spill_mem(std::string_view text, SpillMem& out) {
  if (text == "local") {
    out = SpillMem::kLocal;
    return true;
  }
  if (text == "shared") {
    out = SpillMem::kShared;
    return true;
  }
  if (text == "auto") {
    out = SpillMem::kAuto;
    return true;
  }
  return false;
}

AllocationResult allocate(const vir::Kernel& kernel, const AllocatorOptions& opts) {
  return opts.strategy == Strategy::kLinear ? allocate_linear(kernel, opts)
                                            : allocate_color(kernel, opts);
}

int reserve_spill_slot(AllocationResult& result, VType type) {
  // Natural alignment equals the scalar size (4 for f32/i32, 8 for f64/i64);
  // without the rounding an f64 slot after an f32 slot sat at offset 4.
  const int size = vir::size_of(type);
  result.spill_bytes = (result.spill_bytes + size - 1) / size * size;
  const int slot = result.spill_bytes;
  result.spill_bytes += size;
  return slot;
}

std::string AllocationResult::ptxas_info(const std::string& kernel_name) const {
  std::ostringstream os;
  os << "ptxas info    : Function '" << kernel_name << "': Used " << regs_used
     << " registers";
  if (spill_bytes > 0 || shared_spill_bytes > 0) {
    os << ", " << spill_bytes << " bytes local spill";
    if (shared_spill_bytes > 0) {
      os << " + " << shared_spill_bytes << " bytes shared spill";
    }
    os << " (" << spill_loads << " loads, " << spill_stores << " stores)";
  } else {
    os << ", 0 bytes spill";
  }
  return os.str();
}

AllocationResult allocate_linear(const Kernel& kernel, const AllocatorOptions& opts) {
  AllocationResult result;
  result.spilled.assign(kernel.num_vregs(), false);
  result.iterations = 1;

  std::vector<LiveInterval> intervals = vir::compute_live_intervals(kernel);

  // Predicates: track peak concurrency only (separate, plentiful file).
  {
    std::vector<LiveInterval> preds;
    for (const LiveInterval& iv : intervals) {
      if (kernel.vreg_types[iv.vreg] == VType::kPred) preds.push_back(iv);
    }
    std::vector<std::int32_t> ends;
    int peak = 0;
    for (const LiveInterval& iv : preds) {
      ends.erase(std::remove_if(ends.begin(), ends.end(),
                                [&](std::int32_t e) { return e < iv.start; }),
                 ends.end());
      ends.push_back(iv.end);
      peak = std::max(peak, static_cast<int>(ends.size()));
    }
    result.pred_regs_used = peak;
  }

  RegisterBank bank(opts.max_registers);
  std::vector<Active> active;  // sorted by interval.end ascending

  // Provenance: one LiveRange per non-predicate interval; vreg -> index so
  // an eviction can retro-fit the evictee's record with its spill slot.
  std::vector<std::int64_t> range_of(kernel.num_vregs(), -1);
  auto record = [&](const LiveInterval& iv, int first_unit, int units, int slot) {
    LiveRange r;
    r.vreg = iv.vreg;
    r.start = iv.start;
    r.end = iv.end;
    r.first_unit = first_unit;
    r.units = units;
    r.spill_slot = slot;
    range_of[iv.vreg] = static_cast<std::int64_t>(result.ranges.size());
    result.ranges.push_back(r);
  };

  auto expire = [&](std::int32_t now) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (active[i].interval.end >= now) {
        active[keep++] = active[i];
      } else {
        bank.release(active[i].first_unit, active[i].units);
      }
    }
    active.resize(keep);
  };

  for (const LiveInterval& iv : intervals) {
    VType type = kernel.vreg_types[iv.vreg];
    if (type == VType::kPred) continue;
    int units = vir::registers_of(type);
    expire(iv.start);

    int unit = bank.take(units);
    if (unit < 0) {
      // Spill the active interval with the furthest end if it ends later
      // than the current one (Poletto-Sarkar heuristic); otherwise spill the
      // current interval.
      auto furthest = std::max_element(
          active.begin(), active.end(), [](const Active& a, const Active& b) {
            return a.interval.end < b.interval.end;
          });
      if (furthest != active.end() && furthest->interval.end > iv.end &&
          furthest->units >= units) {
        result.spilled[furthest->interval.vreg] = true;
        if (range_of[furthest->interval.vreg] >= 0) {
          LiveRange& evicted =
              result.ranges[static_cast<std::size_t>(range_of[furthest->interval.vreg])];
          evicted.first_unit = -1;
          evicted.spill_slot =
              reserve_spill_slot(result, kernel.vreg_types[furthest->interval.vreg]);
        } else {
          reserve_spill_slot(result, kernel.vreg_types[furthest->interval.vreg]);
        }
        bank.release(furthest->first_unit, furthest->units);
        active.erase(furthest);
        unit = bank.take(units);
      }
      if (unit < 0) {
        result.spilled[iv.vreg] = true;
        record(iv, -1, units, reserve_spill_slot(result, type));
        continue;
      }
    }
    Active a;
    a.interval = iv;
    a.first_unit = unit;
    a.units = units;
    record(iv, unit, units, -1);
    // Keep `active` sorted by end for the expire scan (not required, but
    // keeps the furthest-end search cheap for typical sizes).
    active.push_back(a);
  }

  result.regs_used = bank.high_water();

  // Static spill traffic: one local store per def, one local load per use of
  // each spilled vreg.
  for (const Instr& in : kernel.code) {
    if (vir::has_dst(in.op) && in.dst != vir::kNoReg && result.spilled[in.dst]) {
      ++result.spill_stores;
    }
    vir::for_each_use(in, [&](std::uint32_t r) {
      if (result.spilled[r]) ++result.spill_loads;
    });
  }
  for (std::uint32_t v = 0; v < kernel.num_vregs(); ++v) {
    if (result.spilled[v]) ++result.spills;
  }
  return result;
}

}  // namespace safara::regalloc

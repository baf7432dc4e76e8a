#include "vgpu/sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "support/thread_pool.hpp"
#include "vgpu/cache.hpp"
#include "vir/cfg.hpp"

namespace safara::vgpu {

using vir::Instr;
using vir::Kernel;
using vir::Opcode;
using vir::SpecialReg;
using vir::VType;

namespace {

// Bit-pattern helpers: every register slot is a uint64.
float as_f32(std::uint64_t v) {
  float f;
  std::uint32_t u = static_cast<std::uint32_t>(v);
  std::memcpy(&f, &u, 4);
  return f;
}
double as_f64(std::uint64_t v) {
  double d;
  std::memcpy(&d, &v, 8);
  return d;
}
std::int32_t as_i32(std::uint64_t v) { return static_cast<std::int32_t>(v); }
std::int64_t as_i64(std::uint64_t v) { return static_cast<std::int64_t>(v); }

std::uint64_t from_f32(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, 4);
  return u;
}
std::uint64_t from_f64(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, 8);
  return u;
}
std::uint64_t from_i32(std::int32_t v) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
}
std::uint64_t from_i64(std::int64_t v) { return static_cast<std::uint64_t>(v); }

// -- pure functional semantics -------------------------------------------------
//
// Shared by the per-instruction reference interpreter and the superblock bulk
// executor; keeping a single definition is what makes "bit-identical results
// between dispatch engines" a structural property rather than a test outcome.

std::uint64_t arith(Opcode op, VType t, std::uint64_t av, std::uint64_t bv) {
  switch (t) {
    case VType::kI32: {
      std::int32_t a = as_i32(av), b = as_i32(bv);
      std::int32_t r = 0;
      switch (op) {
        case Opcode::kAdd: r = a + b; break;
        case Opcode::kSub: r = a - b; break;
        case Opcode::kMul: r = a * b; break;
        case Opcode::kDiv: r = b == 0 ? 0 : (a == INT32_MIN && b == -1 ? a : a / b); break;
        case Opcode::kRem: r = b == 0 ? 0 : (a == INT32_MIN && b == -1 ? 0 : a % b); break;
        case Opcode::kMin: r = std::min(a, b); break;
        case Opcode::kMax: r = std::max(a, b); break;
        default: break;
      }
      return from_i32(r);
    }
    case VType::kI64: {
      std::int64_t a = as_i64(av), b = as_i64(bv);
      std::int64_t r = 0;
      switch (op) {
        case Opcode::kAdd: r = a + b; break;
        case Opcode::kSub: r = a - b; break;
        case Opcode::kMul: r = a * b; break;
        case Opcode::kDiv: r = b == 0 ? 0 : (a == INT64_MIN && b == -1 ? a : a / b); break;
        case Opcode::kRem: r = b == 0 ? 0 : (a == INT64_MIN && b == -1 ? 0 : a % b); break;
        case Opcode::kMin: r = std::min(a, b); break;
        case Opcode::kMax: r = std::max(a, b); break;
        default: break;
      }
      return from_i64(r);
    }
    case VType::kF32: {
      float a = as_f32(av), b = as_f32(bv);
      float r = 0;
      switch (op) {
        case Opcode::kAdd: r = a + b; break;
        case Opcode::kSub: r = a - b; break;
        case Opcode::kMul: r = a * b; break;
        case Opcode::kDiv: r = a / b; break;
        case Opcode::kMin: r = std::fmin(a, b); break;
        case Opcode::kMax: r = std::fmax(a, b); break;
        default: break;
      }
      return from_f32(r);
    }
    case VType::kF64: {
      double a = as_f64(av), b = as_f64(bv);
      double r = 0;
      switch (op) {
        case Opcode::kAdd: r = a + b; break;
        case Opcode::kSub: r = a - b; break;
        case Opcode::kMul: r = a * b; break;
        case Opcode::kDiv: r = a / b; break;
        case Opcode::kMin: r = std::fmin(a, b); break;
        case Opcode::kMax: r = std::fmax(a, b); break;
        default: break;
      }
      return from_f64(r);
    }
    case VType::kPred:
      break;
  }
  return 0;
}

std::uint64_t unary_fn(Opcode op, VType t, std::uint64_t av, std::uint64_t bv) {
  auto apply = [&](double a, double b) -> double {
    switch (op) {
      case Opcode::kNeg: return -a;
      case Opcode::kAbs: return std::fabs(a);
      case Opcode::kSqrt: return std::sqrt(a);
      case Opcode::kRsqrt: return 1.0 / std::sqrt(a);
      case Opcode::kExp: return std::exp(a);
      case Opcode::kLog: return std::log(a);
      case Opcode::kSin: return std::sin(a);
      case Opcode::kCos: return std::cos(a);
      case Opcode::kPow: return std::pow(a, b);
      case Opcode::kFloor: return std::floor(a);
      case Opcode::kCeil: return std::ceil(a);
      default: return 0;
    }
  };
  switch (t) {
    case VType::kI32: {
      if (op == Opcode::kNeg) return from_i32(-as_i32(av));
      if (op == Opcode::kAbs) return from_i32(std::abs(as_i32(av)));
      return from_i32(static_cast<std::int32_t>(apply(as_i32(av), as_i32(bv))));
    }
    case VType::kI64: {
      if (op == Opcode::kNeg) return from_i64(-as_i64(av));
      if (op == Opcode::kAbs) return from_i64(std::llabs(as_i64(av)));
      return from_i64(static_cast<std::int64_t>(apply(static_cast<double>(as_i64(av)),
                                                      static_cast<double>(as_i64(bv)))));
    }
    case VType::kF32:
      return from_f32(static_cast<float>(apply(as_f32(av), as_f32(bv))));
    case VType::kF64:
      return from_f64(apply(as_f64(av), as_f64(bv)));
    case VType::kPred:
      break;
  }
  return 0;
}

bool compare(Opcode op, VType t, std::uint64_t av, std::uint64_t bv) {
  auto cmp = [&](auto a, auto b) -> bool {
    switch (op) {
      case Opcode::kSetLt: return a < b;
      case Opcode::kSetLe: return a <= b;
      case Opcode::kSetGt: return a > b;
      case Opcode::kSetGe: return a >= b;
      case Opcode::kSetEq: return a == b;
      case Opcode::kSetNe: return a != b;
      default: return false;
    }
  };
  switch (t) {
    case VType::kI32: return cmp(as_i32(av), as_i32(bv));
    case VType::kI64: return cmp(as_i64(av), as_i64(bv));
    case VType::kF32: return cmp(as_f32(av), as_f32(bv));
    case VType::kF64: return cmp(as_f64(av), as_f64(bv));
    case VType::kPred: return cmp(av & 1, bv & 1);
  }
  return false;
}

std::uint64_t convert(VType to, VType from, std::uint64_t v) {
  double d = 0;
  std::int64_t i = 0;
  bool src_float = from == VType::kF32 || from == VType::kF64;
  if (from == VType::kF32) d = as_f32(v);
  if (from == VType::kF64) d = as_f64(v);
  if (from == VType::kI32) i = as_i32(v);
  if (from == VType::kI64) i = as_i64(v);
  if (from == VType::kPred) i = static_cast<std::int64_t>(v & 1);
  switch (to) {
    case VType::kI32:
      return from_i32(src_float ? static_cast<std::int32_t>(d)
                                : static_cast<std::int32_t>(i));
    case VType::kI64:
      return from_i64(src_float ? static_cast<std::int64_t>(d) : i);
    case VType::kF32:
      return from_f32(src_float ? static_cast<float>(d) : static_cast<float>(i));
    case VType::kF64:
      return from_f64(src_float ? d : static_cast<double>(i));
    case VType::kPred:
      return (src_float ? d != 0.0 : i != 0) ? 1 : 0;
  }
  return 0;
}

struct SimtEntry {
  std::int32_t reconv_pc = 0;
  std::int32_t other_pc = 0;
  std::uint32_t other_mask = 0;
  std::uint32_t merged_mask = 0;
};

// What a stalled warp is waiting on (profiling only; never feeds timing).
enum : std::uint8_t { kWaitPipeline = 0, kWaitScoreboard = 1, kWaitMemory = 2 };

struct Warp {
  std::int32_t pc = 0;
  std::uint32_t active = 0;
  std::int64_t ready_cycle = 0;
  bool finished = false;
  int block_index = -1;  // index into the SM's resident-block table
  int warp_in_block = 0;
  std::uint8_t wait_reason = kWaitPipeline;  // profiling only
  std::vector<std::uint64_t> regs;      // nvregs * 32
  std::vector<std::int64_t> reg_ready;  // nvregs
  std::vector<std::uint8_t> reg_from_mem;  // nvregs; profiling only
  std::vector<SimtEntry> stack;

  // Superblock drain state: when sb_next >= 0 the warp has bulk-executed a
  // superblock and is replaying its issue slots one micro-op per cycle.
  std::int32_t sb_next = -1;
  std::int32_t sb_end = 0;
};

// The warp scheduler's masks are one 64-bit word, bit i naming the i-th
// resident warp; launch() rejects a launch that would keep more resident.
constexpr int kMaxResidentWarps = 64;

struct ResidentBlock {
  int coords[3] = {0, 0, 0};
  int warps_left = 0;
};

std::uint64_t special_value(int code, const ResidentBlock& rb, const LaunchConfig& cfg,
                            const DeviceSpec& spec, int warp_in_block, int lane) {
  const int t = warp_in_block * spec.warp_size + lane;
  const int tid[3] = {t % cfg.block[0], (t / cfg.block[0]) % cfg.block[1],
                      t / (cfg.block[0] * cfg.block[1])};
  std::int32_t v = 0;
  switch (static_cast<SpecialReg>(code)) {
    case SpecialReg::kTidX: v = tid[0]; break;
    case SpecialReg::kTidY: v = tid[1]; break;
    case SpecialReg::kTidZ: v = tid[2]; break;
    case SpecialReg::kCtaidX: v = rb.coords[0]; break;
    case SpecialReg::kCtaidY: v = rb.coords[1]; break;
    case SpecialReg::kCtaidZ: v = rb.coords[2]; break;
    case SpecialReg::kNtidX: v = cfg.block[0]; break;
    case SpecialReg::kNtidY: v = cfg.block[1]; break;
    case SpecialReg::kNtidZ: v = cfg.block[2]; break;
    case SpecialReg::kNctaidX: v = cfg.grid[0]; break;
    case SpecialReg::kNctaidY: v = cfg.grid[1]; break;
    case SpecialReg::kNctaidZ: v = cfg.grid[2]; break;
  }
  return from_i32(v);
}

// Per-instruction facts that depend only on (kernel, allocation, device) —
// decoded once per launch instead of re-derived on every warp issue. The
// scoreboard walk and spill bookkeeping in the hot step() path read this flat
// table; the timing it produces is identical to recomputing from the Instr.
struct DecodedInstr {
  std::uint32_t uses[3] = {0, 0, 0};  // register operands, in a/b/c order
  std::uint8_t num_uses = 0;
  bool writes_dst = false;
  bool dst_spilled = false;
  /// Spilled dst lives in a RegDem shared-memory slot (vs local memory).
  bool dst_shared = false;
  std::uint16_t spill_uses = 0;   // operand reads that hit a spilled vreg
  /// Subset of spill_uses served from shared memory, and the extra
  /// bank-serialized transactions those reads cost. Conflict degree is
  /// static — the warp-interleaved slot layout makes it a pure function of
  /// the value's size on 32x4B banks — which is what keeps the superblock
  /// MicroOp latency tables valid.
  std::uint16_t shared_uses = 0;
  std::uint16_t shared_conflicts = 0;
  std::uint8_t dst_shared_conflicts = 0;
  std::int32_t spill_extra = 0;   // spill-memory latency those reads add
  std::int32_t dst_spill_latency = 0;  // latency a spilled dst write adds
  std::int32_t exec_latency = 0;  // static issue latency for ALU/SFU-class ops
};

// One issue slot of a superblock: everything the drain loop needs to replay
// the reference interpreter's timing for an already-bulk-executed instruction.
struct MicroOp {
  std::uint32_t dst = vir::kNoReg;
  std::int32_t latency = 0;        // static result latency incl. spill costs
  std::uint8_t dst_from_mem = 0;   // spilled dst: result arrives from local mem
};

// A straight-line run of fusable instructions [begin, end): no memory ops, no
// atomics, no control flow, and no label target after `begin` (labels carry
// both branch targets and reconvergence points, which must be observed at the
// per-instruction level).
struct Superblock {
  std::int32_t begin = 0;
  std::int32_t end = 0;
  std::uint32_t spill_accesses = 0;  // aggregate spill traffic of the block
  std::uint32_t shared_accesses = 0;   // subset served by shared memory
  std::uint32_t shared_conflicts = 0;  // extra bank-serialized transactions
};

struct DecodedKernel {
  std::vector<DecodedInstr> code;
  bool has_atomics = false;
  /// The registers live into the kernel's entry block: the only ones a lane
  /// can read before writing them, so the only ones a pooled warp's register
  /// file must zero when admit_block reuses it.
  std::vector<std::uint32_t> entry_live;

  // Superblock tables (built only under SimDispatch::kSuper).
  bool super = false;
  std::vector<MicroOp> micro;          // parallel to code; valid inside blocks
  std::vector<Superblock> blocks;
  std::vector<std::int32_t> block_of;  // pc -> block index if block head, else -1
  /// %tid.{x,y,z} of every thread slot of a block, for the bulk executor:
  /// tid[d * tid_stride + w * 32 + l] is dimension d of lane l of warp w.
  std::vector<std::uint64_t> tid;
  std::size_t tid_stride = 0;
};

void build_superblocks(const Kernel& k, const DeviceSpec& spec, DecodedKernel& dk) {
  const std::size_t n = k.code.size();
  dk.micro.assign(n, MicroOp{});
  dk.block_of.assign(n, -1);

  std::vector<std::uint8_t> barrier(n, 0);  // terminator or label target
  for (std::size_t pc = 0; pc < n; ++pc) {
    barrier[pc] = superblock_op_info(k.code[pc].op, k.code[pc].type, spec).terminator;
  }
  std::vector<std::uint8_t> is_head_barrier = barrier;  // label targets break blocks
  for (std::int32_t t : k.labels) {
    if (t >= 0 && static_cast<std::size_t>(t) < n) is_head_barrier[static_cast<std::size_t>(t)] = 1;
  }

  std::size_t i = 0;
  while (i < n) {
    if (barrier[i]) {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < n && !is_head_barrier[j]) ++j;
    Superblock b;
    b.begin = static_cast<std::int32_t>(i);
    b.end = static_cast<std::int32_t>(j);
    for (std::size_t pc = i; pc < j; ++pc) {
      const Instr& in = k.code[pc];
      const DecodedInstr& d = dk.code[pc];
      MicroOp m;
      b.spill_accesses += d.spill_uses;
      b.shared_accesses += d.shared_uses;
      b.shared_conflicts += d.shared_conflicts;
      m.latency = d.exec_latency + d.spill_extra;
      if (d.writes_dst) {
        m.dst = in.dst;
        if (d.dst_spilled) {
          m.latency += d.dst_spill_latency;
          m.dst_from_mem = 1;
          ++b.spill_accesses;
          if (d.dst_shared) {
            ++b.shared_accesses;
            b.shared_conflicts += d.dst_shared_conflicts;
          }
        }
      }
      dk.micro[pc] = m;
    }
    dk.block_of[i] = static_cast<std::int32_t>(dk.blocks.size());
    dk.blocks.push_back(b);
    i = j;
  }
  dk.super = !dk.blocks.empty();
}

/// Fills dk.tid with the %tid.{x,y,z} values special_value() derives per lane.
void build_tid_table(const LaunchConfig& cfg, const DeviceSpec& spec, DecodedKernel& dk) {
  const int threads = cfg.threads_per_block();
  const int nwarps = (threads + spec.warp_size - 1) / spec.warp_size;
  dk.tid_stride = static_cast<std::size_t>(nwarps) * 32;
  dk.tid.assign(3 * dk.tid_stride, 0);
  for (int w = 0; w < nwarps; ++w) {
    for (int l = 0; l < 32; ++l) {
      const int t = w * spec.warp_size + l;
      const std::size_t slot = static_cast<std::size_t>(w) * 32 + static_cast<std::size_t>(l);
      dk.tid[slot] = from_i32(t % cfg.block[0]);
      dk.tid[dk.tid_stride + slot] = from_i32((t / cfg.block[0]) % cfg.block[1]);
      dk.tid[2 * dk.tid_stride + slot] = from_i32(t / (cfg.block[0] * cfg.block[1]));
    }
  }
}

DecodedKernel decode(const Kernel& k, const regalloc::AllocationResult& alloc,
                     const DeviceSpec& spec, const LaunchConfig& cfg, bool build_super) {
  const LatencyModel& lat = spec.lat;
  DecodedKernel dk;
  dk.code.reserve(k.code.size());
  // Rematerialized vregs (coloring allocator): the value is recomputed by a
  // one-ALU-op sequence instead of reloaded from a local-memory spill slot,
  // so their accesses cost ALU latency and are not spill traffic.
  auto is_remat = [&](std::uint32_t r) {
    return r < alloc.remat.size() && alloc.remat[r];
  };
  auto in_shared = [&](std::uint32_t r) {
    return r < alloc.in_shared.size() && alloc.in_shared[r];
  };
  // A RegDem-demoted slot is warp-interleaved, so a warp's access of it
  // serializes over size/bank_bytes banksets: the conflict degree (and thus
  // the latency) is static per vreg.
  auto shared_degree = [&](std::uint32_t r) {
    return std::max(1, vir::size_of(k.vreg_types[r]) /
                           std::max(1, spec.shared_bank_bytes));
  };
  auto shared_latency = [&](int degree) {
    return lat.shared_mem + (degree - 1) * lat.shared_conflict;
  };
  for (const Instr& in : k.code) {
    DecodedInstr d;
    vir::for_each_use(in, [&](std::uint32_t r) {
      d.uses[d.num_uses++] = r;
      if (alloc.spilled[r]) {
        if (is_remat(r)) {
          d.spill_extra += lat.alu;
        } else if (in_shared(r)) {
          const int degree = shared_degree(r);
          d.spill_extra += shared_latency(degree);
          ++d.spill_uses;
          ++d.shared_uses;
          d.shared_conflicts += static_cast<std::uint16_t>(degree - 1);
        } else {
          d.spill_extra += lat.local_mem;
          ++d.spill_uses;
        }
      }
    });
    d.writes_dst = vir::has_dst(in.op) && in.dst != vir::kNoReg;
    d.dst_spilled = d.writes_dst && alloc.spilled[in.dst] && !is_remat(in.dst);
    if (d.dst_spilled) {
      if (in_shared(in.dst)) {
        const int degree = shared_degree(in.dst);
        d.dst_shared = true;
        d.dst_shared_conflicts = static_cast<std::uint8_t>(degree - 1);
        d.dst_spill_latency = shared_latency(degree);
      } else {
        d.dst_spill_latency = lat.local_mem;
      }
    }
    // Memory/control ops compute their latency dynamically; the static class
    // recorded here for them (lat.alu) is never read.
    const SuperblockOpInfo info = superblock_op_info(in.op, in.type, spec);
    d.exec_latency = info.terminator ? lat.alu : info.latency;
    if (in.op == Opcode::kAtomAdd) dk.has_atomics = true;
    dk.code.push_back(d);
  }
  vir::Analyses analyses(k);
  if (!analyses.blocks().empty()) {
    const vir::BlockLiveness& live = analyses.liveness();
    for (std::uint32_t r = 0; r < k.num_vregs(); ++r) {
      if (live.live_in_at(0, r)) dk.entry_live.push_back(r);
    }
  }
  if (build_super) {
    build_superblocks(k, spec, dk);
    build_tid_table(cfg, spec, dk);
  }
  return dk;
}

// Records which 4-byte global-memory granules one SM touches; used only by
// the overlap checker's sequential shadow pass.
struct AccessTracker {
  std::unordered_set<std::uint64_t> reads;
  std::unordered_set<std::uint64_t> writes;

  static void note(std::unordered_set<std::uint64_t>& set, std::uint64_t addr, int bytes) {
    set.insert(addr >> 2);
    const std::uint64_t last = addr + static_cast<std::uint64_t>(bytes) - 1;
    if ((last >> 2) != (addr >> 2)) set.insert(last >> 2);
  }
};

class SmSimulator {
 public:
  SmSimulator(const Kernel& kernel, const DecodedKernel& dk,
              const regalloc::AllocationResult& alloc, const DeviceSpec& spec,
              DeviceMemory& mem, const std::vector<std::uint64_t>& params,
              const LaunchConfig& cfg, LaunchStats& stats, obs::SmProfile* prof = nullptr,
              AccessTracker* tracker = nullptr)
      : k_(kernel),
        dk_(dk),
        alloc_(alloc),
        spec_(spec),
        mem_(mem),
        params_(params),
        cfg_(cfg),
        stats_(stats),
        prof_(prof),
        tracker_(tracker),
        ro_cache_(spec.ro_cache_bytes, spec.ro_cache_line, spec.ro_cache_ways) {}

  /// Dynamic count of superblocks retired through the fast path.
  std::uint64_t superblock_retires() const { return superblock_retires_; }

  /// Runs the given linear block indices to completion; returns SM cycles.
  ///
  /// Each cycle issues from the warps in `ready_`, walking them round-robin
  /// from position `rr % n` until `schedulers_per_sm` have issued; a warp
  /// that stalls on the scoreboard in step() takes no issue slot. A stepped
  /// warp is refiled under its new ready cycle, so the cost of a cycle is the
  /// warps it steps, not the warps resident. A cycle that issues nothing
  /// jumps straight to the next wake-up (see docs/SIMULATOR.md, "Warp
  /// scheduler").
  std::uint64_t run(const std::vector<std::int64_t>& block_ids, int blocks_per_sm) {
    if (prof_) prof_->pcs.assign(k_.code.size(), obs::PcProfile{});
    pending_ = &block_ids;
    next_pending_ = 0;
    for (int i = 0; i < blocks_per_sm && next_pending_ < pending_->size(); ++i) {
      admit_block();
    }
    cycle_ = 0;
    rebuild_schedule();
    std::size_t rr = 0;
    while (!warps_.empty()) {
      int issued = 0;
      int finished_now = 0;
      std::int32_t first_issue_pc = 0;
      // Rotating the cycle-start ready set by the round-robin start lists
      // positions [start, n) and then [0, start) in ascending bit order (no
      // bit at or above n is ever set). Warps stepped below leave `ready_`
      // but not this copy, so none is visited twice in a cycle.
      const unsigned start = static_cast<unsigned>(rr % warps_.size());
      for (std::uint64_t m = std::rotr(ready_, static_cast<int>(start));
           m != 0 && issued < spec_.schedulers_per_sm; m &= m - 1) {
        const unsigned i = (static_cast<unsigned>(std::countr_zero(m)) + start) & 63u;
        Warp& w = *warps_[i];
        if (step(w)) {
          // Per-pc attribution: step() recorded the pc it issued in
          // last_issue_pc_. The cycle's first issue claims the issue-cycle
          // credit, but only below where the SM-level counter increments —
          // the final cycle (empty-SM break) issues without being counted,
          // and the per-pc sums must reproduce the SM totals exactly.
          if (prof_) {
            ++prof_->pcs[static_cast<std::size_t>(last_issue_pc_)].issued;
            if (issued == 0) first_issue_pc = last_issue_pc_;
          }
          ++issued;
        }
        ready_ &= ~(1ull << i);
        if (w.finished) {
          ++finished_now;
        } else {
          file_warp(i, w.ready_cycle);
        }
      }
      ++rr;
      // Account issued instructions before the empty-SM break below: the
      // final cycle's issues would otherwise be missed (the cycle counter
      // itself intentionally keeps its seed behavior of not counting it).
      if (prof_ && issued > 0) {
        prof_->issued_instructions += static_cast<std::uint64_t>(issued);
      }
      // Warps only finish inside step(), so most cycles have nothing to
      // retire. Retiring renumbers the warps, so the schedule is refiled.
      if (finished_now > 0) {
        retire_finished();
        rebuild_schedule();
      }
      if (warps_.empty()) break;
      if (issued == 0) {
        // Every warp that was ready has been stepped and refiled, so the
        // earliest wake-up is the next cycle anything can issue in. Warps
        // admitted this cycle are still ready (at cycle_); otherwise the
        // nearest wheel slot wins, and the far set only when the wheel is
        // empty (everything in it is at least a wheel's span away).
        std::int64_t next;
        std::uint64_t waking = ready_;
        if (waking != 0) {
          next = cycle_;
        } else if (wheel_slots_ != 0) {
          const unsigned base = static_cast<unsigned>(cycle_ + 1) & 63u;
          const int ahead = std::countr_zero(std::rotr(wheel_slots_, static_cast<int>(base)));
          next = cycle_ + 1 + ahead;
          waking = wheel_[(base + static_cast<unsigned>(ahead)) & 63u];
        } else {
          next = far_min_;
          waking = far_;
        }
        const std::int64_t target = std::max(cycle_ + 1, next);
        if (prof_) {
          // Attribute the whole idle gap to whatever the earliest-unblocking
          // warp is waiting on, and to the instruction it is stalled at; ties
          // go to the lowest position. A draining warp stalls at its next
          // micro-op; a warp that branched to the end label waits at pc ==
          // code.size(), which we clamp to the final instruction (the exit)
          // for per-pc bookkeeping.
          const Warp* blocker = nullptr;
          for (std::uint64_t m = waking; m != 0 && !blocker; m &= m - 1) {
            const Warp& w = *warps_[static_cast<std::size_t>(std::countr_zero(m))];
            if (w.ready_cycle == next) blocker = &w;
          }
          const std::uint64_t gap = static_cast<std::uint64_t>(target - cycle_);
          std::size_t stall_pc = 0;
          if (blocker) {
            stall_pc = static_cast<std::size_t>(
                blocker->sb_next >= 0 ? blocker->sb_next : blocker->pc);
            if (stall_pc >= prof_->pcs.size() && !prof_->pcs.empty()) {
              stall_pc = prof_->pcs.size() - 1;
            }
          }
          if (blocker && blocker->wait_reason == kWaitMemory) {
            prof_->stall_memory += gap;
            prof_->pcs[stall_pc].stall_memory += gap;
          } else {
            prof_->stall_scoreboard += gap;
            prof_->pcs[stall_pc].stall_scoreboard += gap;
          }
        }
        advance_to(target);
      } else {
        if (prof_) {
          ++prof_->issue_cycles;
          ++prof_->pcs[static_cast<std::size_t>(first_issue_pc)].issue_cycles;
        }
        advance_to(cycle_ + 1);
      }
    }
    if (prof_) prof_->cycles = static_cast<std::uint64_t>(cycle_);
    return static_cast<std::uint64_t>(cycle_);
  }

 private:
  void admit_block() {
    std::int64_t linear = (*pending_)[next_pending_++];
    ResidentBlock rb;
    rb.coords[0] = static_cast<int>(linear % cfg_.grid[0]);
    rb.coords[1] = static_cast<int>((linear / cfg_.grid[0]) % cfg_.grid[1]);
    rb.coords[2] = static_cast<int>(linear / (static_cast<std::int64_t>(cfg_.grid[0]) * cfg_.grid[1]));
    const int threads = cfg_.threads_per_block();
    const int nwarps = (threads + spec_.warp_size - 1) / spec_.warp_size;
    rb.warps_left = nwarps;
    blocks_.push_back(rb);
    const int block_index = static_cast<int>(blocks_.size() - 1);

    for (int wi = 0; wi < nwarps; ++wi) {
      // Retired warps park in a free list; re-admitting reuses their
      // register-file / scoreboard storage instead of reallocating per block.
      // A pooled register file zeroes only the entry-live registers: a lane
      // writes every other register before reading it, on every path it can
      // take, so the previous block's values there are never observed.
      std::unique_ptr<Warp> w;
      if (!warp_pool_.empty()) {
        w = std::move(warp_pool_.back());
        warp_pool_.pop_back();
        w->pc = 0;
        w->finished = false;
        w->wait_reason = kWaitPipeline;
        w->stack.clear();
        w->sb_next = -1;
        w->sb_end = 0;
        for (std::uint32_t r : dk_.entry_live) {
          std::fill_n(&w->regs[static_cast<std::size_t>(r) * 32], 32, std::uint64_t{0});
        }
      } else {
        w = std::make_unique<Warp>();
        w->regs.assign(static_cast<std::size_t>(k_.num_vregs()) * 32, 0);
      }
      w->block_index = block_index;
      w->warp_in_block = wi;
      const int first_thread = wi * spec_.warp_size;
      const int lanes = std::min(spec_.warp_size, threads - first_thread);
      w->active = lanes == 32 ? 0xffffffffu : ((1u << lanes) - 1);
      w->reg_ready.assign(k_.num_vregs(), 0);
      if (prof_) w->reg_from_mem.assign(k_.num_vregs(), 0);
      w->ready_cycle = cycle_;
      warps_.push_back(std::move(w));
    }
    if (prof_) {
      ++prof_->blocks_executed;
      prof_->max_resident_warps =
          std::max<std::uint64_t>(prof_->max_resident_warps, warps_.size());
      sample_warps();
    }
  }

  /// Removes finished warps, keeping the survivors in order; a block whose
  /// last warp retires makes room for the next pending block, whose warps are
  /// appended.
  void retire_finished() {
    for (std::size_t i = 0; i < warps_.size();) {
      if (!warps_[i]->finished) {
        ++i;
        continue;
      }
      int bi = warps_[i]->block_index;
      warp_pool_.push_back(std::move(warps_[i]));
      warps_.erase(warps_.begin() + static_cast<std::ptrdiff_t>(i));
      if (--blocks_[static_cast<std::size_t>(bi)].warps_left == 0 &&
          next_pending_ < pending_->size()) {
        admit_block();
      }
    }
    if (prof_) sample_warps();
  }

  // -- warp schedule ------------------------------------------------------------
  //
  // Every resident, unfinished warp sits in exactly one of three places, by
  // its ready cycle r: the ready mask (r <= cycle_), the wheel slot r & 63
  // (cycle_ < r < cycle_ + 64; one r per slot), or the far mask. Bit i of
  // each mask names warps_[i]; launch() keeps residency at 64 or fewer.

  /// Files warp `i`, whose ready cycle is `r`, under that cycle.
  void file_warp(unsigned i, std::int64_t r) {
    const std::uint64_t bit = 1ull << i;
    if (r <= cycle_) {
      ready_ |= bit;
    } else if (r - cycle_ < kWheelSlots) {
      const unsigned slot = static_cast<unsigned>(r) & 63u;
      wheel_[slot] |= bit;
      wheel_slots_ |= 1ull << slot;
    } else {
      far_ |= bit;
      far_min_ = std::min(far_min_, r);
    }
  }

  /// Files every resident warp afresh; retire_finished() renumbers them.
  void rebuild_schedule() {
    ready_ = 0;
    for (std::uint64_t m = wheel_slots_; m != 0; m &= m - 1) wheel_[std::countr_zero(m)] = 0;
    wheel_slots_ = 0;
    far_ = 0;
    far_min_ = std::numeric_limits<std::int64_t>::max();
    for (std::size_t i = 0; i < warps_.size(); ++i) {
      file_warp(static_cast<unsigned>(i), warps_[i]->ready_cycle);
    }
  }

  /// Moves the clock to `t` and readies the warps that wake at `t`. No warp
  /// may wake strictly between the current cycle and `t`: that holds for the
  /// next cycle and for an idle jump to the earliest wake-up.
  void advance_to(std::int64_t t) {
    cycle_ = t;
    const unsigned slot = static_cast<unsigned>(t) & 63u;
    if ((wheel_slots_ >> slot) & 1u) {
      ready_ |= wheel_[slot];
      wheel_[slot] = 0;
      wheel_slots_ &= ~(1ull << slot);
    }
    if (far_ != 0 && far_min_ - cycle_ < kWheelSlots) wake_far();
  }

  /// Refiles the far warps that came within a wheel's span of the clock.
  void wake_far() {
    const std::uint64_t far = far_;
    far_ = 0;
    far_min_ = std::numeric_limits<std::int64_t>::max();
    for (std::uint64_t m = far; m != 0; m &= m - 1) {
      const unsigned i = static_cast<unsigned>(std::countr_zero(m));
      file_warp(i, warps_[i]->ready_cycle);
    }
  }

  /// Records one occupancy-timeline sample at the current cycle; multiple
  /// admit/retire events in the same cycle collapse onto the last value.
  void sample_warps() {
    const std::uint64_t c = static_cast<std::uint64_t>(cycle_);
    std::vector<obs::WarpSample>& tl = prof_->warp_timeline;
    if (!tl.empty() && tl.back().cycle == c) {
      tl.back().warps = static_cast<std::uint32_t>(warps_.size());
    } else {
      tl.push_back({c, static_cast<std::uint32_t>(warps_.size())});
    }
  }

  std::uint64_t& reg(Warp& w, std::uint32_t r, int lane) {
    return w.regs[static_cast<std::size_t>(r) * 32 + static_cast<std::size_t>(lane)];
  }

  /// Books `ntx` transactions on the SM's memory pipeline (the bandwidth
  /// model); returns the queueing delay the requester sees before its
  /// transactions even start.
  std::int64_t mem_occupy(int ntx) {
    const std::int64_t start = std::max(cycle_, mem_free_);
    mem_free_ = start + static_cast<std::int64_t>(ntx) * spec_.lat.tx_cycles;
    return start - cycle_;
  }

  /// Executes one instruction (or performs a reconvergence action).
  /// Returns true if an issue slot was consumed.
  bool step(Warp& w) {
    // A warp mid-superblock only drains issue slots; no fetch, no scoreboard.
    if (w.sb_next >= 0) {
      drain_issue(w);
      return true;
    }
    // Reconvergence: act before fetching.
    while (!w.stack.empty() && w.pc == w.stack.back().reconv_pc) {
      SimtEntry& e = w.stack.back();
      if (e.other_mask != 0) {
        w.active = e.other_mask;
        w.pc = e.other_pc;
        e.other_mask = 0;
      } else {
        w.active = e.merged_mask;
        w.stack.pop_back();
      }
    }
    if (w.pc >= static_cast<std::int32_t>(k_.code.size())) {
      w.finished = true;
      return false;
    }

    const Instr& in = k_.code[static_cast<std::size_t>(w.pc)];
    const DecodedInstr& d = dk_.code[static_cast<std::size_t>(w.pc)];

    // Operand scoreboard (reads the pre-decoded operand list).
    std::int64_t ready = cycle_;
    std::uint32_t blocking_reg = vir::kNoReg;
    for (std::uint8_t u = 0; u < d.num_uses; ++u) {
      const std::uint32_t r = d.uses[u];
      if (w.reg_ready[r] > ready) {
        ready = w.reg_ready[r];
        blocking_reg = r;
      }
    }
    if (ready > cycle_) {
      w.ready_cycle = ready;
      if (prof_) {
        w.wait_reason = (blocking_reg != vir::kNoReg && w.reg_from_mem[blocking_reg])
                            ? kWaitMemory
                            : kWaitScoreboard;
      }
      return false;
    }

    // Superblock dispatch: a ready head executes its whole block functionally
    // now and switches the warp into drain mode, which replays the block's
    // issue cycles, operand stalls included.
    if (dk_.super) {
      const std::int32_t bi = dk_.block_of[static_cast<std::size_t>(w.pc)];
      if (bi >= 0) {
        enter_block(w, dk_.blocks[static_cast<std::size_t>(bi)]);
        return true;
      }
    }

    // Spill traffic: reads of spilled vregs are local- or shared-memory loads.
    stats_.spill_accesses += d.spill_uses;
    stats_.shared_accesses += d.shared_uses;
    stats_.shared_bank_conflicts += d.shared_conflicts;

    ++stats_.warp_instructions;
    if (prof_) last_issue_pc_ = w.pc;
    execute(w, in, d, static_cast<int>(d.spill_extra));
    return true;
  }

  void set_result(Warp& w, const Instr& in, int latency, bool mem_result = false) {
    const DecodedInstr& d = dk_.code[static_cast<std::size_t>(w.pc)];
    if (d.writes_dst) {
      if (d.dst_spilled) {
        latency += d.dst_spill_latency;
        ++stats_.spill_accesses;
        if (d.dst_shared) {
          ++stats_.shared_accesses;
          stats_.shared_bank_conflicts += d.dst_shared_conflicts;
        }
        mem_result = true;  // the result arrives from spill memory
      }
      w.reg_ready[in.dst] = cycle_ + latency;
      if (prof_) w.reg_from_mem[in.dst] = mem_result ? 1 : 0;
    }
    w.ready_cycle = cycle_ + 1;
    if (prof_) w.wait_reason = kWaitPipeline;
    w.pc += 1;
  }

  // -- superblock dispatch ------------------------------------------------------

  /// Retires a superblock whose head is ready in one dispatch: all functional
  /// effects happen now, and the per-cycle issue slots are replayed from the
  /// micro-op table by drain_issue. The values are timing-independent:
  /// registers are warp-private, the active mask cannot change inside a
  /// block, and both engines publish a register's value when its producer
  /// issues, so an operand still in flight already holds its final value.
  void enter_block(Warp& w, const Superblock& b) {
    bulk_execute(w, b);
    stats_.warp_instructions += static_cast<std::uint64_t>(b.end - b.begin);
    stats_.spill_accesses += b.spill_accesses;
    stats_.shared_accesses += b.shared_accesses;
    stats_.shared_bank_conflicts += b.shared_conflicts;
    ++superblock_retires_;
    w.sb_next = b.begin;
    w.sb_end = b.end;
    w.pc = b.end;
    drain_issue(w);  // the first instruction issues on this step's slot
  }

  /// Issues one already-executed micro-op: publish its destination latency,
  /// then compute when the next in-block instruction can issue. Every operand
  /// of it can block, whether produced inside the block or before it; the
  /// strict-max scan over its operands in a/b/c order is step()'s scoreboard
  /// check, so the issue cycle and the blocking register are the reference
  /// interpreter's.
  void drain_issue(Warp& w) {
    if (prof_) last_issue_pc_ = w.sb_next;
    const MicroOp& m = dk_.micro[static_cast<std::size_t>(w.sb_next)];
    if (m.dst != vir::kNoReg) {
      w.reg_ready[m.dst] = cycle_ + m.latency;
      if (prof_) w.reg_from_mem[m.dst] = m.dst_from_mem;
    }
    if (++w.sb_next == w.sb_end) {
      w.sb_next = -1;
      w.ready_cycle = cycle_ + 1;
      if (prof_) w.wait_reason = kWaitPipeline;
      return;
    }
    const DecodedInstr& next = dk_.code[static_cast<std::size_t>(w.sb_next)];
    std::int64_t ready = cycle_ + 1;
    std::uint32_t blocking_reg = vir::kNoReg;
    for (std::uint8_t u = 0; u < next.num_uses; ++u) {
      const std::uint32_t r = next.uses[u];
      if (w.reg_ready[r] > ready) {
        ready = w.reg_ready[r];
        blocking_reg = r;
      }
    }
    w.ready_cycle = ready;
    if (prof_) {
      w.wait_reason = blocking_reg == vir::kNoReg
                          ? kWaitPipeline
                          : (w.reg_from_mem[blocking_reg] ? kWaitMemory : kWaitScoreboard);
    }
  }

  /// Runs `fn` over the active lanes, with a dedicated branch-free loop for
  /// the (dominant) full-mask case.
  template <typename Fn>
  static void for_lanes(std::uint32_t active, Fn&& fn) {
    if (active == 0xffffffffu) {
      for (int l = 0; l < 32; ++l) fn(l);
    } else {
      for (int l = 0; l < 32; ++l) {
        if (active & (1u << l)) fn(l);
      }
    }
  }

  /// Typed lane loops for binary arithmetic with the op/type dispatch hoisted
  /// out of the lane loop, written with the exact same scalar expressions as
  /// arith() so results stay bit-identical.
  static void bulk_arith(Opcode op, VType t, std::uint32_t m, std::uint64_t* dst,
                         const std::uint64_t* a, const std::uint64_t* b) {
    switch (t) {
      case VType::kF32:
        switch (op) {
          case Opcode::kAdd:
            for_lanes(m, [&](int l) { dst[l] = from_f32(as_f32(a[l]) + as_f32(b[l])); });
            return;
          case Opcode::kSub:
            for_lanes(m, [&](int l) { dst[l] = from_f32(as_f32(a[l]) - as_f32(b[l])); });
            return;
          case Opcode::kMul:
            for_lanes(m, [&](int l) { dst[l] = from_f32(as_f32(a[l]) * as_f32(b[l])); });
            return;
          case Opcode::kDiv:
            for_lanes(m, [&](int l) { dst[l] = from_f32(as_f32(a[l]) / as_f32(b[l])); });
            return;
          case Opcode::kMin:
            for_lanes(m, [&](int l) { dst[l] = from_f32(std::fmin(as_f32(a[l]), as_f32(b[l]))); });
            return;
          case Opcode::kMax:
            for_lanes(m, [&](int l) { dst[l] = from_f32(std::fmax(as_f32(a[l]), as_f32(b[l]))); });
            return;
          default:
            break;
        }
        break;
      case VType::kF64:
        switch (op) {
          case Opcode::kAdd:
            for_lanes(m, [&](int l) { dst[l] = from_f64(as_f64(a[l]) + as_f64(b[l])); });
            return;
          case Opcode::kSub:
            for_lanes(m, [&](int l) { dst[l] = from_f64(as_f64(a[l]) - as_f64(b[l])); });
            return;
          case Opcode::kMul:
            for_lanes(m, [&](int l) { dst[l] = from_f64(as_f64(a[l]) * as_f64(b[l])); });
            return;
          case Opcode::kDiv:
            for_lanes(m, [&](int l) { dst[l] = from_f64(as_f64(a[l]) / as_f64(b[l])); });
            return;
          case Opcode::kMin:
            for_lanes(m, [&](int l) { dst[l] = from_f64(std::fmin(as_f64(a[l]), as_f64(b[l]))); });
            return;
          case Opcode::kMax:
            for_lanes(m, [&](int l) { dst[l] = from_f64(std::fmax(as_f64(a[l]), as_f64(b[l]))); });
            return;
          default:
            break;
        }
        break;
      case VType::kI32:
        switch (op) {
          case Opcode::kAdd:
            for_lanes(m, [&](int l) { dst[l] = from_i32(as_i32(a[l]) + as_i32(b[l])); });
            return;
          case Opcode::kSub:
            for_lanes(m, [&](int l) { dst[l] = from_i32(as_i32(a[l]) - as_i32(b[l])); });
            return;
          case Opcode::kMul:
            for_lanes(m, [&](int l) { dst[l] = from_i32(as_i32(a[l]) * as_i32(b[l])); });
            return;
          case Opcode::kMin:
            for_lanes(m, [&](int l) { dst[l] = from_i32(std::min(as_i32(a[l]), as_i32(b[l]))); });
            return;
          case Opcode::kMax:
            for_lanes(m, [&](int l) { dst[l] = from_i32(std::max(as_i32(a[l]), as_i32(b[l]))); });
            return;
          default:
            break;
        }
        break;
      case VType::kI64:
        switch (op) {
          case Opcode::kAdd:
            for_lanes(m, [&](int l) { dst[l] = from_i64(as_i64(a[l]) + as_i64(b[l])); });
            return;
          case Opcode::kSub:
            for_lanes(m, [&](int l) { dst[l] = from_i64(as_i64(a[l]) - as_i64(b[l])); });
            return;
          case Opcode::kMul:
            for_lanes(m, [&](int l) { dst[l] = from_i64(as_i64(a[l]) * as_i64(b[l])); });
            return;
          case Opcode::kMin:
            for_lanes(m, [&](int l) { dst[l] = from_i64(std::min(as_i64(a[l]), as_i64(b[l]))); });
            return;
          case Opcode::kMax:
            for_lanes(m, [&](int l) { dst[l] = from_i64(std::max(as_i64(a[l]), as_i64(b[l]))); });
            return;
          default:
            break;
        }
        break;
      case VType::kPred:
        break;
    }
    // Int division/remainder (the zero/overflow-guarded expressions) and any
    // degenerate (op, type) pair: defer to the scalar reference helper.
    for_lanes(m, [&](int l) { dst[l] = arith(op, t, a[l], b[l]); });
  }

  /// Comparison lane loops with the predicate hoisted out of the loop; the
  /// `as` projection fixes the operand type exactly as compare() does.
  template <typename As>
  static void compare_lanes(Opcode op, std::uint32_t m, std::uint64_t* dst,
                            const std::uint64_t* a, const std::uint64_t* b, As as) {
    switch (op) {
      case Opcode::kSetLt:
        for_lanes(m, [&](int l) { dst[l] = as(a[l]) < as(b[l]) ? 1 : 0; });
        return;
      case Opcode::kSetLe:
        for_lanes(m, [&](int l) { dst[l] = as(a[l]) <= as(b[l]) ? 1 : 0; });
        return;
      case Opcode::kSetGt:
        for_lanes(m, [&](int l) { dst[l] = as(a[l]) > as(b[l]) ? 1 : 0; });
        return;
      case Opcode::kSetGe:
        for_lanes(m, [&](int l) { dst[l] = as(a[l]) >= as(b[l]) ? 1 : 0; });
        return;
      case Opcode::kSetEq:
        for_lanes(m, [&](int l) { dst[l] = as(a[l]) == as(b[l]) ? 1 : 0; });
        return;
      case Opcode::kSetNe:
        for_lanes(m, [&](int l) { dst[l] = as(a[l]) != as(b[l]) ? 1 : 0; });
        return;
      default:
        return;
    }
  }

  static void bulk_compare(Opcode op, VType t, std::uint32_t m, std::uint64_t* dst,
                           const std::uint64_t* a, const std::uint64_t* b) {
    switch (t) {
      case VType::kI32:
        compare_lanes(op, m, dst, a, b, [](std::uint64_t v) { return as_i32(v); });
        return;
      case VType::kI64:
        compare_lanes(op, m, dst, a, b, [](std::uint64_t v) { return as_i64(v); });
        return;
      case VType::kF32:
        compare_lanes(op, m, dst, a, b, [](std::uint64_t v) { return as_f32(v); });
        return;
      case VType::kF64:
        compare_lanes(op, m, dst, a, b, [](std::uint64_t v) { return as_f64(v); });
        return;
      case VType::kPred:
        compare_lanes(op, m, dst, a, b, [](std::uint64_t v) { return v & 1; });
        return;
    }
  }

  /// Conversion lane loops for one source kind: `as` reads the source the way
  /// convert() does (a double for float sources, an int64 for integer and
  /// predicate sources), and each destination uses convert()'s expression.
  template <typename As>
  static void convert_lanes(VType to, std::uint32_t m, std::uint64_t* dst,
                            const std::uint64_t* a, As as) {
    switch (to) {
      case VType::kI32:
        for_lanes(m, [&](int l) { dst[l] = from_i32(static_cast<std::int32_t>(as(a[l]))); });
        return;
      case VType::kI64:
        for_lanes(m, [&](int l) { dst[l] = from_i64(static_cast<std::int64_t>(as(a[l]))); });
        return;
      case VType::kF32:
        for_lanes(m, [&](int l) { dst[l] = from_f32(static_cast<float>(as(a[l]))); });
        return;
      case VType::kF64:
        for_lanes(m, [&](int l) { dst[l] = from_f64(static_cast<double>(as(a[l]))); });
        return;
      case VType::kPred:
        for_lanes(m, [&](int l) { dst[l] = as(a[l]) != 0 ? 1 : 0; });
        return;
    }
  }

  /// convert() over the active lanes, with the (to, from) dispatch hoisted
  /// out of the lane loop.
  static void bulk_convert(VType to, VType from, std::uint32_t m, std::uint64_t* dst,
                           const std::uint64_t* a) {
    switch (from) {
      case VType::kF32:
        convert_lanes(to, m, dst, a, [](std::uint64_t v) -> double { return as_f32(v); });
        return;
      case VType::kF64:
        convert_lanes(to, m, dst, a, [](std::uint64_t v) { return as_f64(v); });
        return;
      case VType::kI32:
        convert_lanes(to, m, dst, a, [](std::uint64_t v) -> std::int64_t { return as_i32(v); });
        return;
      case VType::kI64:
        convert_lanes(to, m, dst, a, [](std::uint64_t v) { return as_i64(v); });
        return;
      case VType::kPred:
        convert_lanes(to, m, dst, a, [](std::uint64_t v) -> std::int64_t { return v & 1; });
        return;
    }
  }

  /// Executes every instruction of a superblock functionally, in program
  /// order. Safe at block-entry time: the registers are warp-private, the
  /// active mask cannot change inside a block (no control flow), and no
  /// fusable op touches memory — so the values are independent of the issue
  /// cycles the drain later assigns.
  void bulk_execute(Warp& w, const Superblock& b) {
    const bool full = w.active == 0xffffffffu;
    for (std::int32_t pc = b.begin; pc < b.end; ++pc) {
      const Instr& in = k_.code[static_cast<std::size_t>(pc)];
      std::uint64_t* dst = &w.regs[static_cast<std::size_t>(in.dst) * 32];
      auto broadcast = [&](std::uint64_t v) {
        if (full) {
          for (int l = 0; l < 32; ++l) dst[l] = v;
        } else {
          for_active(w, [&](int lane) { dst[lane] = v; });
        }
      };
      auto copy = [&](const std::uint64_t* a) {
        if (full) {
          std::memcpy(dst, a, 32 * sizeof(std::uint64_t));
        } else {
          for_active(w, [&](int lane) { dst[lane] = a[lane]; });
        }
      };
      switch (in.op) {
        case Opcode::kMovImmI:
          broadcast(in.type == VType::kI32 ? from_i32(static_cast<std::int32_t>(in.imm))
                                           : from_i64(in.imm));
          break;
        case Opcode::kMovImmF:
          broadcast(in.type == VType::kF32 ? from_f32(static_cast<float>(in.fimm))
                                           : from_f64(in.fimm));
          break;
        case Opcode::kMov:
          copy(&w.regs[static_cast<std::size_t>(in.a) * 32]);
          break;
        case Opcode::kAdd:
        case Opcode::kSub:
        case Opcode::kMul:
        case Opcode::kDiv:
        case Opcode::kRem:
        case Opcode::kMin:
        case Opcode::kMax: {
          const std::uint64_t* a = &w.regs[static_cast<std::size_t>(in.a) * 32];
          const std::uint64_t* bb = &w.regs[static_cast<std::size_t>(in.b) * 32];
          bulk_arith(in.op, in.type, w.active, dst, a, bb);
          break;
        }
        case Opcode::kNeg:
        case Opcode::kAbs:
        case Opcode::kSqrt:
        case Opcode::kRsqrt:
        case Opcode::kExp:
        case Opcode::kLog:
        case Opcode::kSin:
        case Opcode::kCos:
        case Opcode::kPow:
        case Opcode::kFloor:
        case Opcode::kCeil: {
          const std::uint64_t* a = &w.regs[static_cast<std::size_t>(in.a) * 32];
          const std::uint64_t* bb =
              in.b == vir::kNoReg ? nullptr : &w.regs[static_cast<std::size_t>(in.b) * 32];
          for_active(w, [&](int lane) {
            dst[lane] = unary_fn(in.op, in.type, a[lane], bb ? bb[lane] : 0);
          });
          break;
        }
        case Opcode::kSetLt:
        case Opcode::kSetLe:
        case Opcode::kSetGt:
        case Opcode::kSetGe:
        case Opcode::kSetEq:
        case Opcode::kSetNe: {
          const std::uint64_t* a = &w.regs[static_cast<std::size_t>(in.a) * 32];
          const std::uint64_t* bb = &w.regs[static_cast<std::size_t>(in.b) * 32];
          bulk_compare(in.op, in.type, w.active, dst, a, bb);
          break;
        }
        case Opcode::kPredAnd: {
          const std::uint64_t* a = &w.regs[static_cast<std::size_t>(in.a) * 32];
          const std::uint64_t* bb = &w.regs[static_cast<std::size_t>(in.b) * 32];
          for_lanes(w.active, [&](int lane) { dst[lane] = (a[lane] & bb[lane]) & 1; });
          break;
        }
        case Opcode::kPredOr: {
          const std::uint64_t* a = &w.regs[static_cast<std::size_t>(in.a) * 32];
          const std::uint64_t* bb = &w.regs[static_cast<std::size_t>(in.b) * 32];
          for_lanes(w.active, [&](int lane) { dst[lane] = (a[lane] | bb[lane]) & 1; });
          break;
        }
        case Opcode::kPredNot: {
          const std::uint64_t* a = &w.regs[static_cast<std::size_t>(in.a) * 32];
          for_lanes(w.active, [&](int lane) { dst[lane] = (~a[lane]) & 1; });
          break;
        }
        case Opcode::kSelp: {
          const std::uint64_t* a = &w.regs[static_cast<std::size_t>(in.a) * 32];
          const std::uint64_t* bb = &w.regs[static_cast<std::size_t>(in.b) * 32];
          const std::uint64_t* c = &w.regs[static_cast<std::size_t>(in.c) * 32];
          for_lanes(w.active, [&](int lane) { dst[lane] = (c[lane] & 1) ? a[lane] : bb[lane]; });
          break;
        }
        case Opcode::kCvt:
          bulk_convert(in.type, k_.vreg_types[in.a], w.active, dst,
                       &w.regs[static_cast<std::size_t>(in.a) * 32]);
          break;
        case Opcode::kLdParam:
          broadcast(params_[static_cast<std::size_t>(in.imm)]);
          break;
        case Opcode::kMovSpecial: {
          // %tid varies by lane and comes from the per-launch table; every
          // other special register is uniform across the warp.
          const int code = static_cast<int>(in.imm);
          if (code <= static_cast<int>(SpecialReg::kTidZ)) {
            copy(&dk_.tid[static_cast<std::size_t>(code) * dk_.tid_stride +
                          static_cast<std::size_t>(w.warp_in_block) * 32]);
          } else {
            broadcast(special_value(code, blocks_[static_cast<std::size_t>(w.block_index)], cfg_,
                                    spec_, w.warp_in_block, 0));
          }
          break;
        }
        default:
          break;  // terminators never appear inside a superblock
      }
    }
  }

  // -- functional helpers -----------------------------------------------------

  template <typename Fn>
  void for_active(Warp& w, Fn&& fn) {
    for (int lane = 0; lane < 32; ++lane) {
      if (w.active & (1u << lane)) fn(lane);
    }
  }

  // -- memory -----------------------------------------------------------------

  /// Distinct-value accumulator for the per-warp coalescing sets (segments,
  /// cache lines): at most 64 entries, almost always 1-2 distinct values, so
  /// a linear scan beats a node-allocating std::set on every access pattern
  /// the simulator sees. Yields exactly the distinct count/values a set would.
  struct DistinctSet {
    std::uint64_t vals[64];
    int n = 0;

    void insert(std::uint64_t v) {
      for (int i = 0; i < n; ++i) {
        if (vals[i] == v) return;
      }
      vals[n++] = v;
    }
    void sort() { std::sort(vals, vals + n); }
  };

  /// Number of `memory_segment`-byte transactions the active lanes generate.
  int count_transactions(Warp& w, std::uint32_t addr_reg, int access_bytes) {
    DistinctSet segments;
    const std::uint64_t seg = static_cast<std::uint64_t>(spec_.memory_segment);
    for_active(w, [&](int lane) {
      std::uint64_t addr = reg(w, addr_reg, lane);
      segments.insert(addr / seg);
      // An access straddling a segment boundary costs a second transaction.
      if ((addr % seg) + static_cast<std::uint64_t>(access_bytes) > seg) {
        segments.insert(addr / seg + 1);
      }
    });
    return segments.n;
  }

  std::uint64_t load_lane(std::uint64_t addr, VType t) {
    if (tracker_) AccessTracker::note(tracker_->reads, addr, vir::size_of(t));
    switch (t) {
      case VType::kI32: return from_i32(mem_.load<std::int32_t>(addr));
      case VType::kI64: return from_i64(mem_.load<std::int64_t>(addr));
      case VType::kF32: return from_f32(mem_.load<float>(addr));
      case VType::kF64: return from_f64(mem_.load<double>(addr));
      case VType::kPred: return mem_.load<std::uint8_t>(addr) & 1;
    }
    return 0;
  }

  void store_lane(std::uint64_t addr, VType t, std::uint64_t v) {
    if (tracker_) AccessTracker::note(tracker_->writes, addr, vir::size_of(t));
    switch (t) {
      case VType::kI32: mem_.store<std::int32_t>(addr, as_i32(v)); break;
      case VType::kI64: mem_.store<std::int64_t>(addr, as_i64(v)); break;
      case VType::kF32: mem_.store<float>(addr, as_f32(v)); break;
      case VType::kF64: mem_.store<double>(addr, as_f64(v)); break;
      case VType::kPred: mem_.store<std::uint8_t>(addr, v & 1); break;
    }
  }

  /// Warp-wide load/store with the type dispatch (and the access-tracker
  /// check) hoisted out of the lane loop; lane semantics — including the
  /// per-lane bounds check — are exactly load_lane/store_lane's.
  void bulk_load(Warp& w, std::uint32_t dst_reg, std::uint32_t addr_reg, VType t) {
    std::uint64_t* dst = &w.regs[static_cast<std::size_t>(dst_reg) * 32];
    const std::uint64_t* ap = &w.regs[static_cast<std::size_t>(addr_reg) * 32];
    if (tracker_) {
      for_lanes(w.active, [&](int l) { dst[l] = load_lane(ap[l], t); });
      return;
    }
    switch (t) {
      case VType::kI32:
        for_lanes(w.active, [&](int l) { dst[l] = from_i32(mem_.load<std::int32_t>(ap[l])); });
        return;
      case VType::kI64:
        for_lanes(w.active, [&](int l) { dst[l] = from_i64(mem_.load<std::int64_t>(ap[l])); });
        return;
      case VType::kF32:
        for_lanes(w.active, [&](int l) { dst[l] = from_f32(mem_.load<float>(ap[l])); });
        return;
      case VType::kF64:
        for_lanes(w.active, [&](int l) { dst[l] = from_f64(mem_.load<double>(ap[l])); });
        return;
      case VType::kPred:
        for_lanes(w.active, [&](int l) { dst[l] = mem_.load<std::uint8_t>(ap[l]) & 1; });
        return;
    }
  }

  void bulk_store(Warp& w, std::uint32_t addr_reg, std::uint32_t val_reg, VType t) {
    const std::uint64_t* ap = &w.regs[static_cast<std::size_t>(addr_reg) * 32];
    const std::uint64_t* vp = &w.regs[static_cast<std::size_t>(val_reg) * 32];
    if (tracker_) {
      for_lanes(w.active, [&](int l) { store_lane(ap[l], t, vp[l]); });
      return;
    }
    switch (t) {
      case VType::kI32:
        for_lanes(w.active, [&](int l) { mem_.store<std::int32_t>(ap[l], as_i32(vp[l])); });
        return;
      case VType::kI64:
        for_lanes(w.active, [&](int l) { mem_.store<std::int64_t>(ap[l], as_i64(vp[l])); });
        return;
      case VType::kF32:
        for_lanes(w.active, [&](int l) { mem_.store<float>(ap[l], as_f32(vp[l])); });
        return;
      case VType::kF64:
        for_lanes(w.active, [&](int l) { mem_.store<double>(ap[l], as_f64(vp[l])); });
        return;
      case VType::kPred:
        for_lanes(w.active, [&](int l) { mem_.store<std::uint8_t>(ap[l], vp[l] & 1); });
        return;
    }
  }

  // -- execution ----------------------------------------------------------------

  void execute(Warp& w, const Instr& in, const DecodedInstr& d, int extra_latency) {
    const LatencyModel& lat = spec_.lat;
    switch (in.op) {
      case Opcode::kMovImmI: {
        std::uint64_t v = in.type == VType::kI32
                              ? from_i32(static_cast<std::int32_t>(in.imm))
                              : from_i64(in.imm);
        for_active(w, [&](int lane) { reg(w, in.dst, lane) = v; });
        set_result(w, in, lat.alu + extra_latency);
        return;
      }
      case Opcode::kMovImmF: {
        std::uint64_t v = in.type == VType::kF32 ? from_f32(static_cast<float>(in.fimm))
                                                 : from_f64(in.fimm);
        for_active(w, [&](int lane) { reg(w, in.dst, lane) = v; });
        set_result(w, in, lat.alu + extra_latency);
        return;
      }
      case Opcode::kMov:
        for_active(w, [&](int lane) { reg(w, in.dst, lane) = reg(w, in.a, lane); });
        set_result(w, in, lat.alu + extra_latency);
        return;
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
      case Opcode::kDiv:
      case Opcode::kRem:
      case Opcode::kMin:
      case Opcode::kMax: {
        for_active(w, [&](int lane) {
          reg(w, in.dst, lane) = arith(in.op, in.type, reg(w, in.a, lane), reg(w, in.b, lane));
        });
        set_result(w, in, static_cast<int>(d.exec_latency) + extra_latency);
        return;
      }
      case Opcode::kNeg:
      case Opcode::kAbs:
        for_active(w, [&](int lane) {
          reg(w, in.dst, lane) = unary_fn(in.op, in.type, reg(w, in.a, lane), 0);
        });
        set_result(w, in, lat.alu + extra_latency);
        return;
      case Opcode::kSqrt:
      case Opcode::kRsqrt:
      case Opcode::kExp:
      case Opcode::kLog:
      case Opcode::kSin:
      case Opcode::kCos:
      case Opcode::kPow:
      case Opcode::kFloor:
      case Opcode::kCeil:
        for_active(w, [&](int lane) {
          reg(w, in.dst, lane) = unary_fn(in.op, in.type, reg(w, in.a, lane),
                                          in.b == vir::kNoReg ? 0 : reg(w, in.b, lane));
        });
        set_result(w, in, static_cast<int>(d.exec_latency) + extra_latency);
        return;
      case Opcode::kSetLt:
      case Opcode::kSetLe:
      case Opcode::kSetGt:
      case Opcode::kSetGe:
      case Opcode::kSetEq:
      case Opcode::kSetNe:
        for_active(w, [&](int lane) {
          reg(w, in.dst, lane) =
              compare(in.op, in.type, reg(w, in.a, lane), reg(w, in.b, lane)) ? 1 : 0;
        });
        set_result(w, in, lat.alu + extra_latency);
        return;
      case Opcode::kPredAnd:
        for_active(w, [&](int lane) {
          reg(w, in.dst, lane) = (reg(w, in.a, lane) & reg(w, in.b, lane)) & 1;
        });
        set_result(w, in, lat.alu + extra_latency);
        return;
      case Opcode::kPredOr:
        for_active(w, [&](int lane) {
          reg(w, in.dst, lane) = (reg(w, in.a, lane) | reg(w, in.b, lane)) & 1;
        });
        set_result(w, in, lat.alu + extra_latency);
        return;
      case Opcode::kPredNot:
        for_active(w, [&](int lane) { reg(w, in.dst, lane) = (~reg(w, in.a, lane)) & 1; });
        set_result(w, in, lat.alu + extra_latency);
        return;
      case Opcode::kSelp:
        for_active(w, [&](int lane) {
          reg(w, in.dst, lane) =
              (reg(w, in.c, lane) & 1) ? reg(w, in.a, lane) : reg(w, in.b, lane);
        });
        set_result(w, in, lat.alu + extra_latency);
        return;
      case Opcode::kCvt:
        for_active(w, [&](int lane) {
          reg(w, in.dst, lane) = convert(in.type, k_.vreg_types[in.a], reg(w, in.a, lane));
        });
        set_result(w, in, lat.alu + extra_latency);
        return;
      case Opcode::kLdParam: {
        std::uint64_t v = params_[static_cast<std::size_t>(in.imm)];
        for_active(w, [&](int lane) { reg(w, in.dst, lane) = v; });
        set_result(w, in, lat.alu + extra_latency);
        return;
      }
      case Opcode::kMovSpecial: {
        const int code = static_cast<int>(in.imm);
        const ResidentBlock& rb = blocks_[static_cast<std::size_t>(w.block_index)];
        for_active(w, [&](int lane) {
          reg(w, in.dst, lane) = special_value(code, rb, cfg_, spec_, w.warp_in_block, lane);
        });
        set_result(w, in, lat.alu + extra_latency);
        return;
      }
      case Opcode::kLdGlobal: {
        const int bytes = vir::size_of(in.type);
        const int ntx = count_transactions(w, in.a, bytes);
        stats_.mem_transactions += static_cast<std::uint64_t>(ntx);
        ++stats_.global_loads;
        int latency;
        if (in.flags & Instr::kFlagReadOnly) {
          // Probe the RO cache per line; hits bypass the memory pipeline,
          // misses queue on it like ordinary global traffic. Lines probe in
          // ascending order — the iteration order the original std::set gave —
          // because probe order feeds the cache's replacement state.
          int miss_lines = 0;
          DistinctSet lines;
          for_active(w, [&](int lane) {
            lines.insert(reg(w, in.a, lane) / static_cast<std::uint64_t>(spec_.ro_cache_line));
          });
          lines.sort();
          for (int li = 0; li < lines.n; ++li) {
            if (!ro_cache_.access(lines.vals[li] *
                                  static_cast<std::uint64_t>(spec_.ro_cache_line))) {
              ++miss_lines;
            }
          }
          stats_.ro_hits += ro_cache_.hits() - ro_hits_seen_;
          stats_.ro_misses += ro_cache_.misses() - ro_misses_seen_;
          ro_hits_seen_ = ro_cache_.hits();
          ro_misses_seen_ = ro_cache_.misses();
          std::int64_t wait = 0;
          if (miss_lines > 0) wait = mem_occupy(miss_lines);
          latency = static_cast<int>(wait) +
                    (miss_lines > 0 ? lat.ro_cache_miss : lat.ro_cache_hit) +
                    miss_lines * lat.tx_cycles;
        } else {
          std::int64_t wait = mem_occupy(ntx);
          latency = static_cast<int>(wait) + lat.global_base + ntx * lat.tx_cycles;
        }
        bulk_load(w, in.dst, in.a, in.type);
        set_result(w, in, latency + extra_latency, /*mem_result=*/true);
        return;
      }
      case Opcode::kStGlobal: {
        const int bytes = vir::size_of(in.type);
        const int ntx = count_transactions(w, in.a, bytes);
        stats_.mem_transactions += static_cast<std::uint64_t>(ntx);
        ++stats_.global_stores;
        mem_occupy(ntx);  // stores consume bandwidth but don't stall the warp
        bulk_store(w, in.a, in.b, in.type);
        w.ready_cycle = cycle_ + lat.store_issue + extra_latency;
        if (prof_) w.wait_reason = kWaitMemory;
        w.pc += 1;
        return;
      }
      case Opcode::kAtomAdd: {
        ++stats_.atomics;
        const int ntx = count_transactions(w, in.a, vir::size_of(in.type));
        stats_.mem_transactions += static_cast<std::uint64_t>(ntx);
        std::int64_t wait = mem_occupy(2 * ntx);  // read-modify-write traffic
        // Lanes update sequentially (hardware serializes conflicting atomics).
        for_active(w, [&](int lane) {
          std::uint64_t addr = reg(w, in.a, lane);
          std::uint64_t old_v = load_lane(addr, in.type);
          std::uint64_t add_v = reg(w, in.b, lane);
          store_lane(addr, in.type, arith(Opcode::kAdd, in.type, old_v, add_v));
        });
        w.ready_cycle = cycle_ + wait + lat.atomic + extra_latency;
        if (prof_) w.wait_reason = kWaitMemory;
        w.pc += 1;
        return;
      }
      case Opcode::kBra:
        w.pc = k_.target(static_cast<std::int32_t>(in.imm));
        w.ready_cycle = cycle_ + 1;
        return;
      case Opcode::kCbr: {
        std::uint32_t taken = 0;
        for_active(w, [&](int lane) {
          if (reg(w, in.a, lane) & 1) taken |= (1u << lane);
        });
        std::uint32_t fall = w.active & ~taken;
        const std::int32_t target = k_.target(static_cast<std::int32_t>(in.imm));
        const std::int32_t reconv = k_.target(in.imm2);
        w.ready_cycle = cycle_ + 1;
        if (fall == 0) {
          w.pc = target;
        } else if (taken == 0) {
          w.pc += 1;
        } else {
          // Divergence. Merge into an existing entry for the same
          // (reconvergence, target) — the loop-exit pattern — to keep the
          // stack bounded by nesting depth rather than trip count.
          if (!w.stack.empty() && w.stack.back().reconv_pc == reconv &&
              w.stack.back().other_pc == target) {
            w.stack.back().other_mask |= taken;
          } else {
            SimtEntry e;
            e.reconv_pc = reconv;
            e.other_pc = target;
            e.other_mask = taken;
            e.merged_mask = w.active;
            w.stack.push_back(e);
          }
          w.active = fall;
          w.pc += 1;
        }
        return;
      }
      case Opcode::kPhi:
        // Phis exist only between SSA construction and destruction inside the
        // pass pipeline; the allocator and simulator operate on phi-free code.
        throw std::runtime_error("vgpu: phi instruction reached the simulator");
      case Opcode::kExit:
        w.finished = true;
        return;
    }
  }

  const Kernel& k_;
  const DecodedKernel& dk_;
  const regalloc::AllocationResult& alloc_;
  const DeviceSpec& spec_;
  DeviceMemory& mem_;
  const std::vector<std::uint64_t>& params_;
  const LaunchConfig& cfg_;
  LaunchStats& stats_;
  obs::SmProfile* prof_;
  AccessTracker* tracker_;
  CacheModel ro_cache_;
  std::uint64_t ro_hits_seen_ = 0;
  std::uint64_t ro_misses_seen_ = 0;
  std::uint64_t superblock_retires_ = 0;

  static constexpr std::int64_t kWheelSlots = 64;

  const std::vector<std::int64_t>* pending_ = nullptr;  // run()'s block list, not copied
  std::size_t next_pending_ = 0;
  std::vector<ResidentBlock> blocks_;
  std::vector<std::unique_ptr<Warp>> warps_;
  std::vector<std::unique_ptr<Warp>> warp_pool_;  // retired warps, reused by admit_block
  // The warp schedule (see file_warp): warp masks indexed like warps_.
  std::uint64_t ready_ = 0;
  std::uint64_t wheel_[kWheelSlots] = {};
  std::uint64_t wheel_slots_ = 0;  // bit s set iff wheel_[s] != 0
  std::uint64_t far_ = 0;
  std::int64_t far_min_ = std::numeric_limits<std::int64_t>::max();  // earliest far wake
  std::int64_t cycle_ = 0;
  std::int64_t mem_free_ = 0;
  // The pc step() last consumed an issue slot for (only maintained when
  // profiling); the run() loop reads it to credit per-pc issue counters.
  std::int32_t last_issue_pc_ = 0;
};

// -- host threading state ------------------------------------------------------

int g_sim_threads_override = 0;  // 0 = use the hardware default

int default_sim_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

// One SM's slice of a launch: its block list plus private result storage.
// Counters accumulate into `stats` (zero-initialized) and are merged into the
// launch-wide LaunchStats in SM order afterwards — uint64 addition makes that
// merge bit-identical to the seed's shared-accumulator sequential loop.
struct SmWork {
  int sm = 0;
  std::vector<std::int64_t> blocks;
  LaunchStats stats;
  obs::SmProfile prof;
  std::uint64_t cycles = 0;
  std::uint64_t sb_retires = 0;
};

/// The overlap checker that guards the SM-independence assumption: simulates the
/// launch sequentially against a scratch copy of device memory, recording the
/// 4-byte granules each SM reads and writes, and reports whether any SM's
/// writes overlap another SM's reads or writes. Conservative: a `false`
/// verdict (including a shadow-pass exception) just forces the sequential
/// path, which reproduces seed semantics exactly.
bool sm_writes_disjoint(const Kernel& kernel, const DecodedKernel& dk,
                        const regalloc::AllocationResult& alloc, const DeviceSpec& spec,
                        const DeviceMemory& mem, const std::vector<std::uint64_t>& params,
                        const LaunchConfig& cfg, const std::vector<SmWork>& work,
                        int blocks_per_sm) {
  DeviceMemory shadow = mem;
  std::vector<AccessTracker> trackers(work.size());
  try {
    for (std::size_t i = 0; i < work.size(); ++i) {
      LaunchStats scratch;
      SmSimulator sim(kernel, dk, alloc, spec, shadow, params, cfg, scratch,
                      /*prof=*/nullptr, &trackers[i]);
      sim.run(work[i].blocks, blocks_per_sm);
    }
  } catch (...) {
    return false;  // let the sequential run surface the error with seed semantics
  }
  std::unordered_map<std::uint64_t, std::size_t> writer;
  for (std::size_t i = 0; i < trackers.size(); ++i) {
    for (std::uint64_t g : trackers[i].writes) {
      auto [it, inserted] = writer.emplace(g, i);
      if (!inserted && it->second != i) return false;
    }
  }
  for (std::size_t i = 0; i < trackers.size(); ++i) {
    for (std::uint64_t g : trackers[i].reads) {
      auto it = writer.find(g);
      if (it != writer.end() && it->second != i) return false;
    }
  }
  return true;
}

}  // namespace

void set_sim_threads(int n) { g_sim_threads_override = n > 0 ? n : 0; }

int sim_threads() {
  return g_sim_threads_override > 0 ? g_sim_threads_override : default_sim_threads();
}

bool parse_sim_dispatch(std::string_view text, SimDispatch& out) {
  if (text == "super") {
    out = SimDispatch::kSuper;
    return true;
  }
  if (text == "ref") {
    out = SimDispatch::kRef;
    return true;
  }
  return false;
}

const char* to_string(SimDispatch d) {
  return d == SimDispatch::kRef ? "ref" : "super";
}

SuperblockOpInfo superblock_op_info(vir::Opcode op, vir::VType type, const DeviceSpec& spec) {
  const LatencyModel& lat = spec.lat;
  SuperblockOpInfo info;
  switch (op) {
    case Opcode::kLdGlobal:
    case Opcode::kStGlobal:
    case Opcode::kAtomAdd:
    case Opcode::kBra:
    case Opcode::kCbr:
    case Opcode::kExit:
      info.terminator = true;
      return info;
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kRem:
    case Opcode::kMin:
    case Opcode::kMax: {
      const bool is_int = type == VType::kI32 || type == VType::kI64;
      int l = lat.alu;
      if ((op == Opcode::kDiv || op == Opcode::kRem) && is_int) l = lat.int_div;
      if (op == Opcode::kMul && type == VType::kI64) l = lat.imul64;
      if (op == Opcode::kDiv && !is_int) l = lat.sfu;
      info.latency = l;
      return info;
    }
    case Opcode::kSqrt:
    case Opcode::kRsqrt:
    case Opcode::kExp:
    case Opcode::kLog:
    case Opcode::kSin:
    case Opcode::kCos:
    case Opcode::kPow:
    case Opcode::kFloor:
    case Opcode::kCeil:
      info.latency = lat.sfu;
      return info;
    default:
      info.latency = lat.alu;
      return info;
  }
}

obs::json::Value LaunchStats::to_json() const {
  obs::json::Value v = obs::json::Value::object();
  v["cycles"] = obs::json::Value(cycles);
  v["warp_instructions"] = obs::json::Value(warp_instructions);
  v["mem_transactions"] = obs::json::Value(mem_transactions);
  v["global_loads"] = obs::json::Value(global_loads);
  v["global_stores"] = obs::json::Value(global_stores);
  v["ro_hits"] = obs::json::Value(ro_hits);
  v["ro_misses"] = obs::json::Value(ro_misses);
  v["atomics"] = obs::json::Value(atomics);
  v["spill_accesses"] = obs::json::Value(spill_accesses);
  v["shared_accesses"] = obs::json::Value(shared_accesses);
  v["shared_bank_conflicts"] = obs::json::Value(shared_bank_conflicts);
  v["regs_per_thread"] = obs::json::Value(regs_per_thread);
  v["occupancy"] = obs::json::Value(occupancy);
  v["occupancy_limiter"] = obs::json::Value(to_string(occupancy_limiter));
  return v;
}

LaunchStats launch(const Kernel& kernel, const regalloc::AllocationResult& alloc,
                   const DeviceSpec& spec, DeviceMemory& mem,
                   const std::vector<std::uint64_t>& params, const LaunchConfig& cfg,
                   obs::Collector* collector, const SimOptions& sim) {
  if (params.size() != kernel.params.size()) {
    throw std::runtime_error("launch: parameter count mismatch for kernel " + kernel.name);
  }
  obs::ScopedSpan span(obs::tracer_of(collector), "sim.launch", "sim");
  span.set_arg("kernel", obs::json::Value(kernel.name));

  LaunchStats stats;
  stats.regs_per_thread = std::max(alloc.regs_used, 1);

  // A RegDem shared spill frame is per-thread; the whole block's frames are
  // one shared-memory allocation competing with occupancy.
  const std::int64_t shared_per_block =
      static_cast<std::int64_t>(alloc.shared_spill_bytes) * cfg.threads_per_block();
  Occupancy occ = compute_occupancy(spec, stats.regs_per_thread,
                                    cfg.threads_per_block(), shared_per_block);
  stats.occupancy = occ.ratio;
  stats.occupancy_limiter = occ.limiter;
  const int blocks_per_sm = std::max(occ.blocks_per_sm, 1);
  const std::int64_t resident_warps =
      static_cast<std::int64_t>(blocks_per_sm) *
      ((cfg.threads_per_block() + spec.warp_size - 1) / spec.warp_size);
  if (resident_warps > kMaxResidentWarps) {
    throw std::runtime_error("launch: kernel " + kernel.name + " would keep " +
                             std::to_string(resident_warps) +
                             " warps resident per SM; the simulator holds at most " +
                             std::to_string(kMaxResidentWarps));
  }

  obs::KernelSimProfile* kprof =
      collector ? &collector->begin_kernel_profile(kernel.name) : nullptr;

  const SimDispatch dispatch = sim.dispatch;
  const DecodedKernel dk = decode(kernel, alloc, spec, cfg, dispatch == SimDispatch::kSuper);

  // Static round-robin distribution of blocks over SMs (documented
  // simplification); empty SMs are skipped, matching the seed loop.
  const std::int64_t total = cfg.total_blocks();
  std::vector<SmWork> work;
  work.reserve(static_cast<std::size_t>(
      std::min<std::int64_t>(spec.num_sms, std::max<std::int64_t>(total, 0))));
  for (int sm = 0; sm < spec.num_sms; ++sm) {
    std::vector<std::int64_t> mine;
    if (sm < total) {
      mine.reserve(static_cast<std::size_t>((total - sm + spec.num_sms - 1) / spec.num_sms));
    }
    for (std::int64_t b = sm; b < total; b += spec.num_sms) mine.push_back(b);
    if (mine.empty()) continue;
    SmWork wk;
    wk.sm = sm;
    wk.blocks = std::move(mine);
    wk.prof.sm = sm;
    work.push_back(std::move(wk));
  }

  // SMs are architecturally independent, so each one can be simulated on its
  // own host thread against private LaunchStats/SmProfile storage. Kernels
  // with atomics are the sanctioned exception — cross-SM read-modify-write
  // order matters — so they always take the sequential path. The overlap
  // checker, when armed, guards the independence assumption for everything
  // else. Inside a pool job (an eval_grid cell) the job owns the threads.
  const int threads = support::ThreadPool::in_parallel_for() ? 1
                      : sim.threads > 0                      ? sim.threads
                                                             : sim_threads();
  bool parallel = threads > 1 && work.size() > 1 && !dk.has_atomics;
  bool overlap_fallback = false;
  if (parallel && sim.check_overlap &&
      !sm_writes_disjoint(kernel, dk, alloc, spec, mem, params, cfg, work, blocks_per_sm)) {
    parallel = false;
    overlap_fallback = true;
    std::fprintf(stderr,
                 "safara: sim.launch(%s): cross-SM memory overlap detected; "
                 "falling back to sequential simulation\n",
                 kernel.name.c_str());
  }

  auto run_one = [&](std::int64_t i) {
    SmWork& wk = work[static_cast<std::size_t>(i)];
    SmSimulator sim(kernel, dk, alloc, spec, mem, params, cfg, wk.stats,
                    kprof ? &wk.prof : nullptr);
    wk.cycles = sim.run(wk.blocks, blocks_per_sm);
    wk.sb_retires = sim.superblock_retires();
  };
  if (parallel) {
    support::ThreadPool::shared().parallel_for(
        threads, static_cast<std::int64_t>(work.size()), run_one);
  } else {
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(work.size()); ++i) run_one(i);
  }

  // Deterministic merge, in SM order. Every mutated LaunchStats field is an
  // additive uint64 counter (cycles is a max), so the merged totals are
  // bit-identical to the seed's single shared accumulator for any thread
  // count, including 1.
  // Superblock fast-path diagnostics live outside LaunchStats/SmProfile so
  // both dispatch engines produce bit-identical stats and profiles.
  std::uint64_t sb_retires = 0;
  for (SmWork& wk : work) {
    stats.cycles = std::max(stats.cycles, wk.cycles);
    stats.warp_instructions += wk.stats.warp_instructions;
    stats.mem_transactions += wk.stats.mem_transactions;
    stats.global_loads += wk.stats.global_loads;
    stats.global_stores += wk.stats.global_stores;
    stats.ro_hits += wk.stats.ro_hits;
    stats.ro_misses += wk.stats.ro_misses;
    stats.atomics += wk.stats.atomics;
    stats.spill_accesses += wk.stats.spill_accesses;
    stats.shared_accesses += wk.stats.shared_accesses;
    stats.shared_bank_conflicts += wk.stats.shared_bank_conflicts;
    sb_retires += wk.sb_retires;
    if (kprof) kprof->sms.push_back(std::move(wk.prof));
  }

  if (collector) {
    // An SM that drains early sits with no resident warp until the slowest
    // SM finishes — that tail is the launch's load-imbalance stall.
    for (obs::SmProfile& p : kprof->sms) {
      p.stall_no_warp = stats.cycles - p.cycles;
    }
    // Perfetto counter tracks: one active-warp timeline per SM, laid out on
    // the collector's cumulative virtual-cycle axis so successive launches
    // appear end to end. Virtual time lives on its own pid (2) to keep it
    // apart from the wall-clock span timeline.
    const std::int64_t base = static_cast<std::int64_t>(collector->sim_cycle_offset);
    for (const obs::SmProfile& p : kprof->sms) {
      const std::string track = "sm" + std::to_string(p.sm) + ".active_warps";
      std::int64_t last = -1;
      for (const obs::WarpSample& s : p.warp_timeline) {
        last = static_cast<std::int64_t>(s.cycle);
        collector->tracer.add_counter(track, base + last, static_cast<double>(s.warps),
                                      /*pid=*/2, /*tid=*/p.sm + 1);
      }
      // Close the track at launch end so the counter drops to this SM's
      // final (drained) state instead of holding its last value forever —
      // unless the timeline already ends there (the slowest SM drains at
      // exactly stats.cycles); per-track timestamps stay strictly increasing.
      if (last != static_cast<std::int64_t>(stats.cycles)) {
        collector->tracer.add_counter(track, base + static_cast<std::int64_t>(stats.cycles),
                                      0.0, /*pid=*/2, /*tid=*/p.sm + 1);
      }
    }
    // +1 so the next launch's cycle-0 samples land strictly after this
    // launch's closing samples on every track.
    collector->sim_cycle_offset += stats.cycles + 1;
    kprof->launch_stats = stats.to_json();
    collector->metrics.add("sim.launches");
    collector->metrics.add("sim.cycles", static_cast<std::int64_t>(stats.cycles));
    collector->metrics.add("sim.warp_instructions",
                           static_cast<std::int64_t>(stats.warp_instructions));
    collector->metrics.add("sim.mem_transactions",
                           static_cast<std::int64_t>(stats.mem_transactions));
    collector->metrics.add("sim.spill_accesses",
                           static_cast<std::int64_t>(stats.spill_accesses));
    collector->metrics.add("sim.shared_accesses",
                           static_cast<std::int64_t>(stats.shared_accesses));
    collector->metrics.add("sim.shared_bank_conflicts",
                           static_cast<std::int64_t>(stats.shared_bank_conflicts));
    if (parallel) collector->metrics.add("sim.parallel_launches");
    if (overlap_fallback) collector->metrics.add("sim.overlap_fallbacks");
    if (dispatch == SimDispatch::kSuper) {
      collector->metrics.add("sim.superblocks", static_cast<std::int64_t>(dk.blocks.size()));
      collector->metrics.add("sim.superblock_retires", static_cast<std::int64_t>(sb_retires));
    }
    span.set_arg("dispatch", obs::json::Value(to_string(dispatch)));
    span.set_arg("cycles", obs::json::Value(stats.cycles));
    span.set_arg("regs_per_thread", obs::json::Value(stats.regs_per_thread));
    span.set_arg("occupancy", obs::json::Value(stats.occupancy));
    span.set_arg("sim_threads", obs::json::Value(parallel ? threads : 1));
    if (overlap_fallback) span.set_arg("overlap_fallback", obs::json::Value(true));
  }
  return stats;
}

}  // namespace safara::vgpu

// Tests for the virtual ISA utilities: CFG construction, liveness, and the
// ptxas-sim linear-scan allocator (register counts, 64-bit pairing, spills
// with their full accounting, and end-to-end correctness under spilling).
#include <gtest/gtest.h>

#include <cstdint>

#include "regalloc/regalloc.hpp"
#include "tests_common.hpp"
#include "vir/liveness.hpp"
#include "vir/vir.hpp"

namespace safara::vir {
namespace {

/// Tiny builder for hand-written kernels.
class KB {
 public:
  std::uint32_t reg(VType t) {
    k.vreg_types.push_back(t);
    return k.num_vregs() - 1;
  }
  std::int32_t label() {
    k.labels.push_back(-1);
    return static_cast<std::int32_t>(k.labels.size() - 1);
  }
  void place(std::int32_t l) { k.labels[static_cast<std::size_t>(l)] = size(); }
  std::int32_t size() const { return static_cast<std::int32_t>(k.code.size()); }

  Instr& emit(Opcode op, VType t, std::uint32_t dst = kNoReg, std::uint32_t a = kNoReg,
              std::uint32_t b = kNoReg) {
    Instr in;
    in.op = op;
    in.type = t;
    in.dst = dst;
    in.a = a;
    in.b = b;
    k.code.push_back(in);
    return k.code.back();
  }

  Kernel k;
};

TEST(Cfg, StraightLineIsOneBlock) {
  KB b;
  auto r0 = b.reg(VType::kI32);
  auto r1 = b.reg(VType::kI32);
  b.emit(Opcode::kMovImmI, VType::kI32, r0).imm = 1;
  b.emit(Opcode::kAdd, VType::kI32, r1, r0, r0);
  b.emit(Opcode::kExit, VType::kI32);
  auto blocks = build_cfg(b.k);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_TRUE(blocks[0].succs.empty());
}

TEST(Cfg, LoopHasBackedge) {
  KB b;
  auto iv = b.reg(VType::kI32);
  auto bound = b.reg(VType::kI32);
  auto pred = b.reg(VType::kPred);
  std::int32_t head = b.label();
  std::int32_t exit = b.label();
  b.emit(Opcode::kMovImmI, VType::kI32, iv).imm = 0;
  b.emit(Opcode::kMovImmI, VType::kI32, bound).imm = 10;
  b.place(head);
  b.emit(Opcode::kSetGe, VType::kI32, pred, iv, bound);
  {
    Instr& br = b.emit(Opcode::kCbr, VType::kI32, kNoReg, pred);
    br.imm = exit;
    br.imm2 = exit;
  }
  auto one = b.reg(VType::kI32);
  b.emit(Opcode::kMovImmI, VType::kI32, one).imm = 1;
  b.emit(Opcode::kAdd, VType::kI32, iv, iv, one);
  b.emit(Opcode::kBra, VType::kI32).imm = head;
  b.place(exit);
  b.emit(Opcode::kExit, VType::kI32);

  auto blocks = build_cfg(b.k);
  ASSERT_GE(blocks.size(), 3u);
  bool has_backedge = false;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    for (std::int32_t s : blocks[i].succs) {
      if (s <= static_cast<std::int32_t>(i)) has_backedge = true;
    }
  }
  EXPECT_TRUE(has_backedge);
}

TEST(Liveness, LoopCarriedValueSpansLoop) {
  KB b;
  auto iv = b.reg(VType::kI32);
  auto bound = b.reg(VType::kI32);
  auto pred = b.reg(VType::kPred);
  auto one = b.reg(VType::kI32);
  std::int32_t head = b.label();
  std::int32_t exit = b.label();
  b.emit(Opcode::kMovImmI, VType::kI32, iv).imm = 0;          // 0
  b.emit(Opcode::kMovImmI, VType::kI32, bound).imm = 10;      // 1
  b.emit(Opcode::kMovImmI, VType::kI32, one).imm = 1;         // 2
  b.place(head);
  b.emit(Opcode::kSetGe, VType::kI32, pred, iv, bound);       // 3
  {
    Instr& br = b.emit(Opcode::kCbr, VType::kI32, kNoReg, pred);  // 4
    br.imm = exit;
    br.imm2 = exit;
  }
  b.emit(Opcode::kAdd, VType::kI32, iv, iv, one);             // 5
  b.emit(Opcode::kBra, VType::kI32).imm = head;               // 6
  b.place(exit);
  b.emit(Opcode::kExit, VType::kI32);                         // 7

  auto intervals = compute_live_intervals(b.k);
  const LiveInterval* iv_interval = nullptr;
  for (const LiveInterval& li : intervals) {
    if (li.vreg == iv) iv_interval = &li;
  }
  ASSERT_NE(iv_interval, nullptr);
  EXPECT_LE(iv_interval->start, 0);
  EXPECT_GE(iv_interval->end, 5);  // live across the whole loop
}

TEST(Liveness, MultiBlockValueCoversAllUses) {
  // Diamond: `a` is defined in the entry block and read in both arms plus the
  // join — its interval must span from the def to the join's use even though
  // no single block contains both endpoints.
  KB b;
  auto a = b.reg(VType::kI32);
  auto p = b.reg(VType::kPred);
  auto t = b.reg(VType::kI32);
  auto e = b.reg(VType::kI32);
  auto j = b.reg(VType::kI32);
  std::int32_t else_l = b.label();
  std::int32_t join_l = b.label();
  b.emit(Opcode::kMovImmI, VType::kI32, a).imm = 5;            // 0
  b.emit(Opcode::kSetLt, VType::kI32, p, a, a);                // 1
  {
    Instr& br = b.emit(Opcode::kCbr, VType::kI32, kNoReg, p);  // 2
    br.imm = else_l;
    br.imm2 = join_l;
  }
  b.emit(Opcode::kAdd, VType::kI32, t, a, a);                  // 3 (then arm)
  b.emit(Opcode::kBra, VType::kI32).imm = join_l;              // 4
  b.place(else_l);
  b.emit(Opcode::kAdd, VType::kI32, e, a, a);                  // 5 (else arm)
  b.place(join_l);
  b.emit(Opcode::kAdd, VType::kI32, j, a, a);                  // 6 (join)
  b.emit(Opcode::kExit, VType::kI32);                          // 7

  auto intervals = compute_live_intervals(b.k);
  const LiveInterval* ai = nullptr;
  for (const LiveInterval& li : intervals) {
    if (li.vreg == a) ai = &li;
  }
  ASSERT_NE(ai, nullptr);
  EXPECT_LE(ai->start, 0);
  EXPECT_GE(ai->end, 6);
}

TEST(Liveness, DeadRegisterGetsNoInterval) {
  KB b;
  auto used = b.reg(VType::kI32);
  b.reg(VType::kI32);  // never referenced
  b.emit(Opcode::kMovImmI, VType::kI32, used).imm = 1;
  b.emit(Opcode::kExit, VType::kI32);
  auto intervals = compute_live_intervals(b.k);
  EXPECT_EQ(intervals.size(), 1u);
}

// -- allocator -----------------------------------------------------------------

TEST(Regalloc, SequentialReuseNeedsFewRegisters) {
  // t0 = imm; t1 = t0+t0; t2 = t1+t1; ... — each value dies immediately.
  KB b;
  std::uint32_t prev = b.reg(VType::kI32);
  b.emit(Opcode::kMovImmI, VType::kI32, prev).imm = 1;
  for (int i = 0; i < 20; ++i) {
    std::uint32_t next = b.reg(VType::kI32);
    b.emit(Opcode::kAdd, VType::kI32, next, prev, prev);
    prev = next;
  }
  b.emit(Opcode::kExit, VType::kI32);
  auto res = regalloc::allocate(b.k);
  EXPECT_LE(res.regs_used, 3);
  EXPECT_FALSE(res.any_spills());
}

TEST(Regalloc, SimultaneouslyLiveValuesStack) {
  // Define 10 values, then one instruction consuming... them pairwise late.
  KB b;
  std::vector<std::uint32_t> regs;
  for (int i = 0; i < 10; ++i) {
    regs.push_back(b.reg(VType::kI32));
    b.emit(Opcode::kMovImmI, VType::kI32, regs.back()).imm = i;
  }
  for (int i = 0; i + 1 < 10; ++i) {
    auto d = b.reg(VType::kI32);
    b.emit(Opcode::kAdd, VType::kI32, d, regs[static_cast<std::size_t>(i)],
           regs[static_cast<std::size_t>(i + 1)]);
  }
  b.emit(Opcode::kExit, VType::kI32);
  auto res = regalloc::allocate(b.k);
  EXPECT_GE(res.regs_used, 10);
}

TEST(Regalloc, F64TakesTwoRegisters) {
  KB b;
  auto d0 = b.reg(VType::kF64);
  auto d1 = b.reg(VType::kF64);
  auto d2 = b.reg(VType::kF64);
  b.emit(Opcode::kMovImmF, VType::kF64, d0).fimm = 1.0;
  b.emit(Opcode::kMovImmF, VType::kF64, d1).fimm = 2.0;
  b.emit(Opcode::kAdd, VType::kF64, d2, d0, d1);
  b.emit(Opcode::kExit, VType::kF64);
  auto res = regalloc::allocate(b.k);
  EXPECT_GE(res.regs_used, 4);  // two doubles live simultaneously
  EXPECT_EQ(res.regs_used % 2, 0);
}

TEST(Regalloc, PredicatesDontUseGeneralRegisters) {
  KB b;
  auto a = b.reg(VType::kI32);
  auto c = b.reg(VType::kI32);
  auto p = b.reg(VType::kPred);
  b.emit(Opcode::kMovImmI, VType::kI32, a).imm = 1;
  b.emit(Opcode::kMovImmI, VType::kI32, c).imm = 2;
  b.emit(Opcode::kSetLt, VType::kI32, p, a, c);
  b.emit(Opcode::kExit, VType::kI32);
  auto res = regalloc::allocate(b.k);
  EXPECT_LE(res.regs_used, 2);
  EXPECT_EQ(res.pred_regs_used, 1);
}

TEST(Regalloc, CapForcesSpills) {
  KB b;
  std::vector<std::uint32_t> regs;
  for (int i = 0; i < 16; ++i) {
    regs.push_back(b.reg(VType::kI32));
    b.emit(Opcode::kMovImmI, VType::kI32, regs.back()).imm = i;
  }
  auto sink = b.reg(VType::kI32);
  for (int i = 0; i + 1 < 16; ++i) {
    b.emit(Opcode::kAdd, VType::kI32, sink, regs[static_cast<std::size_t>(i)],
           regs[static_cast<std::size_t>(i + 1)]);
  }
  b.emit(Opcode::kExit, VType::kI32);

  regalloc::AllocatorOptions opts;
  opts.max_registers = 8;
  auto res = regalloc::allocate(b.k, opts);
  EXPECT_LE(res.regs_used, 8);
  EXPECT_TRUE(res.any_spills());
  EXPECT_GT(res.spill_loads, 0);
  EXPECT_GT(res.spill_bytes, 0);
}

TEST(Regalloc, SpillAccountingMatchesSpilledSet) {
  // spill_bytes, spill_loads and spill_stores must all be derivable from the
  // `spilled` bit-vector plus the code: bytes from the vreg widths, loads
  // from operand occurrences, stores from definitions.
  KB b;
  std::vector<std::uint32_t> regs;
  for (int i = 0; i < 16; ++i) {
    regs.push_back(b.reg(VType::kI32));
    b.emit(Opcode::kMovImmI, VType::kI32, regs.back()).imm = i;
  }
  auto sink = b.reg(VType::kI32);
  for (int i = 0; i + 1 < 16; ++i) {
    b.emit(Opcode::kAdd, VType::kI32, sink, regs[static_cast<std::size_t>(i)],
           regs[static_cast<std::size_t>(i + 1)]);
  }
  b.emit(Opcode::kExit, VType::kI32);

  regalloc::AllocatorOptions opts;
  opts.max_registers = 8;
  auto res = regalloc::allocate(b.k, opts);
  ASSERT_TRUE(res.any_spills());
  ASSERT_EQ(res.spilled.size(), b.k.num_vregs());

  int expected_bytes = 0, expected_loads = 0, expected_stores = 0;
  for (std::uint32_t v = 0; v < b.k.num_vregs(); ++v) {
    if (!res.spilled[v]) continue;
    expected_bytes += 4 * registers_of(b.k.vreg_types[v]);
    for (const Instr& in : b.k.code) {
      if (has_dst(in.op) && in.dst == v) ++expected_stores;
      for_each_use(in, [&](std::uint32_t u) {
        if (u == v) ++expected_loads;
      });
    }
  }
  EXPECT_EQ(res.spill_bytes, expected_bytes);
  EXPECT_EQ(res.spill_loads, expected_loads);
  EXPECT_EQ(res.spill_stores, expected_stores);
}

TEST(Regalloc, TighterCapsNeverShrinkSpillTraffic) {
  // Spill traffic as a function of the register cap must be monotone: fewer
  // registers can only force more values to memory.
  KB b;
  std::vector<std::uint32_t> regs;
  for (int i = 0; i < 24; ++i) {
    regs.push_back(b.reg(VType::kI32));
    b.emit(Opcode::kMovImmI, VType::kI32, regs.back()).imm = i;
  }
  auto sink = b.reg(VType::kI32);
  for (int i = 0; i + 1 < 24; ++i) {
    b.emit(Opcode::kAdd, VType::kI32, sink, regs[static_cast<std::size_t>(i)],
           regs[static_cast<std::size_t>(i + 1)]);
  }
  b.emit(Opcode::kExit, VType::kI32);

  int prev_bytes = -1;
  for (int cap : {32, 16, 12, 8, 6}) {
    regalloc::AllocatorOptions opts;
    opts.max_registers = cap;
    auto res = regalloc::allocate(b.k, opts);
    EXPECT_LE(res.regs_used, cap) << "cap " << cap;
    if (prev_bytes >= 0) {
      EXPECT_GE(res.spill_bytes, prev_bytes)
          << "cap " << cap << " spilled less than the looser cap before it";
    }
    prev_bytes = res.spill_bytes;
  }
  EXPECT_GT(prev_bytes, 0) << "the tightest cap never spilled";
}

TEST(Regalloc, SpilledF64CostsEightBytes) {
  // Force a 64-bit value to memory: its slot must be 8 bytes, not 4.
  KB b;
  std::vector<std::uint32_t> regs;
  for (int i = 0; i < 8; ++i) {
    regs.push_back(b.reg(VType::kF64));
    b.emit(Opcode::kMovImmF, VType::kF64, regs.back()).fimm = i;
  }
  auto sink = b.reg(VType::kF64);
  for (int i = 0; i + 1 < 8; ++i) {
    b.emit(Opcode::kAdd, VType::kF64, sink, regs[static_cast<std::size_t>(i)],
           regs[static_cast<std::size_t>(i + 1)]);
  }
  b.emit(Opcode::kExit, VType::kF64);

  regalloc::AllocatorOptions opts;
  opts.max_registers = 8;  // four 64-bit values fit; eight cannot
  auto res = regalloc::allocate(b.k, opts);
  ASSERT_TRUE(res.any_spills());
  EXPECT_EQ(res.spill_bytes % 8, 0);
  int spilled_count = 0;
  for (std::uint32_t v = 0; v < b.k.num_vregs(); ++v) {
    if (res.spilled[v]) ++spilled_count;
  }
  EXPECT_EQ(res.spill_bytes, spilled_count * 8);
}

TEST(Regalloc, ColoringReusesHolesLinearScanCannot) {
  // `x` dies, other values pass through, then `x` is redefined: linear scan's
  // hole-free interval pins a register across the gap, while the coloring
  // allocator's per-segment live ranges release and re-take it. The crafted
  // kernel needs strictly fewer registers under coloring.
  KB b;
  auto x = b.reg(VType::kI32);
  auto y = b.reg(VType::kI32);
  auto z = b.reg(VType::kI32);
  auto w = b.reg(VType::kI32);
  b.emit(Opcode::kMovImmI, VType::kI32, x).imm = 1;  // 0: x segment 1
  b.emit(Opcode::kAdd, VType::kI32, y, x, x);        // 1: x dies
  b.emit(Opcode::kAdd, VType::kI32, z, y, y);        // 2
  b.emit(Opcode::kMovImmI, VType::kI32, x).imm = 2;  // 3: x segment 2
  b.emit(Opcode::kAdd, VType::kI32, w, x, z);        // 4
  b.emit(Opcode::kExit, VType::kI32);

  regalloc::AllocatorOptions linear;
  linear.strategy = regalloc::Strategy::kLinear;
  regalloc::AllocatorOptions color;
  color.strategy = regalloc::Strategy::kColor;
  auto lin = regalloc::allocate(b.k, linear);
  auto col = regalloc::allocate(b.k, color);
  EXPECT_LT(col.regs_used, lin.regs_used);
  EXPECT_FALSE(col.any_spills());
  EXPECT_GE(col.split_ranges, 1) << "x was not split across its hole";
}

TEST(Regalloc, RangeEndingAtBlockBoundaryFreesItsRegister) {
  // `a`'s last use is the final instruction of the entry block; `c` is born
  // in the successor. Per-point liveness must not leak `a` across the block
  // boundary, so coloring can give both the same register.
  KB b;
  auto a = b.reg(VType::kI32);
  auto s = b.reg(VType::kI32);
  auto c = b.reg(VType::kI32);
  auto d = b.reg(VType::kI32);
  std::int32_t next = b.label();
  b.emit(Opcode::kMovImmI, VType::kI32, a).imm = 3;  // 0
  b.emit(Opcode::kAdd, VType::kI32, s, a, a);        // 1: a's last use
  b.emit(Opcode::kBra, VType::kI32).imm = next;      // 2: block ends
  b.place(next);
  b.emit(Opcode::kMovImmI, VType::kI32, c).imm = 4;  // 3
  b.emit(Opcode::kAdd, VType::kI32, d, c, s);        // 4
  b.emit(Opcode::kExit, VType::kI32);

  regalloc::AllocatorOptions color;
  color.strategy = regalloc::Strategy::kColor;
  auto col = regalloc::allocate(b.k, color);
  EXPECT_LE(col.regs_used, 2) << "a's register was not reused after its range "
                                 "ended at the block boundary";
  EXPECT_FALSE(col.any_spills());
}

TEST(Regalloc, RematPrefersRecomputableValues) {
  // Under a tight cap, spilled constants are rematerialized: they stay in
  // the spilled set (slot reserved, static traffic counted) but are flagged
  // for the simulator to recompute at ALU latency.
  KB b;
  std::vector<std::uint32_t> regs;
  for (int i = 0; i < 16; ++i) {
    regs.push_back(b.reg(VType::kI32));
    b.emit(Opcode::kMovImmI, VType::kI32, regs.back()).imm = i;
  }
  auto sink = b.reg(VType::kI32);
  for (int i = 0; i + 1 < 16; ++i) {
    b.emit(Opcode::kAdd, VType::kI32, sink, regs[static_cast<std::size_t>(i)],
           regs[static_cast<std::size_t>(i + 1)]);
  }
  b.emit(Opcode::kExit, VType::kI32);

  regalloc::AllocatorOptions opts;
  opts.strategy = regalloc::Strategy::kColor;
  opts.max_registers = 8;
  auto res = regalloc::allocate(b.k, opts);
  ASSERT_TRUE(res.any_spills());
  EXPECT_GT(res.remat_count, 0);
  EXPECT_EQ(res.spills, res.remat_count)
      << "every spilled value here is a constant and should rematerialize";
  ASSERT_EQ(res.remat.size(), b.k.num_vregs());
  for (std::uint32_t v = 0; v < b.k.num_vregs(); ++v) {
    if (res.remat[v]) EXPECT_TRUE(res.spilled[v]) << "remat'd vreg " << v << " not spilled";
  }
}

TEST(Regalloc, PtxasInfoFormat) {
  KB b;
  auto r = b.reg(VType::kI32);
  b.emit(Opcode::kMovImmI, VType::kI32, r).imm = 1;
  b.emit(Opcode::kExit, VType::kI32);
  b.k.name = "demo_k0";
  auto res = regalloc::allocate(b.k);
  std::string line = res.ptxas_info("demo_k0");
  EXPECT_NE(line.find("ptxas info"), std::string::npos);
  EXPECT_NE(line.find("demo_k0"), std::string::npos);
  EXPECT_NE(line.find("registers"), std::string::npos);
}

TEST(Vir, DisassemblyMentionsEveryOpcode) {
  KB b;
  auto r = b.reg(VType::kF32);
  auto addr = b.reg(VType::kI64);
  b.emit(Opcode::kMovImmI, VType::kI64, addr).imm = 4096;
  Instr& ld = b.emit(Opcode::kLdGlobal, VType::kF32, r, addr);
  ld.flags = Instr::kFlagReadOnly;
  b.emit(Opcode::kStGlobal, VType::kF32, kNoReg, addr, r);
  b.emit(Opcode::kExit, VType::kF32);
  b.k.name = "dis";
  std::string text = to_string(b.k);
  EXPECT_NE(text.find("ld.global"), std::string::npos);
  EXPECT_NE(text.find("@ro"), std::string::npos);
  EXPECT_NE(text.find("st.global"), std::string::npos);
  EXPECT_NE(text.find("exit"), std::string::npos);
}

}  // namespace
}  // namespace safara::vir

namespace safara::test {
namespace {

constexpr const char* kSpillStress = R"(
void spill_stress(int n, int m, float alpha, const float b[n][m], float a[n][m]) {
  #pragma acc parallel loop gang vector(64)
  for (i = 2; i < n - 2; i++) {
    #pragma acc loop seq
    for (k = 2; k < m - 2; k++) {
      a[i][k] = (b[i][k-2] + 2.0f * b[i][k-1] + 3.0f * b[i][k]
                 + 2.0f * b[i][k+1] + b[i][k+2]) * alpha
                + b[i-1][k] * b[i+1][k] - b[i-2][k] / (b[i+2][k] + 1.5f);
    }
  }
})";

TEST(RegallocEndToEnd, SpilledKernelStillComputesCorrectResults) {
  // Clamp the register file hard enough to force spills, then demand the
  // simulator (which charges local-memory traffic for them) still matches
  // the CPU reference bit-for-bit. This is the path the VIR pipeline's
  // pressure reductions are meant to keep cold.
  const int n = 16, m = 24;
  workloads::Dataset data;
  data.arrays.emplace("b", f32_array({{0, n}, {0, m}}));
  data.arrays.emplace("a", f32_array({{0, n}, {0, m}}));
  fill_pattern(data.array("b"), 11);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(n));
  data.scalars.emplace("m", rt::ScalarValue::of_i32(m));
  data.scalars.emplace("alpha", rt::ScalarValue::of_f32(0.75f));

  driver::CompilerOptions opts = driver::CompilerOptions::openuh_base();
  opts.regalloc.max_registers = 12;
  driver::Compiler compiler(opts);
  driver::CompiledProgram prog = compiler.compile(kSpillStress);
  bool spilled = false;
  for (const auto& k : prog.kernels) {
    EXPECT_LE(k.alloc.regs_used, 12) << k.name;
    spilled = spilled || k.alloc.any_spills();
  }
  EXPECT_TRUE(spilled) << "cap of 12 registers did not force a spill";
  check_against_reference(kSpillStress, opts, data, 0.0);
}

TEST(RegallocEndToEnd, SpillTrafficShowsUpInLaunchStats) {
  const int n = 16, m = 24;
  workloads::Dataset data;
  data.arrays.emplace("b", f32_array({{0, n}, {0, m}}));
  data.arrays.emplace("a", f32_array({{0, n}, {0, m}}));
  fill_pattern(data.array("b"), 3);
  data.scalars.emplace("n", rt::ScalarValue::of_i32(n));
  data.scalars.emplace("m", rt::ScalarValue::of_i32(m));
  data.scalars.emplace("alpha", rt::ScalarValue::of_f32(1.25f));

  driver::CompilerOptions opts = driver::CompilerOptions::openuh_base();
  opts.regalloc.max_registers = 12;
  driver::Compiler compiler(opts);
  driver::CompiledProgram prog = compiler.compile(kSpillStress);
  auto stats = workloads::run(prog, data);
  std::uint64_t spill_accesses = 0;
  for (const auto& s : stats) spill_accesses += s.spill_accesses;
  EXPECT_GT(spill_accesses, 0u)
      << "the simulator charged no local-memory traffic for a spilled kernel";
}

}  // namespace
}  // namespace safara::test

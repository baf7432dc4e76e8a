// Property-style sweeps: a family of generated kernels crossed with every
// compiler configuration, checking the invariants the system must never
// break:
//   P1  every configuration computes the same results as the CPU reference;
//   P2  honoring small / small+dim never increases the register count;
//   P3  SAFARA never increases the static global-load count;
//   P4  the allocator never exceeds a forced register cap;
//   P5  compilation is deterministic;
//   P7  spill-slot layout: every slot naturally aligned, no two vregs'
//       slots overlap within a backing store, frame sizes cover the slots.
#include <gtest/gtest.h>

#include "tests_common.hpp"

namespace safara::test {
namespace {

struct KernelCase {
  const char* name;
  const char* source;
  bool has_clauses;  // dim/small present in the directive
};

// The generated family covers: pointer / VLA / allocatable arrays, intra /
// carried / invariant reuse, 1- and 2-level schedules, divergence, and a
// reduction.
const KernelCase kCases[] = {
    {"pointer_intra", R"(
void f(int n, const float *x, float *y) {
  #pragma acc parallel loop gang vector(64) small(x, y)
  for (i = 0; i < n; i++) {
    y[i] = x[i] * x[i] + x[i];
  }
})", true},
    {"vla_carried", R"(
void f(int n, int m, const float b[n][m], float a[n][m]) {
  #pragma acc parallel loop gang vector(64) small(a, b)
  for (i = 0; i < n; i++) {
    #pragma acc loop seq
    for (k = 1; k < m - 1; k++) {
      a[i][k] = b[i][k-1] + b[i][k] + b[i][k+1];
    }
  }
})", true},
    {"alloc_dim_small", R"(
void f(int n, int m, const float p[?][?], const float q[?][?], float o[?][?]) {
  #pragma acc parallel loop gang vector(64) dim((0:n, 0:m)(p, q, o)) small(p, q, o)
  for (i = 0; i < n; i++) {
    #pragma acc loop seq
    for (k = 1; k < m; k++) {
      o[i][k] = p[i][k] - p[i][k-1] + q[i][k] * 0.5f;
    }
  }
})", true},
    {"alloc_no_clauses", R"(
void f(int n, int m, const float p[?][?], float o[?][?]) {
  #pragma acc parallel loop gang vector(64)
  for (i = 0; i < n; i++) {
    #pragma acc loop seq
    for (k = 0; k < m; k++) {
      o[i][k] = p[i][k] * 3.0f;
    }
  }
})", false},
    {"invariant_mix", R"(
void f(int n, int m, const float b[n][m], const float *coef, float a[n][m]) {
  #pragma acc parallel loop gang vector(64) small(b, coef, a)
  for (i = 0; i < n; i++) {
    #pragma acc loop seq
    for (k = 0; k < m; k++) {
      a[i][k] = b[i][k] * coef[i] + coef[i];
    }
  }
})", true},
    {"divergent", R"(
void f(int n, const int *c, float *y) {
  #pragma acc parallel loop gang vector(64) small(c, y)
  for (i = 0; i < n; i++) {
    if (c[i] % 3 == 0) {
      y[i] = 1.0f;
    } else {
      y[i] = float(c[i]);
    }
  }
})", true},
    {"two_level", R"(
void f(int n, int m, const float b[n][m], float a[n][m]) {
  #pragma acc parallel loop gang
  for (j = 1; j < n - 1; j++) {
    #pragma acc loop vector(64)
    for (i = 1; i < m - 1; i++) {
      a[j][i] = 0.25f * (b[j-1][i] + b[j+1][i] + b[j][i-1] + b[j][i+1]);
    }
  }
})", false},
    {"reduction", R"(
void f(int n, const float *x, float *s) {
  #pragma acc parallel loop gang vector(64) small(x)
  for (i = 0; i < n; i++) {
    s[0] += x[i] * 0.001f;
  }
})", true},
};

workloads::Dataset make_data(const KernelCase& kc) {
  const int n = 24, m = 40;
  workloads::Dataset d;
  std::string src = kc.source;
  auto add2 = [&](const char* name, std::uint64_t seed) {
    d.arrays.emplace(name, f32_array({{0, n}, {0, m}}));
    fill_pattern(d.array(name), seed);
  };
  auto add1 = [&](const char* name, std::uint64_t seed, std::int64_t len) {
    d.arrays.emplace(name, f32_array({{0, len}}));
    fill_pattern(d.array(name), seed);
  };
  if (src.find("float *x") != std::string::npos ||
      src.find("const float *x") != std::string::npos) {
    add1("x", 1, n * m);
  }
  if (src.find("*y") != std::string::npos) add1("y", 2, n * m);
  if (src.find(" b[n][m]") != std::string::npos) add2("b", 3);
  if (src.find(" a[n][m]") != std::string::npos) add2("a", 4);
  if (src.find(" p[?][?]") != std::string::npos) add2("p", 5);
  if (src.find(" q[?][?]") != std::string::npos) add2("q", 6);
  if (src.find(" o[?][?]") != std::string::npos) add2("o", 7);
  if (src.find("*coef") != std::string::npos) add1("coef", 8, n);
  if (src.find("const int *c") != std::string::npos) {
    d.arrays.emplace("c", i32_array({{0, n * m}}));
    fill_pattern(d.array("c"), 9);
  }
  if (src.find("*s") != std::string::npos) add1("s", 10, 4);
  bool flat = src.find("*x") != std::string::npos ||
              src.find("const int *c") != std::string::npos;
  d.scalars.emplace("n", rt::ScalarValue::of_i32(flat ? n * m : n));
  d.scalars.emplace("m", rt::ScalarValue::of_i32(m));
  return d;
}

driver::CompilerOptions config_by_index(int i) {
  switch (i) {
    case 0: return driver::CompilerOptions::openuh_base();
    case 1: return driver::CompilerOptions::openuh_small();
    case 2: return driver::CompilerOptions::openuh_small_dim();
    case 3: return driver::CompilerOptions::openuh_safara();
    case 4: return driver::CompilerOptions::openuh_safara_clauses();
    default: return driver::CompilerOptions::pgi_like();
  }
}

using Param = std::tuple<int, int>;
class GeneratedKernels : public ::testing::TestWithParam<Param> {};

TEST_P(GeneratedKernels, P1_MatchesReference) {
  const auto [ki, ci] = GetParam();
  const KernelCase& kc = kCases[ki];
  workloads::Dataset data = make_data(kc);
  // Reductions reassociate under parallel execution.
  double tol = std::string(kc.name) == "reduction" ? 1e-3 : 0.0;
  check_against_reference(kc.source, config_by_index(ci), data, tol);
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  static const char* cfg[] = {"base", "small", "small_dim", "safara",
                              "safara_clauses", "pgi"};
  const auto [ki, ci] = info.param;
  return std::string(kCases[ki].name) + "_" + cfg[ci];
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeneratedKernels,
    ::testing::Combine(::testing::Range(0, static_cast<int>(std::size(kCases))),
                       ::testing::Range(0, 6)),
    param_name);

class KernelInvariants : public ::testing::TestWithParam<int> {};

TEST_P(KernelInvariants, P2_ClausesNeverIncreaseRegisters) {
  const KernelCase& kc = kCases[GetParam()];
  driver::Compiler base(driver::CompilerOptions::openuh_base());
  driver::Compiler small(driver::CompilerOptions::openuh_small());
  driver::Compiler dim(driver::CompilerOptions::openuh_small_dim());
  auto pb = base.compile(kc.source);
  auto ps = small.compile(kc.source);
  auto pd = dim.compile(kc.source);
  for (std::size_t k = 0; k < pb.kernels.size(); ++k) {
    EXPECT_LE(ps.kernels[k].alloc.regs_used, pb.kernels[k].alloc.regs_used) << kc.name;
    EXPECT_LE(pd.kernels[k].alloc.regs_used, ps.kernels[k].alloc.regs_used) << kc.name;
  }
}

TEST_P(KernelInvariants, P3_SafaraNeverAddsLoads) {
  const KernelCase& kc = kCases[GetParam()];
  auto static_loads = [](const driver::CompiledProgram& p) {
    int n = 0;
    for (const auto& k : p.kernels) {
      for (const auto& in : k.kernel.code) {
        if (in.op == vir::Opcode::kLdGlobal) ++n;
      }
    }
    return n;
  };
  driver::Compiler base(driver::CompilerOptions::openuh_base());
  driver::Compiler saf(driver::CompilerOptions::openuh_safara());
  EXPECT_LE(static_loads(saf.compile(kc.source)), static_loads(base.compile(kc.source)))
      << kc.name;
}

TEST_P(KernelInvariants, P4_RegisterCapHolds) {
  const KernelCase& kc = kCases[GetParam()];
  for (int cap : {16, 24, 32}) {
    driver::CompilerOptions opts = driver::CompilerOptions::openuh_base();
    opts.regalloc.max_registers = cap;
    driver::Compiler compiler(opts);
    auto prog = compiler.compile(kc.source);
    for (const auto& k : prog.kernels) {
      EXPECT_LE(k.alloc.regs_used, cap) << kc.name << " cap " << cap;
    }
  }
}

TEST_P(KernelInvariants, P5_DeterministicCompilation) {
  const KernelCase& kc = kCases[GetParam()];
  driver::Compiler c1(driver::CompilerOptions::openuh_safara_clauses());
  driver::Compiler c2(driver::CompilerOptions::openuh_safara_clauses());
  auto p1 = c1.compile(kc.source);
  auto p2 = c2.compile(kc.source);
  ASSERT_EQ(p1.kernels.size(), p2.kernels.size());
  for (std::size_t k = 0; k < p1.kernels.size(); ++k) {
    EXPECT_EQ(p1.kernels[k].kernel.code.size(), p2.kernels[k].kernel.code.size());
    EXPECT_EQ(p1.kernels[k].alloc.regs_used, p2.kernels[k].alloc.regs_used);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, KernelInvariants,
                         ::testing::Range(0, static_cast<int>(std::size(kCases))),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(kCases[info.param].name);
                         });

// P7: spill-slot layout invariants, for both allocators and both spill
// backing modes. Under a tight register cap every spilled live range must
// land on a slot aligned to its type's natural alignment (an f64 slot after
// an f32 slot must skip to offset 8, not 4), distinct vregs' slots must not
// overlap within the same backing store (local and, after RegDem, shared
// frames are checked independently), and the reported frame sizes must cover
// the highest slot.
using SpillParam = std::tuple<int, int, int>;
class SpillLayout : public ::testing::TestWithParam<SpillParam> {};

std::string spill_param_name(const ::testing::TestParamInfo<SpillParam>& info) {
  const auto [ki, strat, mem] = info.param;
  return std::string(kCases[ki].name) + (strat == 0 ? "_linear" : "_color") +
         (mem == 0 ? "_local" : "_auto");
}

TEST_P(SpillLayout, P7_SlotsAlignedAndDisjoint) {
  const auto [ki, strat, mem] = GetParam();
  const KernelCase& kc = kCases[ki];
  driver::CompilerOptions opts = driver::CompilerOptions::openuh_base();
  opts.regalloc.max_registers = 16;  // tight enough to force spills
  opts.regalloc.strategy =
      strat == 0 ? regalloc::Strategy::kLinear : regalloc::Strategy::kColor;
  opts.regalloc.spill_mem =
      mem == 0 ? regalloc::SpillMem::kLocal : regalloc::SpillMem::kAuto;
  driver::Compiler compiler(opts);
  auto prog = compiler.compile(kc.source);

  for (const auto& ck : prog.kernels) {
    // One slot per vreg per store; ranges of the same vreg share it.
    std::map<std::uint32_t, std::pair<int, bool>> slots;
    for (const regalloc::LiveRange& r : ck.alloc.ranges) {
      if (r.spill_slot < 0) continue;
      auto [it, inserted] =
          slots.emplace(r.vreg, std::make_pair(r.spill_slot, r.in_shared));
      if (!inserted) {
        EXPECT_EQ(it->second.first, r.spill_slot)
            << kc.name << ": vreg " << r.vreg << " has two slots";
        EXPECT_EQ(it->second.second, r.in_shared)
            << kc.name << ": vreg " << r.vreg << " in two stores";
      }
    }
    // Alignment + frame coverage, then pairwise disjointness per store.
    std::vector<std::tuple<int, int, bool>> extents;  // (begin, end, shared)
    for (const auto& [vreg, slot] : slots) {
      const int size = vir::size_of(ck.kernel.vreg_types[vreg]);
      EXPECT_EQ(slot.first % size, 0)
          << kc.name << ": vreg " << vreg << " slot " << slot.first
          << " misaligned for size " << size;
      const int frame =
          slot.second ? ck.alloc.shared_spill_bytes : ck.alloc.spill_bytes;
      EXPECT_LE(slot.first + size, frame)
          << kc.name << ": vreg " << vreg << " slot exceeds its frame";
      extents.emplace_back(slot.first, slot.first + size, slot.second);
    }
    for (std::size_t a = 0; a < extents.size(); ++a) {
      for (std::size_t b = a + 1; b < extents.size(); ++b) {
        const auto& [ab, ae, as] = extents[a];
        const auto& [bb, be, bs] = extents[b];
        if (as != bs) continue;  // different backing stores never collide
        EXPECT_TRUE(ae <= bb || be <= ab)
            << kc.name << ": slots [" << ab << "," << ae << ") and [" << bb
            << "," << be << ") overlap in the "
            << (as ? "shared" : "local") << " frame";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpillLayout,
    ::testing::Combine(::testing::Range(0, static_cast<int>(std::size(kCases))),
                       ::testing::Range(0, 2), ::testing::Range(0, 2)),
    spill_param_name);

// P6: running a kernel under a forced (spilling) register cap still computes
// correct results — spills change timing, never values.
TEST(KernelInvariants, P6_SpillingPreservesSemantics) {
  const KernelCase& kc = kCases[1];  // vla_carried
  driver::CompilerOptions opts = driver::CompilerOptions::openuh_base();
  opts.regalloc.max_registers = 16;
  workloads::Dataset data = make_data(kc);
  check_against_reference(kc.source, opts, data, 0.0);
}

}  // namespace
}  // namespace safara::test

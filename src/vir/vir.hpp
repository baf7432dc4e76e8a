// VIR: the virtual PTX-like ISA the compiler targets.
//
// Like PTX, VIR has an unbounded virtual register file; hardware register
// counts are only known after the ptxas-sim allocator (src/regalloc) runs.
// Control flow is structured-by-construction: every conditional branch
// carries the reconvergence label the SIMT interpreter uses for divergence.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "support/source_location.hpp"

namespace safara::vir {

enum class VType : std::uint8_t { kI32, kI64, kF32, kF64, kPred };

constexpr int size_of(VType t) {
  switch (t) {
    case VType::kI32:
    case VType::kF32: return 4;
    case VType::kI64:
    case VType::kF64: return 8;
    case VType::kPred: return 1;
  }
  return 0;
}
/// 32-bit hardware registers needed to hold one value of this type.
/// Predicates live in a separate predicate file (as on NVIDIA hardware) and
/// cost no general-purpose registers.
constexpr int registers_of(VType t) {
  switch (t) {
    case VType::kI32:
    case VType::kF32: return 1;
    case VType::kI64:
    case VType::kF64: return 2;
    case VType::kPred: return 0;
  }
  return 0;
}
const char* to_string(VType t);

enum class Opcode : std::uint8_t {
  kMovImmI,  // dst <- imm
  kMovImmF,  // dst <- fimm
  kMov,      // dst <- a
  kAdd,
  kSub,
  kMul,
  kDiv,
  kRem,
  kMin,
  kMax,
  kNeg,
  kAbs,
  kSetLt,  // dst(pred) <- a < b
  kSetLe,
  kSetGt,
  kSetGe,
  kSetEq,
  kSetNe,
  kPredAnd,  // dst(pred) <- a && b
  kPredOr,
  kPredNot,
  kSelp,  // dst <- c(pred) ? a : b
  kCvt,   // dst(type) <- convert(a)
  // Special function unit ops.
  kSqrt,
  kRsqrt,
  kExp,
  kLog,
  kSin,
  kCos,
  kPow,  // a^b
  kFloor,
  kCeil,
  // Memory.
  kLdParam,   // dst <- param[imm]
  kLdGlobal,  // dst <- mem[a]; flags&kFlagReadOnly selects the RO-cache path
  kStGlobal,  // mem[a] <- b
  kAtomAdd,   // mem[a] <- mem[a] + b (atomic)
  kMovSpecial,  // dst <- special register (imm = SpecialReg)
  // Control flow.
  kBra,   // goto label imm
  kCbr,   // if a(pred) goto label imm, else fall through; reconverge at imm2
  /// SSA phi: dst <- value of the operand matching the predecessor edge the
  /// block was entered from (operands a/b/c, ordered by ascending predecessor
  /// block index). Exists only inside the pass pipeline, between SSA
  /// construction and destruction — codegen never emits it and the simulator
  /// and allocator never see it.
  kPhi,
  kExit,
};

const char* to_string(Opcode op);
bool is_pure(Opcode op);      // no side effects, no memory reads
bool has_dst(Opcode op);

enum class SpecialReg : std::uint8_t {
  kTidX, kTidY, kTidZ,
  kCtaidX, kCtaidY, kCtaidZ,
  kNtidX, kNtidY, kNtidZ,
  kNctaidX, kNctaidY, kNctaidZ,
};
const char* to_string(SpecialReg r);

constexpr std::uint32_t kNoReg = std::numeric_limits<std::uint32_t>::max();
constexpr std::int32_t kNoLabel = -1;

struct Instr {
  Opcode op = Opcode::kExit;
  VType type = VType::kI32;  // operation type (result type for kCvt)
  std::uint32_t dst = kNoReg;
  std::uint32_t a = kNoReg;
  std::uint32_t b = kNoReg;
  std::uint32_t c = kNoReg;      // kSelp predicate
  std::int64_t imm = 0;          // immediate / param index / branch label
  double fimm = 0.0;             // float immediate
  std::int32_t imm2 = kNoLabel;  // reconvergence label for kCbr
  std::uint8_t flags = 0;
  /// Source line/column this instruction was lowered from. Codegen stamps
  /// every emitted instruction (synthesized instructions inherit the
  /// enclosing statement's location); passes move/rewrite whole Instrs and
  /// so preserve it. The simulator's per-pc attribution rolls cycles up to
  /// source lines through this field.
  SourceLoc loc;

  static constexpr std::uint8_t kFlagReadOnly = 1;  // kLdGlobal via RO cache

  /// Every field, `fimm` by its bits: a defaulted `==` would call -0.0 and
  /// 0.0 equal, and they print and compute differently.
  bool operator==(const Instr& o) const {
    return op == o.op && type == o.type && dst == o.dst && a == o.a && b == o.b &&
           c == o.c && imm == o.imm &&
           std::bit_cast<std::uint64_t>(fimm) == std::bit_cast<std::uint64_t>(o.fimm) &&
           imm2 == o.imm2 && flags == o.flags && loc == o.loc;
  }
};

/// Invokes `fn(vreg)` for every register the instruction reads.
template <typename Fn>
void for_each_use(const Instr& in, Fn&& fn) {
  if (in.a != kNoReg) fn(in.a);
  if (in.b != kNoReg) fn(in.b);
  if (in.c != kNoReg) fn(in.c);
}

/// What a kernel formal parameter carries; the host runtime assembles the
/// actual parameter buffer from these descriptors at launch time.
struct ParamInfo {
  enum class Kind : std::uint8_t {
    kArrayBase,  // device address of array `name`
    kScalar,     // scalar argument `name`
    kDopeLb,     // lower bound of dimension `dim` of array `name`
    kDopeLen,    // extent of dimension `dim` of array `name`
  };
  Kind kind = Kind::kScalar;
  std::string name;  // array or scalar name
  int dim = 0;       // for kDopeLb / kDopeLen
  VType type = VType::kI64;

  bool operator==(const ParamInfo&) const = default;
};

struct Kernel {
  std::string name;
  std::vector<VType> vreg_types;
  /// Parallel to vreg_types: the source variable/array each vreg was minted
  /// for ("" for compiler temporaries). Feeds the regalloc live-range
  /// provenance and `safcc --annotate`.
  std::vector<std::string> vreg_names;
  std::vector<Instr> code;
  /// label id -> instruction index (the label precedes that instruction).
  std::vector<std::int32_t> labels;
  std::vector<ParamInfo> params;

  std::uint32_t num_vregs() const {
    return static_cast<std::uint32_t>(vreg_types.size());
  }
  /// Instruction index a label refers to.
  std::int32_t target(std::int32_t label) const { return labels[static_cast<std::size_t>(label)]; }

  /// Every field. Equal kernels go through the pass pipeline and the
  /// allocator to equal results, which is what lets a compile reuse them.
  bool operator==(const Kernel&) const = default;
};

/// Compacts out the instructions marked in `dead` and remaps the label table
/// (labels store instruction indices; branch operands store label ids and
/// need no fixing). A label on a removed instruction moves to the next
/// survivor. Returns the number of instructions removed.
int remove_dead(Kernel& k, const std::vector<char>& dead);

/// Disassembles to PTX-flavoured text for tests and debugging.
std::string to_string(const Instr& in, const Kernel& k);
std::string to_string(const Kernel& k);

}  // namespace safara::vir

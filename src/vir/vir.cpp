#include "vir/vir.hpp"

#include <sstream>

namespace safara::vir {

const char* to_string(VType t) {
  switch (t) {
    case VType::kI32: return "s32";
    case VType::kI64: return "s64";
    case VType::kF32: return "f32";
    case VType::kF64: return "f64";
    case VType::kPred: return "pred";
  }
  return "?";
}

const char* to_string(Opcode op) {
  switch (op) {
    case Opcode::kMovImmI: return "mov.imm";
    case Opcode::kMovImmF: return "mov.fimm";
    case Opcode::kMov: return "mov";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kDiv: return "div";
    case Opcode::kRem: return "rem";
    case Opcode::kMin: return "min";
    case Opcode::kMax: return "max";
    case Opcode::kNeg: return "neg";
    case Opcode::kAbs: return "abs";
    case Opcode::kSetLt: return "setp.lt";
    case Opcode::kSetLe: return "setp.le";
    case Opcode::kSetGt: return "setp.gt";
    case Opcode::kSetGe: return "setp.ge";
    case Opcode::kSetEq: return "setp.eq";
    case Opcode::kSetNe: return "setp.ne";
    case Opcode::kPredAnd: return "and.pred";
    case Opcode::kPredOr: return "or.pred";
    case Opcode::kPredNot: return "not.pred";
    case Opcode::kSelp: return "selp";
    case Opcode::kCvt: return "cvt";
    case Opcode::kSqrt: return "sqrt";
    case Opcode::kRsqrt: return "rsqrt";
    case Opcode::kExp: return "ex2";
    case Opcode::kLog: return "lg2";
    case Opcode::kSin: return "sin";
    case Opcode::kCos: return "cos";
    case Opcode::kPow: return "pow";
    case Opcode::kFloor: return "floor";
    case Opcode::kCeil: return "ceil";
    case Opcode::kLdParam: return "ld.param";
    case Opcode::kLdGlobal: return "ld.global";
    case Opcode::kStGlobal: return "st.global";
    case Opcode::kAtomAdd: return "atom.global.add";
    case Opcode::kMovSpecial: return "mov.special";
    case Opcode::kBra: return "bra";
    case Opcode::kCbr: return "cbr";
    case Opcode::kPhi: return "phi";
    case Opcode::kExit: return "exit";
  }
  return "?";
}

bool is_pure(Opcode op) {
  switch (op) {
    case Opcode::kLdGlobal:
    case Opcode::kStGlobal:
    case Opcode::kAtomAdd:
    case Opcode::kBra:
    case Opcode::kCbr:
    case Opcode::kExit: return false;
    default: return true;
  }
}

bool has_dst(Opcode op) {
  switch (op) {
    case Opcode::kStGlobal:
    case Opcode::kAtomAdd:
    case Opcode::kBra:
    case Opcode::kCbr:
    case Opcode::kExit: return false;
    default: return true;
  }
}

int remove_dead(Kernel& k, const std::vector<char>& dead) {
  const std::int32_t n = static_cast<std::int32_t>(k.code.size());
  std::vector<std::int32_t> new_index(static_cast<std::size_t>(n) + 1, 0);
  std::int32_t kept = 0;
  for (std::int32_t i = 0; i < n; ++i) {
    new_index[static_cast<std::size_t>(i)] = kept;
    if (!dead[static_cast<std::size_t>(i)]) ++kept;
  }
  new_index[static_cast<std::size_t>(n)] = kept;
  if (kept == n) return 0;

  std::vector<Instr> code;
  code.reserve(static_cast<std::size_t>(kept));
  for (std::int32_t i = 0; i < n; ++i) {
    if (!dead[static_cast<std::size_t>(i)]) code.push_back(k.code[static_cast<std::size_t>(i)]);
  }
  k.code = std::move(code);
  for (std::int32_t& target : k.labels) {
    if (target >= 0 && target <= n) target = new_index[static_cast<std::size_t>(target)];
  }
  return n - kept;
}

const char* to_string(SpecialReg r) {
  switch (r) {
    case SpecialReg::kTidX: return "%tid.x";
    case SpecialReg::kTidY: return "%tid.y";
    case SpecialReg::kTidZ: return "%tid.z";
    case SpecialReg::kCtaidX: return "%ctaid.x";
    case SpecialReg::kCtaidY: return "%ctaid.y";
    case SpecialReg::kCtaidZ: return "%ctaid.z";
    case SpecialReg::kNtidX: return "%ntid.x";
    case SpecialReg::kNtidY: return "%ntid.y";
    case SpecialReg::kNtidZ: return "%ntid.z";
    case SpecialReg::kNctaidX: return "%nctaid.x";
    case SpecialReg::kNctaidY: return "%nctaid.y";
    case SpecialReg::kNctaidZ: return "%nctaid.z";
  }
  return "?";
}

std::string to_string(const Instr& in, const Kernel& k) {
  std::ostringstream os;
  auto reg = [&](std::uint32_t r) -> std::string {
    if (r == kNoReg) return "_";
    return "%r" + std::to_string(r) + ":" +
           to_string(k.vreg_types[r]);
  };
  os << to_string(in.op) << '.' << to_string(in.type);
  switch (in.op) {
    case Opcode::kMovImmI:
      os << ' ' << reg(in.dst) << ", " << in.imm;
      break;
    case Opcode::kMovImmF:
      os << ' ' << reg(in.dst) << ", " << in.fimm;
      break;
    case Opcode::kLdParam:
      os << ' ' << reg(in.dst) << ", [param+" << in.imm << "]";
      break;
    case Opcode::kLdGlobal:
      os << ' ' << reg(in.dst) << ", [" << reg(in.a) << "]";
      if (in.flags & Instr::kFlagReadOnly) os << " @ro";
      break;
    case Opcode::kStGlobal:
    case Opcode::kAtomAdd:
      os << " [" << reg(in.a) << "], " << reg(in.b);
      break;
    case Opcode::kMovSpecial:
      os << ' ' << reg(in.dst) << ", "
         << to_string(static_cast<SpecialReg>(in.imm));
      break;
    case Opcode::kBra:
      os << " L" << in.imm;
      break;
    case Opcode::kCbr:
      os << ' ' << reg(in.a) << ", L" << in.imm << " (reconv L" << in.imm2 << ")";
      break;
    case Opcode::kExit:
      break;
    case Opcode::kSelp:
      os << ' ' << reg(in.dst) << ", " << reg(in.a) << ", " << reg(in.b) << ", "
         << reg(in.c);
      break;
    case Opcode::kPhi:
      os << ' ' << reg(in.dst) << ", " << reg(in.a);
      if (in.b != kNoReg) os << ", " << reg(in.b);
      if (in.c != kNoReg) os << ", " << reg(in.c);
      break;
    default:
      os << ' ' << reg(in.dst);
      if (in.a != kNoReg) os << ", " << reg(in.a);
      if (in.b != kNoReg) os << ", " << reg(in.b);
      break;
  }
  // Provenance suffix: the source line the instruction lowers. Part of the
  // golden-IR snapshot format, so the harness pins that every pass keeps
  // (or deliberately merges) the loc chain.
  if (in.loc.valid()) os << "  ;; line " << in.loc.line;
  return os.str();
}

std::string to_string(const Kernel& k) {
  std::ostringstream os;
  os << ".kernel " << k.name << " (";
  for (std::size_t i = 0; i < k.params.size(); ++i) {
    if (i != 0) os << ", ";
    const ParamInfo& p = k.params[i];
    switch (p.kind) {
      case ParamInfo::Kind::kArrayBase: os << "base:" << p.name; break;
      case ParamInfo::Kind::kScalar: os << p.name; break;
      case ParamInfo::Kind::kDopeLb:
        os << "lb:" << p.name << "." << p.dim;
        break;
      case ParamInfo::Kind::kDopeLen:
        os << "len:" << p.name << "." << p.dim;
        break;
    }
  }
  os << ") vregs=" << k.num_vregs() << "\n";
  // Invert the label table for printing.
  for (std::size_t i = 0; i < k.code.size(); ++i) {
    for (std::size_t l = 0; l < k.labels.size(); ++l) {
      if (k.labels[l] == static_cast<std::int32_t>(i)) {
        os << "L" << l << ":\n";
      }
    }
    os << "  " << to_string(k.code[i], k) << "\n";
  }
  for (std::size_t l = 0; l < k.labels.size(); ++l) {
    if (k.labels[l] == static_cast<std::int32_t>(k.code.size())) {
      os << "L" << l << ": <end>\n";
    }
  }
  return os.str();
}

}  // namespace safara::vir

// Function parameters, functions, and the translation unit.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ast/stmt.hpp"

namespace safara::ast {

/// How an array parameter is declared; this determines what the compiler
/// knows about its shape (mirrors the paper's Fortran-allocatable / C-VLA /
/// pointer distinction that makes `dim` applicable or not).
enum class ArrayDeclKind : std::uint8_t {
  kScalar,       // not an array
  kPointer,      // float *a       — rank 1, extent unknown, dim inapplicable
  kStatic,       // float a[64][8] — extents are integer constants
  kVla,          // float a[n][m]  — extents are (shared) scalar params
  kAllocatable,  // float a[?][?]  — extents live in a per-array dope vector
};

struct Param {
  ScalarType elem = ScalarType::kVoid;
  std::string name;
  bool is_const = false;  // read-only in the region (→ RO data cache eligible)
  ArrayDeclKind decl_kind = ArrayDeclKind::kScalar;
  /// One entry per dimension; IntLit for kStatic, arbitrary integer exprs for
  /// kVla, null for kAllocatable/kPointer (shape unknown at compile time).
  std::vector<ExprPtr> extents;
  SourceLoc loc;

  bool is_array() const { return decl_kind != ArrayDeclKind::kScalar; }
  int rank() const {
    return decl_kind == ArrayDeclKind::kPointer ? 1
                                                : static_cast<int>(extents.size());
  }
  Param clone() const;
};

struct Function : support::ArenaAllocated {
  ScalarType ret = ScalarType::kVoid;
  std::string name;
  std::vector<Param> params;
  std::unique_ptr<BlockStmt> body;
  SourceLoc loc;

  std::unique_ptr<Function> clone() const;
};

using FunctionPtr = std::unique_ptr<Function>;

struct Program {
  std::vector<FunctionPtr> functions;

  Function* find(const std::string& name) const;
};

const char* to_string(ArrayDeclKind k);

}  // namespace safara::ast

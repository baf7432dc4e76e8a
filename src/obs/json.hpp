// A minimal self-contained JSON value: build and serialize.
//
// The observability layer emits machine-readable artifacts (Chrome traces,
// metrics snapshots, attribution profiles, benchmark rows) from this one
// document model. There is no parser: the tests inspect the documents in
// memory, and CI checks the emitted files with an independent parser
// (Python's `json`). No external dependency; the subset implemented is
// exactly what the emitters produce: null, bool, number (with integers kept
// exact), string, array, object. Object keys keep insertion order so emitted
// files are stable and diffable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace safara::obs::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : kind_(Kind::kNull) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(int v) : kind_(Kind::kNumber), is_int_(true), int_(v) {}
  Value(std::int64_t v) : kind_(Kind::kNumber), is_int_(true), int_(v) {}
  Value(std::uint64_t v)
      : kind_(Kind::kNumber), is_int_(true), int_(static_cast<std::int64_t>(v)) {}
  Value(double v) : kind_(Kind::kNumber), num_(v) {}
  Value(const char* s) : kind_(Kind::kString), str_(s) {}
  Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Value(std::string_view s) : kind_(Kind::kString), str_(s) {}

  static Value array() { Value v; v.kind_ = Kind::kArray; return v; }
  static Value object() { Value v; v.kind_ = Kind::kObject; return v; }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  double as_double() const { return is_int_ ? static_cast<double>(int_) : num_; }
  std::int64_t as_int() const { return is_int_ ? int_ : static_cast<std::int64_t>(num_); }
  const std::string& as_string() const { return str_; }

  // -- array access -----------------------------------------------------------
  std::size_t size() const {
    return kind_ == Kind::kArray ? items_.size() : members_.size();
  }
  void push_back(Value v) { items_.push_back(std::move(v)); }
  const Value& at(std::size_t i) const { return items_.at(i); }
  const std::vector<Value>& items() const { return items_; }

  // -- object access ----------------------------------------------------------
  /// Returns the member value, inserting a null member if absent.
  Value& operator[](std::string_view key);
  /// Returns nullptr when the key is absent (const lookup, no insertion).
  const Value* find(std::string_view key) const;
  bool contains(std::string_view key) const { return find(key) != nullptr; }
  const std::vector<std::pair<std::string, Value>>& members() const { return members_; }

  /// Serializes; `indent < 0` emits the compact single-line form.
  std::string dump(int indent = -1) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  bool is_int_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  std::string str_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// JSON string escaping (the piece emitters need when streaming by hand).
std::string escape(std::string_view s);

}  // namespace safara::obs::json

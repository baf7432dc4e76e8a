#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace safara::obs::json {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Value& Value::operator[](std::string_view key) {
  kind_ = Kind::kObject;
  for (auto& [k, v] : members_) {
    if (k == key) return v;
  }
  members_.emplace_back(std::string(key), Value());
  return members_.back().second;
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

void append_number(std::string& out, bool is_int, std::int64_t i, double d) {
  char buf[32];
  if (is_int) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(i));
  } else if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.1f", d);  // integral double: "40.0"
  } else if (std::isfinite(d)) {
    std::snprintf(buf, sizeof buf, "%.17g", d);
    // Shorten when a lower precision round-trips exactly.
    for (int prec = 1; prec < 17; ++prec) {
      char probe[32];
      std::snprintf(probe, sizeof probe, "%.*g", prec, d);
      if (std::strtod(probe, nullptr) == d) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, d);
        break;
      }
    }
  } else {
    std::snprintf(buf, sizeof buf, "null");  // JSON has no NaN/Inf
  }
  out += buf;
}

void append_newline(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Value::dump_to(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += bool_ ? "true" : "false"; return;
    case Kind::kNumber: append_number(out, is_int_, int_, num_); return;
    case Kind::kString:
      out += '"';
      out += escape(str_);
      out += '"';
      return;
    case Kind::kArray: {
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) out += ',';
        append_newline(out, indent, depth + 1);
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (!items_.empty()) append_newline(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out += ',';
        append_newline(out, indent, depth + 1);
        out += '"';
        out += escape(members_[i].first);
        out += indent < 0 ? "\":" : "\": ";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!members_.empty()) append_newline(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

}  // namespace safara::obs::json

#include "support/string_util.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace safara {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::optional<long long> parse_int_strict(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::string buf(s);  // strtoll needs a terminated string
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end == buf.c_str() || *end != '\0' || errno == ERANGE) return std::nullopt;
  // strtoll skips leading whitespace; the strict contract does not.
  if (std::isspace(static_cast<unsigned char>(buf[0]))) return std::nullopt;
  return v;
}

}  // namespace safara

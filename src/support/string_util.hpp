// Small string helpers shared across the project.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace safara {

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char sep);

/// Strict whole-token integer parse: optional sign, decimal digits, nothing
/// else (no trailing junk, no whitespace), rejected on overflow. Every
/// binary's integer flags get this contract (driver::int_flag); std::atoi-style
/// "4abc" -> 4 / "abc" -> 0 coercions are exactly what it exists to forbid.
std::optional<long long> parse_int_strict(std::string_view s);

}  // namespace safara

// Decimal text for doubles: the tree's one number formatter.
//
// Every number that leaves the program as text for another program to read
// back — the JSON exports, rendered cluster specs and fault plans, run-report
// keys, the tuning knowledge base — goes through format_double(), so one
// rule decides its bytes: 17 significant digits in printf's "%g" layout,
// which round-trips every finite double exactly. std::to_chars produces that
// text without printf's locale and multi-precision machinery.
#pragma once

#include <cstddef>
#include <string>

namespace mron {

/// Room for the longest text format_double() writes
/// ("-2.2250738585072014e-308" is 24 characters).
inline constexpr std::size_t kFormatDoubleMax = 32;

/// Writes `v` into [out, out + kFormatDoubleMax) and returns one past the
/// last character written. Non-finite values print as inf/nan, as printf
/// does.
char* format_double(char* out, double v);
[[nodiscard]] std::string format_double(double v);

}  // namespace mron

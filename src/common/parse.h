// Decimal integer input: the whole text, in range, or nothing.
//
// User input that names a count, a node or a seed parses here rather than
// through a double, so "1.5", "1e10" and values past the type's range are
// rejected instead of truncated or cast with undefined behaviour.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace mron {

/// `text` as a T (an optional '-' for signed T, then decimal digits), or
/// nullopt when a byte is left over or the value does not fit T.
template <typename T>
[[nodiscard]] std::optional<T> parse_integer(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace mron

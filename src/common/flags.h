// Minimal command-line flag parsing for the example/CLI binaries.
//
// Supports `--name=value`, `--name value`, and bare boolean `--name`.
// Unknown flags are collected so callers can reject or report them. A
// numeric value that does not parse in full (or, for int, is not an integer
// in range) throws InputError.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mron {

class Flags {
 public:
  /// Parse argv; non-flag arguments land in positional().
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] double get(const std::string& name, double fallback) const;
  [[nodiscard]] int get(const std::string& name, int fallback) const;
  /// Bare `--name` or `--name=true/1/yes` -> true.
  [[nodiscard]] bool get(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  /// Flags the caller never queried — typo detection.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  [[nodiscard]] std::optional<std::string> raw(const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace mron

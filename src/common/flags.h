// Command-line flag parsing for the CLI and bench binaries.
//
// Supports `--name=value`, `--name value`, and bare `--name`. A value flag
// (read with the string/int/double get) given bare or empty is a user
// error, as is a numeric value that does not parse in full (or, for int, is
// not an integer in range), a boolean given anything but true/false
// spellings, and any flag or stray argument the caller did not read
// (reject_unused). All of these throw InputError.
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
  /// Bare `--name` or `--name=true/1/yes` -> true; `false/0/no` -> false.
  [[nodiscard]] bool get(const std::string& name, bool fallback) const;
  /// An output file flag: "" when absent, `bare` when given bare or empty.
  [[nodiscard]] std::string path(const std::string& name,
                                 const std::string& bare) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  /// Flags the caller never queried — typo detection.
  [[nodiscard]] std::vector<std::string> unused() const;
  /// Throws InputError naming the first unused flag or positional argument.
  void reject_unused() const;

 private:
  [[nodiscard]] std::optional<std::string> raw(const std::string& name) const;
  /// The value of a value flag, nullopt when absent; throws when bare.
  [[nodiscard]] std::optional<std::string> value_flag(
      const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace mron

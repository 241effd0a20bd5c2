#include "common/flags.h"

#include <cstdlib>
#include <limits>

#include "common/check.h"
#include "common/parse.h"

namespace mron {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` when the next token is not itself a flag; otherwise a
    // bare boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";
    }
  }
}

std::optional<std::string> Flags::raw(const std::string& name) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

bool Flags::has(const std::string& name) const {
  return raw(name).has_value();
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto v = raw(name);
  return v.has_value() && !v->empty() ? *v : fallback;
}

double Flags::get(const std::string& name, double fallback) const {
  const auto v = raw(name);
  if (!v.has_value() || v->empty()) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  MRON_INPUT_CHECK(end == v->c_str() + v->size(),
                   "--" << name << " wants a number, got '" << *v << "'");
  return parsed;
}

int Flags::get(const std::string& name, int fallback) const {
  const auto v = raw(name);
  if (!v.has_value() || v->empty()) return fallback;
  const auto parsed = parse_integer<int>(*v);
  MRON_INPUT_CHECK(parsed.has_value(),
                   "--" << name << " wants an integer in ["
                        << std::numeric_limits<int>::min() << ", "
                        << std::numeric_limits<int>::max() << "], got '"
                        << *v << "'");
  return *parsed;
}

bool Flags::get(const std::string& name, bool fallback) const {
  const auto v = raw(name);
  if (!v.has_value()) return fallback;
  if (v->empty() || *v == "1" || *v == "true" || *v == "yes") return true;
  return false;
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    if (queried_.find(name) == queried_.end()) out.push_back(name);
  }
  return out;
}

}  // namespace mron

#include "tuner/knowledge_base.h"

#include <sstream>

#include "common/format.h"

namespace mron::tuner {

using mapreduce::ParamRegistry;

void TuningKnowledgeBase::store(const std::string& job_signature,
                                const mapreduce::JobConfig& config,
                                double cost) {
  auto it = entries_.find(job_signature);
  if (it != entries_.end() && it->second.cost <= cost) return;
  entries_[job_signature] = Entry{config, cost};
}

std::optional<mapreduce::JobConfig> TuningKnowledgeBase::lookup(
    const std::string& job_signature) const {
  auto e = lookup_entry(job_signature);
  if (!e.has_value()) return std::nullopt;
  return e->config;
}

std::optional<TuningKnowledgeBase::Entry> TuningKnowledgeBase::lookup_entry(
    const std::string& job_signature) const {
  auto it = entries_.find(job_signature);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::string TuningKnowledgeBase::serialize() const {
  const auto& reg = ParamRegistry::standard();
  std::ostringstream os;
  for (const auto& [sig, entry] : entries_) {
    os << sig << " " << format_double(entry.cost);
    for (std::size_t i = 0; i < reg.size(); ++i) {
      os << " " << reg.at(i).name << "="
         << format_double(reg.get(entry.config, i));
    }
    os << "\n";
  }
  return os.str();
}

int TuningKnowledgeBase::deserialize(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  int read = 0;
  const auto& reg = ParamRegistry::standard();
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string sig;
    double cost = 0.0;
    if (!(ls >> sig >> cost)) continue;
    mapreduce::JobConfig cfg;
    std::string kv;
    while (ls >> kv) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos) continue;
      reg.set_by_name(cfg, kv.substr(0, eq), std::stod(kv.substr(eq + 1)));
    }
    store(sig, cfg, cost);
    ++read;
  }
  return read;
}

}  // namespace mron::tuner

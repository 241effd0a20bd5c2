#include "obs/metrics.h"

#include <algorithm>

#include "common/check.h"
#include "obs/json.h"

namespace mron::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  MRON_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bounds must ascend");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
}

std::int64_t Histogram::bucket(std::size_t i) const {
  MRON_CHECK(i < counts_.size());
  return counts_[i];
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the quantile in 1..count (ceil), then walk the buckets.
  const double rank = std::max(1.0, q * static_cast<double>(count_));
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double in_bucket = static_cast<double>(counts_[i]);
    if (cum + in_bucket < rank) {
      cum += in_bucket;
      continue;
    }
    if (i >= bounds_.size()) {
      // Overflow bucket: unbounded above, so report the last finite edge.
      return bounds_.empty() ? 0.0 : bounds_.back();
    }
    const double lo = i == 0 ? std::min(0.0, bounds_[0]) : bounds_[i - 1];
    const double hi = bounds_[i];
    return lo + (hi - lo) * ((rank - cum) / in_bucket);
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

bool Histogram::quantile_clamped(double q) const {
  if (count_ == 0 || overflow_count() == 0) return false;
  q = std::min(1.0, std::max(0.0, q));
  // Same rank rule as quantile(): the rank is clamped exactly when it
  // falls past the samples in the finite buckets.
  const double rank = std::max(1.0, q * static_cast<double>(count_));
  return rank > static_cast<double>(count_ - overflow_count());
}

MetricsRegistry::Entry& MetricsRegistry::entry_of(std::string_view name,
                                                  Kind kind) {
  auto it = metrics_.lower_bound(name);
  if (it == metrics_.end() || it->first != name) {
    it = metrics_.try_emplace(it, std::string(name));
    it->second.kind = kind;
  } else {
    MRON_CHECK_MSG(it->second.kind == kind,
                   "metric '" << name << "' re-registered as another kind");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return entry_of(name, Kind::Counter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return entry_of(name, Kind::Gauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  Entry& e = entry_of(name, Kind::Histogram);
  if (e.histogram == nullptr) {
    e.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return *e.histogram;
}

double MetricsRegistry::Entry::scalar() const {
  switch (kind) {
    case Kind::Counter: return counter.value();
    case Kind::Gauge: return gauge.value();
    case Kind::Histogram:
      return histogram ? static_cast<double>(histogram->count()) : 0.0;
  }
  return 0.0;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(metrics_.size());
  for (const auto& [name, entry] : metrics_) out.push_back(name);
  return out;
}

bool MetricsRegistry::has(const std::string& name) const {
  return metrics_.find(name) != metrics_.end();
}

double MetricsRegistry::value(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.scalar();
}

double MetricsRegistry::quantile(const std::string& name, double q) const {
  const auto it = metrics_.find(name);
  if (it == metrics_.end() || it->second.kind != Kind::Histogram ||
      it->second.histogram == nullptr) {
    return 0.0;
  }
  return it->second.histogram->quantile(q);
}

std::int64_t MetricsRegistry::overflow_count(const std::string& name) const {
  const auto it = metrics_.find(name);
  if (it == metrics_.end() || it->second.kind != Kind::Histogram ||
      it->second.histogram == nullptr) {
    return 0;
  }
  return it->second.histogram->overflow_count();
}

bool MetricsRegistry::quantile_clamped(const std::string& name,
                                       double q) const {
  const auto it = metrics_.find(name);
  if (it == metrics_.end() || it->second.kind != Kind::Histogram ||
      it->second.histogram == nullptr) {
    return false;
  }
  return it->second.histogram->quantile_clamped(q);
}

bool MetricsRegistry::is_histogram(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it != metrics_.end() && it->second.kind == Kind::Histogram;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  JsonWriter w(os);
  w.raw("{\"schema\":\"mron.metrics/2\",\"metrics\":[");
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    if (!first) w.raw(',');
    first = false;
    w.raw("{\"name\":").string(name).raw(",\"kind\":\"");
    w.raw(entry.kind == Kind::Counter
              ? "counter"
              : entry.kind == Kind::Gauge ? "gauge" : "histogram");
    w.raw("\",\"value\":").number(entry.scalar());
    if (entry.kind == Kind::Histogram && entry.histogram != nullptr) {
      const Histogram& h = *entry.histogram;
      w.raw(",\"sum\":").number(h.sum());
      w.raw(",\"p50\":").number(h.quantile(0.50));
      w.raw(",\"p95\":").number(h.quantile(0.95));
      w.raw(",\"p99\":").number(h.quantile(0.99));
      w.raw(",\"overflow_count\":").integer(h.overflow_count());
      w.raw(",\"buckets\":[");
      for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
        if (i > 0) w.raw(',');
        w.raw('[');
        if (i < h.bounds().size()) {
          w.number(h.bounds()[i]);
        } else {
          w.raw("null");  // overflow bucket
        }
        w.raw(',').integer(h.bucket(i)).raw(']');
      }
      w.raw(']');
    }
    w.raw('}');
  }
  w.raw("]}\n");
  w.flush();
}

}  // namespace mron::obs

#include "obs/metrics.h"

#include <algorithm>

#include "common/check.h"
#include "obs/json.h"

namespace mron::obs {

TimeSeries::TimeSeries(std::size_t capacity) : capacity_(capacity) {
  MRON_CHECK(capacity > 0);
}

void TimeSeries::push(SimTime t, double v) {
  // Grow lazily up to capacity (most metrics record far fewer samples than
  // the cap; eagerly zeroing hundreds of full buffers would dominate small
  // runs), then wrap as a ring. When full, the oldest sample sits at head_,
  // so it is exactly the slot the new one overwrites — no modulo needed,
  // and this is the recorder's single hottest store.
  if (buf_.size() < capacity_) {
    buf_.push_back(TimePoint{t, v});
    ++size_;
    return;
  }
  buf_[head_] = TimePoint{t, v};
  ++head_;
  if (head_ == buf_.size()) head_ = 0;
  ++dropped_;
}

const TimePoint& TimeSeries::at(std::size_t i) const {
  MRON_CHECK(i < size_);
  return buf_[(head_ + i) % buf_.size()];
}

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
  if (registry_ != nullptr) registry_->mark_dirty(index_);
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

void Histogram::merge(const Histogram& other) {
  MRON_CHECK_MSG(bounds_ == other.bounds_,
                 "histogram merge requires identical bounds");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

MetricsRegistry::Entry& MetricsRegistry::entry_of(const std::string& name,
                                                  Kind kind) {
  auto [it, inserted] = metrics_.try_emplace(name);
  if (inserted) {
    Entry& e = it->second;
    e.kind = kind;
    const auto index = static_cast<std::uint32_t>(by_index_.size());
    by_index_.push_back(&e);
    e.counter.registry_ = this;
    e.counter.index_ = index;
    e.gauge.registry_ = this;
    e.gauge.index_ = index;
    // New metrics start dirty so every series opens with its initial value.
    mark_dirty(index);
  } else {
    MRON_CHECK_MSG(it->second.kind == kind,
                   "metric '" << name << "' re-registered as another kind");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return entry_of(name, Kind::Counter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return entry_of(name, Kind::Gauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  Entry& e = entry_of(name, Kind::Histogram);
  if (e.histogram == nullptr) {
    e.histogram = std::make_unique<Histogram>(std::move(bounds));
    e.histogram->registry_ = e.counter.registry_;
    e.histogram->index_ = e.counter.index_;
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

const TimeSeries* MetricsRegistry::series(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : &it->second.series;
}

void MetricsRegistry::sample(SimTime now) {
  // Dirty-driven: only metrics written since the last sample are visited, so
  // a tick's cost tracks actual activity, not registry size. Change-only
  // recording on top of that: the series is a step function, so re-stamping
  // an unchanged value adds no information.
  for (const std::uint32_t idx : dirty_) {
    Entry& entry = *by_index_[idx];
    entry.queued = false;
    const double v = entry.scalar();
    if (entry.ever_sampled && v == entry.last_sampled) continue;
    entry.series.push(now, v);
    entry.last_sampled = v;
    entry.ever_sampled = true;
  }
  dirty_.clear();
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, theirs] : other.metrics_) {
    switch (theirs.kind) {
      case Kind::Counter:
        counter(name).add(theirs.counter.value());
        break;
      case Kind::Gauge:
        gauge(name).set(theirs.gauge.value());
        break;
      case Kind::Histogram:
        if (theirs.histogram != nullptr) {
          histogram(name, theirs.histogram->bounds())
              .merge(*theirs.histogram);
        }
        break;
    }
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  JsonWriter w(os);
  w.raw("{\"metrics\":[");
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
    w.raw(",\"series\":[");
    for (std::size_t i = 0; i < entry.series.size(); ++i) {
      if (i > 0) w.raw(',');
      const TimePoint& p = entry.series.at(i);
      w.raw('[').number(p.time).raw(',').number(p.value).raw(']');
    }
    w.raw("]}");
  }
  w.raw("]}\n");
  w.flush();
}

}  // namespace mron::obs

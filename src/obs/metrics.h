// MetricsRegistry — named counters, gauges, and fixed-bucket histograms.
//
// Publishers (SharedServer, ClusterMonitor, the RM, the task models) look a
// metric up once and keep the returned reference: registry entries live in a
// std::map, so handles stay valid for the registry's lifetime and the hot
// path is a single add/store. The registry holds scalars and histograms
// only — --metrics-out exports each metric's final state. Every timeline
// (node occupancy, wave progress, tuner convergence) lives in SeriesStore
// (series.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace mron::obs {

class Counter {
 public:
  void add(double delta = 1.0) { value_ += delta; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds in ascending
/// order; one implicit overflow bucket catches everything above the last.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Bucket i covers (bounds[i-1], bounds[i]]; index bounds().size() is the
  /// overflow bucket.
  [[nodiscard]] std::int64_t bucket(std::size_t i) const;
  /// Interpolated quantile (Prometheus-style): linear within the bucket the
  /// rank falls into, assuming uniform spread. A rank landing in the
  /// overflow bucket returns the last finite bound (nothing to interpolate
  /// against); an empty histogram returns 0. `q` is clamped to [0, 1].
  [[nodiscard]] double quantile(double q) const;
  /// Samples above the last finite bound (the implicit overflow bucket).
  [[nodiscard]] std::int64_t overflow_count() const {
    return counts_.empty() ? 0 : counts_.back();
  }
  /// True when quantile(q)'s rank lands in the overflow bucket — the
  /// returned value is the clamp, not an interpolation, and should be
  /// flagged wherever it is reported.
  [[nodiscard]] bool quantile_clamped(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::int64_t> counts_;  ///< bounds_.size() + 1 entries
  std::int64_t count_ = 0;
  double sum_ = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  // Non-copyable: handles point into this registry's entries.
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. Re-requesting a name with a different kind aborts: a
  /// metric name means one thing for the whole run.
  /// Taking a string_view, a lookup of an existing metric allocates
  /// nothing, whatever the name's length.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  [[nodiscard]] std::size_t size() const { return metrics_.size(); }
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] bool has(const std::string& name) const;
  /// Scalar view of any metric (counter/gauge value, histogram count), or
  /// 0 for unknown names.
  [[nodiscard]] double value(const std::string& name) const;
  /// Interpolated quantile of a histogram metric; 0 for unknown names or
  /// non-histogram kinds. Part of the scalar view alongside value().
  [[nodiscard]] double quantile(const std::string& name, double q) const;
  /// Histogram::overflow_count by name; 0 for unknown/non-histogram names.
  [[nodiscard]] std::int64_t overflow_count(const std::string& name) const;
  /// Histogram::quantile_clamped by name; false for unknown names.
  [[nodiscard]] bool quantile_clamped(const std::string& name,
                                      double q) const;
  [[nodiscard]] bool is_histogram(const std::string& name) const;

  /// {"schema":"mron.metrics/2","metrics":[{name, kind, value, ...}, ...]}
  /// — each metric's final scalar (plus sum/quantiles/buckets for
  /// histograms); timelines are exported by SeriesStore.
  void write_json(std::ostream& os) const;

 private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Entry {
    Kind kind = Kind::Counter;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> histogram;
    [[nodiscard]] double scalar() const;
  };
  Entry& entry_of(std::string_view name, Kind kind);

  /// Ordered (deterministic export); std::less<> finds by string_view.
  std::map<std::string, Entry, std::less<>> metrics_;
};

}  // namespace mron::obs

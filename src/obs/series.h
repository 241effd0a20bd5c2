// Run-long time series: the flight recorder's fourth pillar.
//
// The repo's one time-series path: the MetricsRegistry (metrics.h) keeps
// only each metric's current scalar. The paper-figure shapes (Figures 4-16)
// are whole-run timelines — per-node utilization, wave progress, tuner
// convergence — and a run's length is not known in advance, so a fixed
// buffer must either wrap (losing the run's start) or downsample. A Series
// downsamples deterministically: when the buffer fills, every other point
// is dropped and the acceptance stride doubles, so the series always spans
// the full run in bounded memory at a resolution that halves as the run
// grows.
//
// Determinism contract: the surviving points are a pure function of the
// push sequence (the i-th push survives iff i % stride == 0 for the final
// stride) — no wall clock, no allocation-order dependence — so an exported
// series is byte-identical across repeated runs and across --jobs values.
//
// Publishers push either from the sampling clock (ClusterMonitor's tick and
// the Recorder flush hooks: node occupancy, RM queue depth, job wave
// progress) or from discrete decision points (the tuner's per-iteration
// state). Handles returned by SeriesStore::series() stay valid for the
// store's lifetime, mirroring the MetricsRegistry contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/units.h"

namespace mron::obs {

class JsonWriter;

/// Default point budget per series. Runs shorter than this record every
/// push; longer runs halve their resolution as needed (a day-long run at a
/// 1 s tick still fits in ~512 points at stride 256).
inline constexpr std::size_t kDefaultSeriesPointBudget = 512;

struct SeriesPoint {
  SimTime time = 0.0;
  double value = 0.0;
};

/// One named series: bounded buffer with deterministic 2x downsampling.
class Series {
 public:
  explicit Series(std::size_t capacity = kDefaultSeriesPointBudget);

  /// Offer a sample. It is recorded only when the offer index is a multiple
  /// of the current stride; filling the buffer compacts it (keep every
  /// other point) and doubles the stride.
  void push(SimTime t, double v);

  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] bool empty() const { return points_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const SeriesPoint& at(std::size_t i) const;
  /// Current acceptance stride (1 until the first compaction, then 2, 4...).
  [[nodiscard]] std::size_t stride() const { return stride_; }
  /// Total pushes offered, recorded or not.
  [[nodiscard]] std::uint64_t offered() const { return offered_; }
  /// Heap footprint of the point buffer, for the host profiler.
  [[nodiscard]] std::size_t memory_bytes() const {
    return points_.capacity() * sizeof(SeriesPoint);
  }

 private:
  std::vector<SeriesPoint> points_;
  std::size_t capacity_ = kDefaultSeriesPointBudget;
  std::size_t stride_ = 1;
  std::uint64_t offered_ = 0;
};

/// Named Series, ordered by name for deterministic export.
class SeriesStore {
 public:
  SeriesStore() = default;
  SeriesStore(const SeriesStore&) = delete;
  SeriesStore& operator=(const SeriesStore&) = delete;

  /// Find-or-create. The returned reference stays valid for the store's
  /// lifetime; publishers resolve it once and keep it.
  Series& series(const std::string& name,
                 std::size_t capacity = kDefaultSeriesPointBudget);

  [[nodiscard]] const Series* find(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return series_.size(); }
  [[nodiscard]] std::vector<std::string> names() const;
  /// Summed heap footprint of every series' point buffer.
  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t bytes = 0;
    for (const auto& [name, s] : series_) bytes += s.memory_bytes();
    return bytes;
  }

  /// {"series":[{"name":...,"stride":N,"offered":N,
  ///             "points":[[t,v],...]},...]}
  void write_json(std::ostream& os) const;
  /// The same document into `w`, e.g. as a section of the run report.
  void write_json(JsonWriter& w) const;

 private:
  std::map<std::string, Series> series_;
};

}  // namespace mron::obs

// The flight recorder: one bundle of five of the six observability pillars
// — metrics (counters, gauges and histograms: final values, no timelines),
// sim-time trace spans, the tuner decision audit log, run-long time series
// (bounded, 2x-downsampled whole-run timelines — the paper-figure shapes,
// and the only time-series path), and the causal critical-path DAG (blame
// attribution for end-to-end latency). The sixth pillar — the host
// self-profiler (obs/host_profile.h) — lives outside the bundle: its data
// is wall-clock nondeterministic, so it must never feed the deterministic
// exports these five produce.
//
// A Simulation constructed with observe=true owns a Recorder and hands a
// pointer to its Engine; every instrumentation site reaches it through
// `engine.recorder()` (nullptr when observation is off, so hooks cost one
// branch). The bundle is deliberately dumb — each pillar is independently
// testable and exportable.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "obs/audit.h"
#include "obs/critical_path.h"
#include "obs/metrics.h"
#include "obs/series.h"
#include "obs/trace.h"

namespace mron::obs {

class Recorder {
 public:
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] TraceRecorder& trace() { return trace_; }
  [[nodiscard]] const TraceRecorder& trace() const { return trace_; }
  [[nodiscard]] AuditLog& audit() { return audit_; }
  [[nodiscard]] const AuditLog& audit() const { return audit_; }
  [[nodiscard]] SeriesStore& series() { return series_; }
  [[nodiscard]] const SeriesStore& series() const { return series_; }
  [[nodiscard]] CriticalPathBuilder& critical_path() {
    return critical_path_;
  }
  [[nodiscard]] const CriticalPathBuilder& critical_path() const {
    return critical_path_;
  }

  /// Pull-model publishing for hot components: instead of writing gauges and
  /// series on every state change, register a hook that refreshes them, and
  /// the sampling clock (ClusterMonitor, plus one final call at the end of
  /// the run) calls flush() once per tick. The publisher must outlive
  /// the recorder's last flush (in practice: the simulation owns both).
  void add_flush_hook(std::function<void()> hook) {
    flush_hooks_.push_back(std::move(hook));
  }
  void flush() {
    for (const auto& hook : flush_hooks_) hook();
  }
  /// For publishers whose values matter only at the end of the run — a
  /// gauge with no series that nothing reads mid-run: the end-of-run flush
  /// calls these once, the per-tick flush never does.
  void add_final_hook(std::function<void()> hook) {
    final_hooks_.push_back(std::move(hook));
  }
  /// The end-of-run flush: every per-tick hook, then every final hook.
  void final_flush() {
    flush();
    for (const auto& hook : final_hooks_) hook();
  }

 private:
  MetricsRegistry metrics_;
  TraceRecorder trace_;
  AuditLog audit_;
  SeriesStore series_;
  CriticalPathBuilder critical_path_;
  std::vector<std::function<void()>> flush_hooks_;
  std::vector<std::function<void()>> final_hooks_;
};

}  // namespace mron::obs

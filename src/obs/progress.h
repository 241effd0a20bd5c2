// Wall-clock-throttled stderr heartbeat for long runs.
//
// The engine calls tick() every few thousand dispatched events (see
// Engine::set_progress); the meter prints at most one line per interval:
//
//   [label] 12.0s: 24.5M events (2.04M ev/s), sim t=1830.2s, rss=512 MiB
//
// Host-side only and off by default: it writes to stderr, never to any
// exported artifact, so enabling it cannot perturb report determinism.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "obs/host_profile.h"

namespace mron::obs {

class ProgressMeter {
 public:
  explicit ProgressMeter(std::string label, double min_interval_s = 1.0)
      : label_(std::move(label)),
        min_interval_s_(min_interval_s),
        start_(Clock::now()),
        last_(start_) {}

  /// Report progress; prints only when min_interval_s has elapsed since the
  /// last line.
  void tick(std::int64_t events, double sim_time) {
    const Clock::time_point now = Clock::now();
    const double since = secs(now - last_);
    if (since < min_interval_s_) return;
    const double elapsed = secs(now - start_);
    const double rate =
        static_cast<double>(events - last_events_) / since / 1e6;
    const long long rss_mib = HostProfiler::current_rss_bytes() >> 20;
    std::fprintf(stderr,
                 "[%s] %.1fs: %.2fM events (%.2fM ev/s), sim t=%.1fs, "
                 "rss=%lld MiB\n",
                 label_.c_str(), elapsed,
                 static_cast<double>(events) / 1e6, rate, sim_time, rss_mib);
    last_ = now;
    last_events_ = events;
  }

 private:
  using Clock = std::chrono::steady_clock;
  static double secs(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  }

  std::string label_;
  double min_interval_s_;
  Clock::time_point start_;
  Clock::time_point last_;
  std::int64_t last_events_ = 0;
};

}  // namespace mron::obs

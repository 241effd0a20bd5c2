// Sim-time span tracing exported as Chrome trace_event JSON.
//
// The convention, mirroring what chrome://tracing / Perfetto expect:
//   - one "process" per cluster node (pid = node id), plus a synthetic
//     pid for the tuner's wave lanes (kTunerTracePid);
//   - one "thread" per YARN container (tid = container id), so each task
//     attempt renders as a bar in its container's swimlane.
//
// Duration spans use B/E pairs and must nest properly per (pid, tid);
// overlapping work on one lane (concurrent shuffle fetches) uses async
// b/e events with a unique id instead. Sim-time seconds become trace
// microseconds on export.
//
// Names and categories are `const char*` string literals by contract: the
// recorder stores the pointers verbatim, so the hot path never allocates.
//
// set_detail() gates phase-level spans (map read/spill, shuffle, merge,
// reduce, fetches): with detail off — the default — the trace contains
// exactly one span per task attempt plus one per tuner wave, which is the
// invariant the acceptance test counts.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/units.h"

namespace mron::obs {

/// Synthetic trace "process" hosting the tuner's wave swimlanes, far above
/// any real node id.
inline constexpr int kTunerTracePid = 1 << 20;

/// Opaque handle for an open duration span (index into the event buffer).
using SpanId = std::int64_t;
inline constexpr SpanId kInvalidSpan = -1;

class TraceRecorder {
 public:
  /// Open a duration span. `name` and `cat` must be string literals (stored
  /// by pointer). Optional single numeric argument lands in the event's
  /// "args" object under `arg_key`.
  SpanId begin(const char* name, const char* cat, int pid, std::int64_t tid,
               SimTime t, const char* arg_key = nullptr, double arg_val = 0);
  /// Close a span opened by begin(). Safe to call with kInvalidSpan (no-op),
  /// so abort paths can close unconditionally.
  void end(SpanId span, SimTime t);

  /// Async span pair for overlapping work on one lane (ph 'b'/'e'); `id`
  /// correlates the pair and must be unique per (cat, id) while open. Each
  /// event takes an optional numeric argument, as begin() does; viewers
  /// merge both events' args into the span's.
  void async_begin(const char* name, const char* cat, int pid,
                   std::int64_t id, SimTime t, const char* arg_key = nullptr,
                   double arg_val = 0);
  void async_end(const char* name, const char* cat, int pid, std::int64_t id,
                 SimTime t, const char* arg_key = nullptr, double arg_val = 0);

  /// Zero-duration marker (ph 'i', thread scope).
  void instant(const char* name, const char* cat, int pid, std::int64_t tid,
               SimTime t);

  /// Flow-event pair (ph 's'/'f'): a visual arrow from the producer lane
  /// to the consumer lane, correlated by `id`. Used to draw the extracted
  /// critical path over the span timeline; the 'f' event binds to the
  /// enclosing slice's end ("bp":"e") so arrows land on the producing span.
  void flow_begin(const char* name, const char* cat, int pid,
                  std::int64_t tid, SimTime t, std::int64_t id);
  void flow_end(const char* name, const char* cat, int pid, std::int64_t tid,
                SimTime t, std::int64_t id);

  void set_process_name(int pid, std::string name);
  void set_thread_name(int pid, std::int64_t tid, std::string name);

  /// Phase-level spans record only when detail is on (default off).
  void set_detail(bool on) { detail_ = on; }
  [[nodiscard]] bool detail() const { return detail_; }

  /// Completed B/E span pairs, optionally filtered by category.
  [[nodiscard]] std::size_t span_count(const char* cat = nullptr) const;
  /// Spans begun but not yet ended — 0 after a clean run.
  [[nodiscard]] std::size_t open_spans() const { return open_; }
  [[nodiscard]] std::size_t event_count() const { return events_.size(); }
  /// Heap footprint of the event buffer, for the host profiler's memory
  /// section.
  [[nodiscard]] std::size_t memory_bytes() const {
    return events_.capacity() * sizeof(Event);
  }

  /// {"traceEvents":[...],"displayTimeUnit":"ms"} — metadata (process/thread
  /// names) first, then events in record order. ts is sim-time * 1e6.
  void write_chrome_json(std::ostream& os) const;

 private:
  struct Event {
    const char* name = nullptr;
    const char* cat = nullptr;
    char ph = 'B';
    SimTime time = 0.0;
    int pid = 0;
    std::int64_t tid = 0;
    std::int64_t id = -1;           ///< async/flow correlation id (b/e/s/f)
    const char* arg_key = nullptr;  ///< optional single numeric arg
    double arg_val = 0.0;
  };

  std::vector<Event> events_;
  std::map<int, std::string> process_names_;
  std::map<std::pair<int, std::int64_t>, std::string> thread_names_;
  std::size_t open_ = 0;
  bool detail_ = false;
};

}  // namespace mron::obs

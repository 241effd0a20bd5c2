// Discrete-event simulation engine.
//
// Single-threaded: all model code runs inside event callbacks dispatched by
// Engine::run(). Events at equal timestamps fire in schedule order, which
// keeps experiments bit-reproducible for a fixed seed. Whole Engines (one
// per Simulation) may run concurrently on different threads — see
// sim/parallel_runner.h — but no two threads ever touch one Engine.
//
// Internals are built for the hot path (see DESIGN.md "Engine internals"):
// callbacks live in a generation-checked slot map (contiguous storage, slots
// recycled through a free list, no per-event node allocation), and the ready
// queue is a binary min-heap of 24-byte plain-data entries ordered by
// (time, seq). cancel() is O(1): it releases the slot immediately and leaves
// a stale heap entry behind that is dropped at pop time or by an amortized
// compaction pass that keeps the heap no larger than a constant multiple of
// the live event count.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/strong_id.h"
#include "common/units.h"
#include "sim/callback.h"

namespace mron::obs {
class Recorder;
class HostProfiler;
}  // namespace mron::obs

namespace mron::sim {

struct EventTag {};
/// Packed handle: low 32 bits slot index, upper bits the slot's generation
/// at scheduling time. A handle goes stale the moment its event fires or is
/// cancelled, and stale handles are rejected in O(1).
using EventId = StrongId<EventTag>;

/// One pending event: 24 bytes of plain data. `(time, seq)` is the total
/// dispatch order; `(slot, gen)` locates the callback in the engine's slot
/// map and detects staleness after an O(1) cancel.
struct EventEntry {
  SimTime time;
  std::int64_t seq;
  std::uint32_t slot;
  std::uint32_t gen;

  bool operator<(const EventEntry& other) const {
    if (time != other.time) return time < other.time;
    return seq < other.seq;
  }
  bool operator>(const EventEntry& other) const { return other < *this; }
};

class Engine {
 public:
  using Callback = sim::Callback;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `cb` at absolute time `t >= now()`.
  EventId schedule_at(SimTime t, Callback cb);
  /// Schedule `cb` after a non-negative delay.
  EventId schedule_after(SimTime delay, Callback cb);
  /// Schedule a *daemon* event: periodic housekeeping (monitor sampling,
  /// heartbeat watchdogs, speculation scans) that should not count as
  /// pending work. Daemon events still fire normally; they only change what
  /// quiescent() reports. Every self-re-arming service must schedule itself
  /// as a daemon and guard its re-arm on !quiescent(), otherwise two such
  /// services keep each other alive forever and run() never drains.
  EventId schedule_daemon_at(SimTime t, Callback cb);
  EventId schedule_daemon_after(SimTime delay, Callback cb);
  /// Cancel a pending event. Cancelling an already-fired or already-cancelled
  /// event is a no-op (the common pattern when a completion races a cancel).
  void cancel(EventId id);

  /// Run until the event queue drains (or `max_events` fire, as a runaway
  /// guard). Returns the number of events dispatched.
  std::int64_t run(std::int64_t max_events =
                       std::numeric_limits<std::int64_t>::max());
  /// Run events with timestamp <= `t`, then set now() = t.
  std::int64_t run_until(SimTime t);

  /// Events dispatched over the engine's whole lifetime (every run/run_until
  /// call). The scaling microbench divides this by wall-clock to get the
  /// events/sec a simulated cluster sustains.
  [[nodiscard]] std::int64_t total_dispatched() const {
    return total_dispatched_;
  }

  [[nodiscard]] bool empty() const { return live_events_ == 0; }
  [[nodiscard]] std::size_t pending() const { return live_events_; }
  /// True when only daemon housekeeping remains pending — the simulation
  /// has no real work left. The re-arm guard for periodic services.
  [[nodiscard]] bool quiescent() const {
    return live_events_ == daemon_events_;
  }

  /// Diagnostics for the tombstone-growth regression test and the
  /// `sim.queue.*` gauges: total queue entries (live + not-yet-collected
  /// stale), the stale tombstones alone, and slot-map capacity. All stay
  /// O(pending()) under any schedule/cancel churn pattern.
  [[nodiscard]] std::size_t queue_size() const { return heap_.size(); }
  [[nodiscard]] std::size_t stale_entries() const { return stale_in_queue_; }
  [[nodiscard]] std::size_t slot_capacity() const { return slots_.size(); }

  /// Attach/detach the flight recorder. The engine does not own it; the
  /// Simulation (or test) that created the recorder keeps it alive for the
  /// engine's lifetime.
  void set_recorder(obs::Recorder* rec) { recorder_ = rec; }
  /// The attached recorder, or nullptr when observation is off.
  [[nodiscard]] obs::Recorder* recorder() const { return recorder_; }

  /// Attach/detach the host self-profiler (obs/host_profile.h). When
  /// attached, every scheduled event is stamped with the subsystem category
  /// of its scheduling context and run() charges each event's inter-pop
  /// wall delta to that category. Not owned; nullptr means the unprofiled
  /// fast loop runs.
  void set_host_profiler(obs::HostProfiler* prof) { host_profiler_ = prof; }
  [[nodiscard]] obs::HostProfiler* host_profiler() const {
    return host_profiler_;
  }

  /// Byte sizes of the two engine arenas, for the host profiler's memory
  /// section: the ready-queue heap and the callback slot map (including its
  /// free list).
  [[nodiscard]] std::size_t queue_memory_bytes() const {
    return heap_.capacity() * sizeof(EventEntry);
  }
  [[nodiscard]] std::size_t slot_memory_bytes() const {
    return slots_.capacity() * sizeof(Slot) +
           free_slots_.capacity() * sizeof(std::uint32_t);
  }

  /// Progress heartbeat: call `fn` once every `stride` dispatched events
  /// inside run() (stride <= 0 disables). Purely a host-side hook — it
  /// never touches sim state, so enabling it cannot perturb a run.
  using ProgressFn = std::function<void(const Engine&)>;
  void set_progress(ProgressFn fn, std::int64_t stride) {
    progress_fn_ = std::move(fn);
    progress_stride_ = progress_fn_ ? stride : 0;
    progress_left_ = progress_stride_;
  }

 private:
  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;
    bool daemon = false;
    /// Subsystem category (obs::HostCat) stamped at schedule time when a
    /// host profiler is attached; fits the struct's existing padding.
    std::uint8_t cat = 0;
  };

  [[nodiscard]] static EventId pack(std::uint32_t slot, std::uint32_t gen) {
    return EventId(static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(gen) << 32) | slot));
  }

  [[nodiscard]] bool is_live(const EventEntry& e) const {
    return slots_[e.slot].gen == e.gen && slots_[e.slot].cb;
  }

  /// Free the slot for reuse; bumping the generation invalidates every
  /// outstanding EventId and queue entry pointing at it.
  void release_slot(std::uint32_t slot);

  /// Sweep stale entries out of the queue once they outnumber live ones.
  /// Amortized O(1) per cancel; bounds queue memory to O(live).
  void maybe_compact();

  /// Remove the heap's minimum (time, seq) entry. Heap must be non-empty.
  EventEntry heap_pop();

  /// Pops the next live event; returns false when drained.
  bool dispatch_next();

  /// Pops the next live event *without* running it: fills the callback and
  /// its subsystem category, advances the clock and dispatch counters.
  /// Returns false when drained. Shared by dispatch_next and the profiled
  /// run loop, which must see the category before the callback fires.
  bool pop_next(Callback* cb, std::uint8_t* cat);

  /// run() body when a host profiler is attached. Clock reads happen only
  /// at subsystem-category *transitions*: a contiguous run of same-category
  /// events is billed as one batch (count = run length, wall = boundary
  /// delta), so the per-subsystem totals still tile the loop's wall time by
  /// construction while the rdtsc cost amortizes across each run.
  std::int64_t run_profiled(std::int64_t max_events);

  /// One progress-hook step, shared by the run loops.
  void progress_tick() {
    if (progress_stride_ > 0 && --progress_left_ <= 0) {
      progress_left_ = progress_stride_;
      progress_fn_(*this);
    }
  }

  EventId schedule_impl(SimTime t, Callback cb, bool daemon);

  SimTime now_ = 0.0;
  std::int64_t next_seq_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<EventEntry> heap_;  // binary min-heap on (time, seq)
  std::size_t live_events_ = 0;
  std::int64_t total_dispatched_ = 0;
  std::size_t daemon_events_ = 0;
  std::size_t stale_in_queue_ = 0;
  ProgressFn progress_fn_;
  std::int64_t progress_stride_ = 0;
  std::int64_t progress_left_ = 0;
  obs::Recorder* recorder_ = nullptr;
  obs::HostProfiler* host_profiler_ = nullptr;
};

}  // namespace mron::sim

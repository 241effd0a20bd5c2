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
// queue is an indexed binary min-heap of 24-byte plain-data entries ordered
// by (time, seq). The engine tracks each slot's heap position: cancel()
// removes the entry in O(log n), reschedule() moves it in place, and the
// heap holds exactly the pending events.
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
/// at scheduling time. A handle dies the moment its event fires or is
/// cancelled, and dead handles are rejected in O(1). reschedule() keeps the
/// handle alive.
using EventId = StrongId<EventTag>;

/// One pending event: 24 bytes of plain data. `(time, seq)` is the total
/// dispatch order; `slot` locates the callback in the engine's slot map.
struct EventEntry {
  SimTime time;
  std::int64_t seq;
  std::uint32_t slot;

  bool operator<(const EventEntry& other) const {
    // Branch-free: which child of a heap node is the smaller one is a coin
    // flip that no branch predictor learns.
    return (time < other.time) | ((time == other.time) & (seq < other.seq));
  }
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
  /// Cancel a pending event in O(log n). Cancelling an already-fired or
  /// already-cancelled event is a no-op (the common pattern when a completion
  /// races a cancel).
  void cancel(EventId id);
  /// Move the pending event `id` to absolute time `t >= now()`, keeping its
  /// handle, callback and daemon flag. It takes the next sequence number, so
  /// it dispatches exactly where cancel() + schedule_at() would have put it,
  /// in O(log n) and without releasing its slot. `id` must be pending:
  /// rescheduling a fired or cancelled event is a check failure.
  void reschedule(EventId id, SimTime t);

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

  /// Diagnostics for the churn tests and the `sim.queue.*` gauges: heap
  /// entries (always exactly pending()) and slot-map capacity (the high-water
  /// mark of pending()).
  [[nodiscard]] std::size_t queue_size() const { return heap_.size(); }
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
           (free_slots_.capacity() + heap_pos_.capacity()) *
               sizeof(std::uint32_t);
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

  /// Slot of the pending event `id`, or kNoSlot when it already fired, was
  /// cancelled or was never issued.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  [[nodiscard]] std::uint32_t pending_slot(EventId id) const;

  /// Free the slot for reuse; bumping the generation invalidates every
  /// outstanding EventId pointing at it.
  void release_slot(std::uint32_t slot);

  /// Indexed-heap primitives: every entry that lands in the heap goes
  /// through place(), which keeps heap_pos_ in step with its position.
  void place(std::size_t pos, const EventEntry& e) {
    heap_[pos] = e;
    heap_pos_[e.slot] = static_cast<std::uint32_t>(pos);
  }
  /// Move the entry at `pos` up, or down, to where its key belongs.
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Remove the entry at `pos`, filling the hole with the last entry.
  void heap_erase(std::size_t pos);

  /// Pops the next event; returns false when drained.
  bool dispatch_next();

  /// Pops the next event *without* running it: fills the callback and
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
  /// Per slot, the heap index of its pending event's entry. A dense array
  /// beside slots_ rather than a Slot field: every sift step writes one,
  /// and 4-byte strides keep those writes in cache where 80-byte ones miss.
  std::vector<std::uint32_t> heap_pos_;
  std::vector<EventEntry> heap_;  // indexed binary min-heap on (time, seq)
  std::size_t live_events_ = 0;
  std::int64_t total_dispatched_ = 0;
  std::size_t daemon_events_ = 0;
  ProgressFn progress_fn_;
  std::int64_t progress_stride_ = 0;
  std::int64_t progress_left_ = 0;
  obs::Recorder* recorder_ = nullptr;
  obs::HostProfiler* host_profiler_ = nullptr;
};

}  // namespace mron::sim

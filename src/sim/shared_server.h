// Capacity-capped processor-sharing server.
//
// Models a contended resource (disk, network link, node CPU) that divides a
// fixed capacity fairly among concurrent streams, where each stream may also
// be individually capped (e.g. a task limited to its allocated vcores).
// Allocation follows water-filling: capacity is split equally, streams whose
// cap is below their equal share keep their cap, and the surplus is
// redistributed among the rest.
//
// Work is a scalar in resource-specific units: bytes for disks and links,
// core-seconds for CPU.
//
// Internals (see DESIGN.md "Engine internals"): streams live in a flat
// insertion-ordered table instead of a node-based map, and the allocation
// is represented as a *mode* — flat equal split, everyone-at-cap, or
// explicit water-filled rates — so the common shapes are classified and
// applied in O(1) from aggregates (cap sum, min cap, min remaining)
// gathered in the same single pass that progresses the streams. A submit
// or completion on a server with k streams costs one fused scan, not the
// four or five (advance, classify, assign, min-completion, partition) the
// naive implementation pays; only true water-filling materializes
// per-stream rates over reusable scratch storage, and rates are recomputed
// only when the binding set — stream membership or caps — actually
// changed. The completion event is still cancelled and rescheduled on
// exactly the same occasions as before, so the engine-level event ordering
// (and with it every seeded experiment) is bit-identical to the
// straightforward implementation.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/strong_id.h"
#include "sim/engine.h"

namespace mron::obs {
class Gauge;
}  // namespace mron::obs

namespace mron::sim {

struct StreamTag {};
using StreamId = StrongId<StreamTag>;

class SharedServer {
 public:
  using Done = Callback;

  static constexpr double kUncapped = std::numeric_limits<double>::infinity();

  /// `capacity` is in work-units per simulated second and must be positive.
  /// `concurrency_penalty` models efficiency loss under concurrent streams
  /// (e.g. disk seek thrashing): the effective capacity becomes
  /// capacity / (1 + penalty * (n - 1)) for n active streams.
  SharedServer(Engine& engine, double capacity, std::string name,
               double concurrency_penalty = 0.0);

  SharedServer(const SharedServer&) = delete;
  SharedServer& operator=(const SharedServer&) = delete;

  /// Submit `work` units; `cap` limits this stream's rate. `done` fires when
  /// the stream completes. Zero-work streams complete via a 0-delay event so
  /// callers observe uniform asynchronous behaviour.
  StreamId submit(double work, double cap, Done done);
  StreamId submit(double work, Done done) {
    return submit(work, kUncapped, std::move(done));
  }

  /// Abort a stream; its `done` never fires. No-op if already finished.
  void cancel(StreamId id);
  /// Change a live stream's rate cap (e.g. container resize).
  void set_cap(StreamId id, double cap);
  /// Remaining work of a live stream, or 0 when finished/unknown.
  [[nodiscard]] double remaining(StreamId id) const;

  [[nodiscard]] std::size_t active() const { return streams_.size(); }
  [[nodiscard]] double capacity() const { return capacity_; }

  /// Rescale the capacity relative to its construction-time value (fault
  /// injection: a degraded disk/NIC, or a crashed node's hardware going
  /// dark). Live streams keep their progress; rates and the completion
  /// event are recomputed under the new capacity. `scale` must be > 0.
  void set_capacity_scale(double scale);
  [[nodiscard]] double capacity_scale() const {
    return capacity_ / base_capacity_;
  }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Integral of (allocated rate) dt since construction, i.e. total work
  /// served. utilization over [t0,t1] = delta(busy_integral)/(capacity*(t1-t0)).
  [[nodiscard]] double busy_integral() const;
  /// Instantaneous total allocated rate.
  [[nodiscard]] double current_rate() const { return total_rate_; }

  /// Hook fired on every submit() — the only way this server can leave the
  /// idle state. The cluster monitor's dirty-set sampler listens here so
  /// that idle servers cost it nothing per tick. Must be O(1) and
  /// idempotent; at most one callback.
  void set_activity_callback(Callback cb) { activity_cb_ = std::move(cb); }

 private:
  struct Stream {
    StreamId id;
    double remaining;
    double cap;
    double rate = 0.0;  // authoritative only in RateMode::kExplicit
    Done done;
  };

  /// How the current allocation is represented. The common shapes (flat
  /// equal split, everyone at cap) are a single scalar, so recomputing them
  /// after every submit/completion writes no per-stream state — the loops
  /// that made every event O(active streams) several times over collapse
  /// into one fused pass. Only true water-filling materializes per-stream
  /// rates.
  enum class RateMode : std::uint8_t {
    kExplicit,  ///< Stream::rate holds each stream's allocation
    kFlat,      ///< every stream runs at flat_share_
    kPerCap,    ///< every stream runs at its own cap
  };

  /// Allocation aggregates gathered in the same pass that progresses the
  /// streams: everything reallocate() needs to classify the next shape and
  /// schedule the next completion without re-scanning.
  struct Agg {
    double cap_sum = 0.0;  ///< in stream order from 0.0 (FP determinism)
    double min_cap = std::numeric_limits<double>::infinity();
    double min_rem = std::numeric_limits<double>::infinity();
    void add(double remaining, double cap);
  };

  /// Index into streams_ of the live stream `id`, or -1. Only the cold
  /// paths (cancel, set_cap, remaining) resolve ids, so a linear scan beats
  /// any index structure.
  [[nodiscard]] int find(StreamId id) const;

  /// The stream's current allocation under mode_.
  [[nodiscard]] double rate_of(const Stream& s) const;

  /// Progress all streams from last_update_ to now.
  void advance();
  /// advance() fused with the aggregate gathering — the hot paths' single
  /// pass over the stream table.
  Agg advance_and_aggregate();
  /// Aggregates at the current instant, no progression (for the cold
  /// mutators, which advance() separately).
  [[nodiscard]] Agg aggregate_scan() const;
  /// Refresh the allocation (when the binding set changed since the last
  /// pass) and reschedule the next completion event.
  void reallocate(const Agg& agg);
  /// Classify the allocation shape from the aggregates; O(1) except true
  /// water-filling, which writes Stream::rate.
  void recompute_rates(const Agg& agg);
  /// Completion event body: retire all streams that have drained.
  void on_completion();

  Engine& engine_;
  double capacity_;
  double base_capacity_;  ///< construction-time capacity, scale reference
  double concurrency_penalty_;
  std::string name_;
  IdAllocator<StreamId> ids_;
  /// Insertion-ordered (ids are issued in ascending order, so this matches
  /// the id-ordered iteration of the seed's std::map — determinism).
  std::vector<Stream> streams_;
  /// Set when membership or caps changed, i.e. the current rates are stale.
  bool alloc_dirty_ = false;
  RateMode mode_ = RateMode::kExplicit;
  /// Packed with the flags above, so cats_ below leaves the size as is.
  bool has_pending_event_ = false;
  double flat_share_ = 0.0;  ///< every stream's rate while mode_ == kFlat
  /// Scratch for recompute_rates(); member so the hot path never allocates.
  std::vector<std::uint32_t> unsat_scratch_;
  /// Scratch for on_completion()'s finished-callback batch, same reason.
  std::vector<Done> finished_scratch_;
  /// Host-profiler category of each stream's submitter. done() runs under
  /// it, so what done() schedules is billed to the code that asked for the
  /// work, not to this server. Allocated by the first submit() with a
  /// profiler attached: an unprofiled server pays one pointer, and Stream,
  /// which the hot loops scan, does not grow.
  struct SubmitterCats {
    std::vector<std::uint8_t> live;      ///< in streams_ order
    std::vector<std::uint8_t> finished;  ///< on_completion() scratch
  };
  std::unique_ptr<SubmitterCats> cats_;
  SimTime last_update_ = 0.0;
  double busy_integral_ = 0.0;
  double total_rate_ = 0.0;
  EventId pending_event_;
  Callback activity_cb_;  ///< see set_activity_callback()
  // Flight-recorder handles, resolved once at construction when a recorder
  // is attached to the engine; null otherwise.
  obs::Gauge* busy_gauge_ = nullptr;
  obs::Gauge* streams_gauge_ = nullptr;
};

}  // namespace mron::sim

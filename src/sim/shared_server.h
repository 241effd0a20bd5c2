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
// Internals (see DESIGN.md "Incremental water-filling"): the streams live
// in a structure-of-arrays table in insertion order — packed columns of
// remaining work, cap and (water-filling only) rate, plus a 4-byte slot
// number per stream. Each slot names an entry of a pool that holds the
// stream's cold state: its id, its submitter's host-profiler category and
// its `done` callback. The per-event passes therefore scan packed doubles,
// and retiring a stream compacts the columns by moving slot numbers, never
// a Callback. The table is allocated by the first submit(); a server that
// never serves a stream holds one null pointer.
//
// Each event touches the columns at most once. The table caches the
// minimum remaining work: a second advance at one timestamp (dt == 0)
// returns it without a pass, exact because max(0, r - rate*0) is r for
// every finite rate and r >= +0.0. submit() lowers the cache, every
// progress pass retakes it and cancel() marks it stale. A completion
// progresses, retires, compacts and takes the survivors' minimum in one
// loop.
//
// The allocation is represented as a *mode* — flat equal split, everyone
// at cap, or explicit water-filled rates — so the common shapes are
// classified in O(1) from aggregates: the minimum remaining work, gathered
// in the pass that progresses the streams, and the cap sum and minimum cap,
// read off the cap column only when some cap is finite. Every float is the
// one the straightforward per-stream implementation computes: each stream
// takes the same max(0, r - rate*dt), the cap sum is a sequential sum in
// stream order, and the minimums — over columns that hold no NaN and no
// -0.0 — do not depend on the order they are taken in. The one completion
// event is moved in place (Engine::reschedule) on exactly the occasions
// the straightforward implementation cancelled and re-scheduled it, taking
// the same sequence number, so the engine-level event ordering (and with
// it every seeded experiment) is bit-identical to it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
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

/// What a server is called in check messages and recorder gauge names.
/// `path` is a static string; an owner index, when given, is printed
/// before its first '/': {"node/cpu", 3} reads "node3/cpu", {"rack/uplink",
/// 0} "rack0/uplink", and "disk" alone "disk". A server holds a pointer
/// and an index, not a heap string; the text is formatted only where it
/// is printed.
struct ServerName {
  ServerName(const char* path) : path(path) {}  // NOLINT: implicit
  ServerName(const char* path, std::int64_t owner)
      : path(path), owner(owner) {}

  [[nodiscard]] std::string str() const;

  const char* path;
  std::int64_t owner = -1;  ///< -1: no index
};
std::ostream& operator<<(std::ostream& os, const ServerName& name);

class SharedServer {
 public:
  using Done = Callback;

  static constexpr double kUncapped = std::numeric_limits<double>::infinity();

  /// `capacity` is in work-units per simulated second and must be positive.
  /// `concurrency_penalty` models efficiency loss under concurrent streams
  /// (e.g. disk seek thrashing): the effective capacity becomes
  /// capacity / (1 + penalty * (n - 1)) for n active streams.
  SharedServer(Engine& engine, double capacity, ServerName name,
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
  /// Remaining work of a live stream, or 0 when finished/unknown.
  [[nodiscard]] double remaining(StreamId id) const;

  [[nodiscard]] std::size_t active() const {
    return table_ == nullptr ? 0 : table_->n;
  }
  [[nodiscard]] double capacity() const { return capacity_; }

  /// Rescale the capacity relative to its construction-time value (fault
  /// injection: a degraded disk/NIC, or a crashed node's hardware going
  /// dark). Live streams keep their progress; rates and the completion
  /// event are recomputed under the new capacity. `scale` must be > 0.
  void set_capacity_scale(double scale);

  /// Integral of (allocated rate) dt since construction, i.e. total work
  /// served. utilization over [t0,t1] = delta(busy_integral)/(capacity*(t1-t0)).
  [[nodiscard]] double busy_integral() const;

  /// Hook fired on every submit() — the only way this server can leave the
  /// idle state. The cluster monitor's dirty-set sampler listens here so
  /// that idle servers cost it nothing per tick. Must be O(1) and
  /// idempotent; at most one callback.
  void set_activity_callback(Callback cb) { activity_cb_ = std::move(cb); }

  /// Heap bytes held by the stream table: 0 until the first submit(), then
  /// its high-water columns, slot pool and scratch.
  [[nodiscard]] std::size_t table_bytes() const;

 private:
  /// How the current allocation is represented. The common shapes (flat
  /// equal split, everyone at cap) are a single scalar, so recomputing them
  /// after a submit or completion writes no per-stream state. Only true
  /// water-filling materializes per-stream rates.
  enum class RateMode : std::uint8_t {
    kExplicit,  ///< Table::rate holds each stream's allocation
    kFlat,      ///< every stream runs at flat_share_
    kPerCap,    ///< every stream runs at its own cap
  };

  /// The stream table. Hot columns in insertion order (ids are issued in
  /// ascending order, so this matches the id-ordered iteration of the
  /// seed's std::map — determinism); `rem`, `cap`, `rate` and `slot` share
  /// one allocation of `capacity` rows.
  struct Table {
    /// A stream's cold state, addressed by its slot number. Free entries
    /// chain through `next_free`.
    struct Entry {
      Done done;
      StreamId id;
      std::uint32_t next_free = 0;
      std::uint8_t cat = 0;  ///< submitter's host-profiler category
    };

    std::uint32_t n = 0;
    std::uint32_t capacity = 0;
    /// Streams with a finite cap: the cap sum is taken only when every
    /// cap is finite, the minimum cap only when some cap is.
    std::uint32_t finite_caps = 0;
    std::uint32_t free_slot = kNoSlot;
    std::unique_ptr<std::byte[]> block;
    double* rem = nullptr;
    double* cap = nullptr;
    double* rate = nullptr;  ///< authoritative only in RateMode::kExplicit
    std::uint32_t* slot = nullptr;
    std::vector<Entry> pool;
    /// Scratch for recompute_rates() and on_completion(): members so the
    /// hot paths never allocate once warm.
    std::vector<std::uint32_t> unsat;
    std::vector<std::uint32_t> finished;
    /// Minimum of rem[0, n) (+inf when empty), exact while `min_fresh`:
    /// push() lowers it, the progress passes (advance(), on_completion())
    /// retake it and erase() makes it stale.
    double min_rem = std::numeric_limits<double>::infinity();
    bool min_fresh = true;

    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    /// Append a stream at row n, growing the block when full.
    void push(double remaining, double stream_cap, StreamId id, Done done,
              std::uint8_t submitter_cat);
    /// Remove row i, keeping the order of the rest; frees its slot.
    void erase(std::uint32_t i);
    /// Row of the live stream `id`, or n. Only the cold paths (cancel,
    /// remaining) resolve ids, so a linear scan beats any index.
    [[nodiscard]] std::uint32_t find(StreamId id) const;
    void release(std::uint32_t s);
    [[nodiscard]] std::size_t bytes() const;
  };

  /// Progress all streams from last_update_ to now; returns the minimum
  /// remaining work over the table (+inf when empty). A call at the
  /// timestamp of the last progress pass returns Table::min_rem without a
  /// pass while it is fresh.
  double advance();
  /// f(rate), where rate(i) is row i's allocated rate under the current
  /// mode (flat_share_, cap[i] or rate[i]): one instantiation per mode,
  /// so a per-stream pass reads only the column its mode needs.
  template <typename F>
  double with_rates(F f) const;
  /// Refresh the allocation (when the binding set changed since the last
  /// pass) and move the completion event to the next completion; cancel it
  /// once the server is empty. `min_rem` is the table's minimum remaining.
  void reallocate(double min_rem);
  /// Classify the allocation shape; O(1) for all-uncapped tables, one scan
  /// of the cap column otherwise, and true water-filling writes Table::rate.
  void recompute_rates();
  /// Completion event body: progress every stream, retire the drained
  /// ones and compact the rest in one pass, then run their callbacks.
  void on_completion();

  Engine& engine_;
  double capacity_;
  double base_capacity_;  ///< construction-time capacity, scale reference
  double concurrency_penalty_;
  ServerName name_;
  IdAllocator<StreamId> ids_;
  std::unique_ptr<Table> table_;  ///< null until the first submit()
  /// Set when membership or caps changed, i.e. the current rates are stale.
  bool alloc_dirty_ = false;
  RateMode mode_ = RateMode::kExplicit;
  bool has_pending_event_ = false;
  double flat_share_ = 0.0;  ///< every stream's rate while mode_ == kFlat
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

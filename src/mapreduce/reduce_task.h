// One reduce-task attempt: shuffle (fetch + buffer accounting), merge, and
// the reduce/write phases.
//
// The shuffle follows Hadoop 2's fetcher. The job's map completions live in
// one ShuffleLog (shuffle_log.h), bucketed by source host; the attempt reads
// them through a cursor per host instead of being handed each one. Each
// fetch is a *visit* to one host that takes up to kMaxSegmentsPerFetch of
// its queued segments over one connection. At most
// `shuffle.parallelcopies` visits are in flight, at most one per host, and
// hosts are served FIFO in the order they became eligible (gained pending
// output, or still had some when their previous visit ended). A visit pays
// kFetchLatency once, then moves the summed bytes as one flow that contends
// on the network fabric.
//
// A host's queue is its log entries from the cursor on, merged with a small
// side queue of out-of-order deliveries: a retried attempt's share of the
// completions logged before its cursor (in map-index order), and the AM's
// re-delivery of a map whose copy failed. Log entries are filtered as they
// are read, so the queue holds exactly what eager delivery would have
// queued: an entry dead at the attempt's launch is skipped, and so is a
// re-executed map's entry that arrived while the attempt still held an
// older copy (one flag per map records what the attempt holds). An entry
// that dies after delivery stays queued and fails its visit's availability
// check, which drives the AM's fetch-failure recovery.
//
// Availability is checked per host, by loss epoch (see shuffle_log.h). A
// host remembers the epoch at which its queue last went from empty to
// non-empty; epochs only grow, so that is a lower bound for every segment a
// visit takes. When the visit connects and again when its transfer lands,
// an unmoved epoch vouches for all of its segments at once. A moved one
// re-asks the AM segment by segment, so a source that dies mid-visit still
// fails exactly that visit's segments.
//
// The attempt's state is one record per log host slot (hosts that held
// output, never the whole cluster), one flag per map, and the visit slots.
// A launch costs O(hosts); a visit allocates nothing on the heap. All of it
// is freed when the shuffle closes, so a finished attempt holds no O(maps)
// state.
//
// Buffer mechanics are delegated to ShuffleBufferModel, one add_segment()
// per landed segment, so every reduce-side Table-2 parameter shapes the
// disk traffic this task generates. After the last segment lands, on-disk
// files beyond io.sort.factor cost intermediate merge rounds; the final
// merge streams into the user reduce(), which is CPU work pipelined with
// the disk read, and the output is written locally and replicated to one
// remote node.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cluster/fabric.h"
#include "cluster/node.h"
#include "common/rng.h"
#include "mapreduce/job.h"
#include "mapreduce/shuffle_log.h"
#include "mapreduce/spill_model.h"
#include "obs/critical_path.h"
#include "obs/trace.h"
#include "sim/engine.h"

namespace mron::obs {
class Counter;
}  // namespace mron::obs

namespace mron::mapreduce {

/// Per-connection setup latency (seconds); one per visit, hidden by
/// parallelcopies across hosts.
constexpr double kFetchLatency = 0.05;
/// Most segments one visit carries (Hadoop's Fetcher MAX_MAPS_AT_ONCE).
constexpr int kMaxSegmentsPerFetch = 20;
/// Average fraction of a buffer that is actually resident over time; used
/// for utilization reporting (capacity is reserved, occupancy fluctuates).
constexpr double kAvgBufferOccupancy = 0.5;

class ReduceTask {
 public:
  struct Inputs {
    TaskRef task;  ///< task.index is the attempt's reader index in the log
    int attempt = 1;
    int num_nodes = 1;  ///< cluster size, for output-replica placement
    /// This reducer's share of every map's output (data skew).
    double partition_weight = 1.0;
    /// Where the attempt starts reading the log in log order; the live
    /// entries before it are taken first, in map-index order. 0 for a
    /// first attempt; a retry passes the log's end at its predecessor's
    /// death.
    std::size_t log_cursor = 0;
    /// Job-level working-set scale (see MapTask::Inputs::ws_factor).
    double ws_factor = 1.0;
    /// Multiplicative service-time noise CV (JobSpec::noise_cv).
    double noise_cv = 0.08;
    /// Trace lane (container id) for the attempt's phase spans.
    std::int64_t trace_tid = 0;
    /// Critical path (obs/critical_path.h): owning job id; < 0 disables
    /// emission. The attempt's phase-boundary nodes are keyed by
    /// (task.index, attempt), so the AM can address them without handles.
    std::int64_t cp_job = -1;
    std::int64_t cp_start = -1;
    /// The attempt's "reduce_shuffle_done" node, resolved once by the AM;
    /// stamped when the shuffle ends, with one edge from the latest
    /// delivered "map_done" and one from cp_start.
    std::int64_t cp_shuffle_done = -1;
  };
  using Done = std::function<void(const TaskReport&)>;
  /// Resolves a NodeId to the node (for charging source-disk reads).
  using NodeResolver = std::function<cluster::Node&(cluster::NodeId)>;
  /// AM-mediated "is map `map_index`'s output still available at `source`?"
  /// query. A visit asks it for each of its segments when it connects and
  /// again when the transfer lands, unless the source's loss epoch shows
  /// that nothing there was lost since the segments were delivered. The
  /// task itself never assumes a map host stays reachable.
  using OutputQuery = std::function<bool(int, cluster::NodeId)>;
  /// Fired once per segment abandoned because its source disappeared; the
  /// AM re-executes the lost map (or re-delivers from the live copy) and
  /// this reducer accepts the re-delivery.
  using FetchFailure = std::function<void(int, cluster::NodeId)>;
  /// Called as each visit begins, with its source and the log entries it
  /// carries in queue order, and again as it ends (with no entries).
  using VisitObserver =
      std::function<void(cluster::NodeId, std::span<const std::int32_t>)>;

  /// `log` must outlive the task.
  ReduceTask(sim::Engine& engine, cluster::Node& node, cluster::Fabric& fabric,
             NodeResolver resolver, const AppProfile& profile,
             const JobConfig& config, const Inputs& inputs, ShuffleLog& log,
             Rng rng, Done done);
  ~ReduceTask();

  ReduceTask(const ReduceTask&) = delete;
  ReduceTask& operator=(const ReduceTask&) = delete;

  /// Install the AM's availability query and failure hook before start().
  /// Without a query the task asks the log whether the map's live output
  /// sits at the source.
  void set_output_query(OutputQuery query) { output_query_ = std::move(query); }
  void set_fetch_failure(FetchFailure cb) { fetch_failure_ = std::move(cb); }
  void set_visit_observer(VisitObserver cb) { visit_observer_ = std::move(cb); }

  /// Attach to the log (the attempt's launch) and start the container.
  void start();
  /// The AM's direct re-delivery of map `map_index` from its live entry,
  /// after this attempt's copy failed. Joins the tail of that host's queue
  /// now; ignored while the attempt still holds a copy, and once the
  /// shuffle has closed.
  void redeliver(int map_index);
  /// Node fail-stop on `node`: drop queued segments sourced there and
  /// forget their map indices so the AM's re-delivery is accepted. Segments
  /// already fetched are local data and are kept; a visit in flight is
  /// doomed by the completion-time availability re-check.
  void invalidate_source(cluster::NodeId node);
  /// Push updated category-III parameters into the running attempt.
  void update_config(const JobConfig& config);
  /// Kill the attempt (node failure); `done` never fires. See
  /// MapTask::abort().
  void abort();
  [[nodiscard]] bool aborted() const { return aborted_; }

  /// Source hosts with queued segments or a visit in flight.
  [[nodiscard]] int tracked_hosts() const;
  /// Host records held: one per log host slot seen, 0 once the shuffle has
  /// closed.
  [[nodiscard]] std::size_t host_slots() const { return hosts_.size(); }
  /// Calls `fn(source, segments)` for every visit in flight.
  template <typename Fn>
  void for_each_visit(Fn&& fn) const {
    for (const Visit& v : visits_) {
      if (v.host >= 0) fn(log_.node(v.host), v.count);
    }
  }

 private:
  friend class ShuffleLog;

  /// One record per log host slot. `prev`/`next` chain the ready FIFO
  /// (hosts with queued segments and no visit).
  struct Host {
    std::int32_t cursor = 0;  ///< next unread position in the host's list
    /// Loss epoch when the queue last went from empty to non-empty.
    std::uint32_t epoch = 0;
    std::int32_t side_head = -1;
    std::int32_t side_tail = -1;
    std::int32_t prev = -1;
    std::int32_t next = -1;
    bool queued = false;
    bool ready = false;
    bool in_flight = false;
  };
  /// An out-of-order delivery of log entry `entry`, queued on its host
  /// ahead of the host's log entries at positions >= `at`.
  struct Side {
    std::int32_t entry = -1;
    std::int32_t at = 0;
    std::int32_t next = -1;
  };
  /// One connection to one host; `host` < 0 marks a free slot, chained
  /// through `count`. `epoch` is the host's at begin_visit.
  struct Visit {
    std::int32_t host = -1;
    std::int32_t count = 0;
    std::uint32_t epoch = 0;
    Bytes bytes{0};
    std::int64_t trace_id = 0;
    std::array<std::int32_t, kMaxSegmentsPerFetch> entries{};
  };

  // --- the log's side (ShuffleLog::append) ---------------------------------
  /// Whether the attempt holds a copy of `map`: fetched, in flight or
  /// queued on the side, or a delivered entry from `from` back along the
  /// map's chain that its cursor has not passed.
  [[nodiscard]] bool holds(int map, std::int32_t from) const;
  /// Never deliver entry `pos` (a duplicate of a copy held at its append).
  void ignore_entry(std::int32_t pos) { ignored_.push_back(pos); }
  /// Entry `pos` was appended on host `h`, where this attempt waited.
  void on_append(std::int32_t h, std::int32_t pos);

  void attach();
  void detach();
  void grow_hosts();
  /// Whether log entry `pos` was delivered to this attempt: it was alive
  /// at launch, and no older copy of its map was held when it arrived.
  [[nodiscard]] bool delivered(std::int32_t pos) const {
    const ShuffleLog::Entry& e = log_.entry(pos);
    return e.died > launch_clock_ && (e.prev < 0 || !ignored(pos));
  }
  [[nodiscard]] bool ignored(std::int32_t pos) const;
  /// Move the host's cursor past entries never delivered to this attempt.
  void skip_undelivered(std::int32_t h) {
    const std::vector<std::int32_t>& list = log_.list(h);
    std::int32_t& cursor = hosts_[static_cast<std::size_t>(h)].cursor;
    while (static_cast<std::size_t>(cursor) < list.size() &&
           !delivered(list[static_cast<std::size_t>(cursor)])) {
      ++cursor;
    }
  }
  /// Pop the head of the host's side queue (which must not be empty).
  std::int32_t pop_side(std::int32_t h);
  /// Queue entry `pos` on its host's side queue ahead of log position `at`.
  void push_side(std::int32_t pos, std::int32_t at);
  /// The host's queue went from empty to non-empty.
  void mark_queued(std::int32_t h);
  /// The host's queue is empty: wait on the log for its next entry.
  void mark_empty(std::int32_t h);
  [[nodiscard]] Bytes segment_bytes(std::int32_t pos) const {
    return log_.entry(pos).output * inputs_.partition_weight;
  }
  void push_ready(std::int32_t h);
  void unlink_ready(std::int32_t h);

  void pump_fetches();
  void begin_visit(std::int32_t h);
  void on_visit_connected(std::int32_t v);
  void on_visit_done(std::int32_t v);
  /// Unless the source's epoch still equals the visit's, re-ask the AM
  /// about every segment of visit `v`; fail and drop those it no longer
  /// vouches for. Returns false when the task was aborted.
  bool drop_unavailable(std::int32_t v);
  /// Un-accept a segment whose source disappeared and tell the AM.
  void fail_segment(int map_index, cluster::NodeId source);
  /// Release visit slot `v` and its host's in-flight mark.
  void end_visit(std::int32_t v);
  /// Buffer-account one landed segment; a flush becomes a disk write.
  void accept_segment(Bytes bytes);
  void maybe_finish_shuffle();
  /// Offer the latest "map_done" appended since launch, then draw the
  /// shuffle's critical-path edges.
  void emit_shuffle_done(obs::CriticalPathBuilder& cp);
  void phase_merge();
  void phase_reduce();
  void phase_write_output();
  void finish(bool oom);
  /// See MapTask::switch_phase_span.
  void switch_phase_span(const char* name);

  sim::Engine& engine_;
  cluster::Node& node_;
  cluster::Fabric& fabric_;
  NodeResolver resolver_;
  const AppProfile& profile_;
  JobConfig config_;
  Inputs inputs_;
  ShuffleLog& log_;
  Rng rng_;
  Done done_;
  OutputQuery output_query_;
  FetchFailure fetch_failure_;
  VisitObserver visit_observer_;

  ShuffleBufferModel buffer_;

  // Shuffle state, released when the shuffle closes.
  bool attached_ = false;
  std::uint32_t launch_clock_ = 0;  ///< log clock at launch
  std::size_t launch_end_ = 0;      ///< log end at launch
  std::vector<bool> held_;          ///< by map: a copy is held
  std::vector<std::int32_t> ignored_;  ///< entries never delivered
  std::vector<Host> hosts_;            ///< by log host slot
  std::vector<Side> side_;
  std::int32_t free_side_ = -1;
  std::int32_t ready_head_ = -1;
  std::int32_t ready_tail_ = -1;
  std::vector<Visit> visits_;  ///< parallelcopies slots
  std::int32_t free_visit_ = -1;
  int active_visits_ = 0;

  int fetched_maps_ = 0;
  int outstanding_spill_writes_ = 0;
  bool shuffle_done_ = false;
  bool started_ = false;
  bool startup_done_ = false;
  bool oom_ = false;
  bool aborted_ = false;
  bool finished_ = false;

  // mr.shuffle.* counters, resolved once when the shuffle starts (null
  // without a recorder); fetch_failures on first use.
  obs::Counter* fetches_counter_ = nullptr;
  obs::Counter* segments_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* failures_counter_ = nullptr;
  std::int64_t cp_merge_done_ = -1;
  /// The latest "map_done" delivered at launch; the shuffle's end adds the
  /// latest appended since (emit_shuffle_done).
  obs::LastArrival cp_last_delivery_;

  Bytes total_input_{0};
  Bytes resident_memory_{0};
  Bytes committed_memory_{0};
  double cpu_noise_ = 1.0;
  TaskReport report_;
  obs::SpanId phase_span_ = obs::kInvalidSpan;
  std::int64_t next_fetch_seq_ = 0;  ///< async-span id source for visits
};

}  // namespace mron::mapreduce

// One reduce-task attempt: shuffle (fetch + buffer accounting), merge, and
// the reduce/write phases.
//
// The shuffle follows Hadoop 2's fetcher: completed map outputs queue per
// source host, and each fetch is a *visit* to one host that takes up to
// kMaxSegmentsPerFetch of its queued segments over one connection. At most
// `shuffle.parallelcopies` visits are in flight, at most one per host, and
// hosts are served FIFO in the order they became eligible (gained pending
// output, or still had some when their previous visit ended). A visit pays
// kFetchLatency once, then moves the summed bytes as one flow that contends
// on the network fabric.
//
// Availability is checked per host, by loss epoch. The AM keeps one epoch
// per node and bumps it whenever output there may stop being available:
// when the node is lost, and when a map that ran there is invalidated. Each
// delivery carries its source's epoch, and a host remembers the epoch of
// its oldest queued delivery; epochs only grow, so that is a lower bound
// for every segment a visit takes. When the visit connects and again when
// its transfer lands, an unmoved epoch vouches for all of its segments at
// once. A moved one re-asks the AM segment by segment, so a source that
// dies mid-visit still fails exactly that visit's segments.
//
// Per-segment bookkeeping is a few array writes: segments live in a dense
// vector indexed by map index, per-host queues are intrusive links into it,
// and per-host state exists only for hosts with pending output or a visit
// in flight. A visit allocates nothing on the heap. All of it is freed when
// the shuffle closes, so a finished attempt holds no O(maps) state.
//
// Buffer mechanics are delegated to ShuffleBufferModel, one add_segment()
// per landed segment, so every reduce-side Table-2 parameter shapes the
// disk traffic this task generates. After the last segment lands, on-disk
// files beyond io.sort.factor cost intermediate merge rounds; the final
// merge streams into the user reduce(), which is CPU work pipelined with
// the disk read, and the output is written locally and replicated to one
// remote node.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/fabric.h"
#include "cluster/node.h"
#include "common/rng.h"
#include "mapreduce/job.h"
#include "mapreduce/spill_model.h"
#include "obs/critical_path.h"
#include "obs/trace.h"
#include "sim/engine.h"

namespace mron::obs {
class Counter;
}  // namespace mron::obs

namespace mron::mapreduce {

class ReduceTask {
 public:
  struct Inputs {
    TaskRef task;
    int attempt = 1;
    int total_maps = 0;
    int num_nodes = 1;  ///< cluster size, for output-replica placement
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
    /// delivered "map_done" (offer_shuffle_source) and one from cp_start.
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
  /// The AM's current loss epoch of every node, indexed by NodeId value.
  using HostEpochs = std::vector<std::uint32_t>;
  /// Fired once per segment abandoned because its source disappeared; the
  /// AM re-executes the lost map (or re-delivers from the live copy) and
  /// this reducer accepts the re-delivery.
  using FetchFailure = std::function<void(int, cluster::NodeId)>;

  ReduceTask(sim::Engine& engine, cluster::Node& node, cluster::Fabric& fabric,
             NodeResolver resolver, const AppProfile& profile,
             const JobConfig& config, const Inputs& inputs, Rng rng,
             Done done);

  ReduceTask(const ReduceTask&) = delete;
  ReduceTask& operator=(const ReduceTask&) = delete;

  /// Install the AM's availability query / failure hooks. Must be called
  /// before start(); without them the task falls back to trusting every
  /// source (unit-test mode only). `epochs`, owned by the AM and never
  /// resized, lets a visit skip the query while its source's epoch equals
  /// the one its segments were delivered at; without it every segment is
  /// queried.
  void set_output_query(OutputQuery query,
                        const HostEpochs* epochs = nullptr) {
    output_query_ = std::move(query);
    host_epochs_ = epochs;
  }
  void set_fetch_failure(FetchFailure cb) { fetch_failure_ = std::move(cb); }

  void start();
  /// Feed map `map_index`'s partition for this reducer, available at
  /// `source` as of that node's loss epoch `epoch`. Safe to call both
  /// before and after start(); duplicate indices (a map re-executed after a
  /// node failure) are ignored — the first copy was already accepted — and
  /// so is every delivery once the shuffle has closed.
  void add_map_output(int map_index, cluster::NodeId source, Bytes bytes,
                      std::uint32_t epoch = 0);
  /// Critical path: a delivered map's "map_done" node. The shuffle's end
  /// draws one edge from the latest of them (obs::LastArrival).
  void offer_shuffle_source(const obs::CriticalPathBuilder& cp,
                            obs::CpNode map_done) {
    cp_last_delivery_.offer(cp, map_done);
  }
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

  /// Source hosts this attempt currently holds state for: those with
  /// queued segments or a visit in flight.
  [[nodiscard]] int tracked_hosts() const { return live_hosts_; }
  /// Host records ever allocated (live + free), i.e. the footprint of the
  /// per-host state; bounded by the peak of tracked_hosts(), and 0 once the
  /// shuffle has closed.
  [[nodiscard]] std::size_t host_slots() const { return hosts_.size(); }
  /// Calls `fn(source, segments)` for every visit in flight.
  template <typename Fn>
  void for_each_visit(Fn&& fn) const {
    for (const Visit& v : visits_) {
      if (v.host >= 0) {
        fn(hosts_[static_cast<std::size_t>(v.host)].node, v.count);
      }
    }
  }

 private:
  enum class SegmentState : std::uint8_t { Absent, Queued, Fetching, Fetched };
  /// Map `map_index`'s partition, at index map_index. While Queued, `next`
  /// links it into its source host's pending FIFO; while Fetching, into its
  /// visit.
  struct Segment {
    Bytes bytes{0};
    std::int32_t next = -1;
    SegmentState state = SegmentState::Absent;
  };
  /// A source host with queued segments or a visit in flight. `link` chains
  /// the ready FIFO (hosts with queued segments and no visit) together
  /// with `prev`, and the free list while the record is unused.
  struct Host {
    cluster::NodeId node;
    /// Loss epoch of the oldest queued delivery, set when the queue goes
    /// from empty to non-empty: no queued segment was delivered earlier.
    std::uint32_t epoch = 0;
    std::int32_t head = -1;  ///< oldest queued segment
    std::int32_t tail = -1;  ///< newest queued segment
    std::int32_t queued = 0;
    std::int32_t prev = -1;
    std::int32_t link = -1;
    bool ready = false;
    bool in_flight = false;
  };
  /// One connection to one host. `head` chains its segments (queue order);
  /// `host` < 0 marks a free slot. `epoch` is the host's at begin_visit.
  struct Visit {
    std::int32_t host = -1;
    std::int32_t head = -1;
    std::int32_t count = 0;
    std::uint32_t epoch = 0;
    Bytes bytes{0};
    std::int64_t trace_id = 0;
  };

  // Host records and the open-addressed NodeId -> record index.
  [[nodiscard]] std::int32_t find_host(cluster::NodeId node) const;
  std::int32_t acquire_host(cluster::NodeId node);
  /// Free the record once it has neither queued segments nor a visit.
  void maybe_release_host(std::int32_t h);
  void index_insert(std::int32_t h);
  void index_place(std::int32_t h);
  void index_erase(std::int32_t h);
  void push_ready(std::int32_t h);
  void unlink_ready(std::int32_t h);

  void pump_fetches();
  void begin_visit(std::int32_t h);
  void on_visit_connected(std::int32_t v);
  void on_visit_done(std::int32_t v);
  /// Unless the source's epoch still equals the visit's, re-ask the AM
  /// about every segment of visit `v`; fail and unlink those it no longer
  /// vouches for. Returns false when the task was aborted.
  bool drop_unavailable(std::int32_t v);
  /// Un-accept a segment whose source disappeared and tell the AM.
  void fail_segment(int map_index, cluster::NodeId source);
  /// Release visit slot `v` and its host's in-flight mark.
  void end_visit(std::int32_t v);
  /// Buffer-account one landed segment; a flush becomes a disk write.
  void accept_segment(Bytes bytes);
  void maybe_finish_shuffle();
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
  Rng rng_;
  Done done_;
  OutputQuery output_query_;
  const HostEpochs* host_epochs_ = nullptr;
  FetchFailure fetch_failure_;

  ShuffleBufferModel buffer_;

  /// Indexed by map index. This, hosts_ and host_index_ are released when
  /// the shuffle closes.
  std::vector<Segment> segments_;
  std::vector<Host> hosts_;
  std::vector<std::int32_t> host_index_;  ///< open-addressed; -1 = empty
  std::int32_t free_host_ = -1;
  std::int32_t ready_head_ = -1;
  std::int32_t ready_tail_ = -1;
  int live_hosts_ = 0;
  std::vector<Visit> visits_;  ///< parallelcopies slots
  std::int32_t free_visit_ = -1;  ///< chained through Visit::head
  int active_visits_ = 0;
  int queued_segments_ = 0;

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
  obs::LastArrival cp_last_delivery_;

  Bytes total_input_{0};
  Bytes resident_memory_{0};
  Bytes committed_memory_{0};
  double cpu_noise_ = 1.0;
  TaskReport report_;
  obs::SpanId phase_span_ = obs::kInvalidSpan;
  std::int64_t next_fetch_seq_ = 0;  ///< async-span id source for visits
};

/// Per-connection setup latency (seconds); one per visit, hidden by
/// parallelcopies across hosts.
constexpr double kFetchLatency = 0.05;
/// Most segments one visit carries (Hadoop's Fetcher MAX_MAPS_AT_ONCE).
constexpr int kMaxSegmentsPerFetch = 20;
/// Average fraction of a buffer that is actually resident over time; used
/// for utilization reporting (capacity is reserved, occupancy fluctuates).
constexpr double kAvgBufferOccupancy = 0.5;

}  // namespace mron::mapreduce

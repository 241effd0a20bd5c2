// MapReduce application master.
//
// Owns one job's lifecycle on the YARN substrate: builds map tasks from the
// input dataset's blocks (one split per block), requests containers with
// per-task Resources, launches task models, keeps the job's map-completion
// log and feeds it to each reducer attempt, applies slowstart gating, retries
// OOM-killed attempts, and aggregates the JobResult.
//
// Dynamic-configuration hooks (consumed by MRONLINE's dynamic configurator,
// Table 1 of the paper):
//   * set_job_config()       — new default for tasks not yet requested;
//   * set_task_config()      — per-task override for a queued task;
//   * push_live_params()     — category-III updates into running tasks;
//   * set_launch_budget()    — wave gating for the aggressive strategy: the
//     AM may only request that many more containers (-1 = unlimited).
//
// Container requests are self-throttled to roughly one cluster's worth of
// outstanding requests so that a config change affects the next wave — the
// same pickup latency the paper's config-file mechanism has.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/fabric.h"
#include "common/rng.h"
#include "dfs/dfs.h"
#include "mapreduce/job.h"
#include "mapreduce/map_task.h"
#include "mapreduce/reduce_task.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "yarn/resource_manager.h"

namespace mron::faults {
class FaultInjector;
}  // namespace mron::faults

namespace mron::obs {
class Histogram;
}  // namespace mron::obs

namespace mron::mapreduce {

class MrAppMaster {
 public:
  using JobDone = std::function<void(const JobResult&)>;
  using TaskListener = std::function<void(const TaskReport&)>;

  MrAppMaster(sim::Engine& engine, yarn::ResourceManager& rm,
              cluster::Fabric& fabric, dfs::Dfs& dfs, JobId id, JobSpec spec,
              Rng rng, JobDone on_done);

  MrAppMaster(const MrAppMaster&) = delete;
  MrAppMaster& operator=(const MrAppMaster&) = delete;

  /// Register with the RM and start requesting containers.
  void submit();

  // --- dynamic configuration (Table-1 backing) -------------------------------
  void set_job_config(const JobConfig& config);
  /// Override the config of one not-yet-requested task. Returns false if the
  /// task is unknown or already requested/launched.
  bool set_task_config(const TaskRef& task, const JobConfig& config);
  /// Override every queued task of the given kind.
  int set_all_task_configs(TaskKind kind, const JobConfig& config);
  /// Push category-III parameters into all running tasks.
  int push_live_params(const JobConfig& config);
  /// Wave gating: allow at most `n` further container requests of the given
  /// kind (-1 = unlimited). Additional calls add to the remaining budget, so
  /// an aggressive tuner releases one wave at a time.
  void set_launch_budget(TaskKind kind, int n);
  /// Convenience: set both kinds at once.
  void set_launch_budget(int n) {
    set_launch_budget(TaskKind::Map, n);
    set_launch_budget(TaskKind::Reduce, n);
  }

  // --- introspection ----------------------------------------------------------
  [[nodiscard]] JobId id() const { return id_; }
  [[nodiscard]] const JobSpec& spec() const { return spec_; }
  [[nodiscard]] const JobConfig& job_config() const { return spec_.config; }
  [[nodiscard]] int num_maps() const { return num_maps_; }
  [[nodiscard]] int num_reduces() const { return spec_.num_reduces; }
  [[nodiscard]] int completed_maps() const { return completed_maps_; }
  [[nodiscard]] int completed_reduces() const { return completed_reduces_; }
  [[nodiscard]] bool finished() const { return finished_; }
  /// Tasks still waiting to be requested (the tuner's "queued tasks list").
  [[nodiscard]] std::vector<TaskRef> queued_tasks() const;
  [[nodiscard]] int launch_budget(TaskKind kind) const {
    return kind == TaskKind::Map ? map_budget_ : reduce_budget_;
  }

  void set_task_listener(TaskListener listener) {
    task_listener_ = std::move(listener);
  }

  /// Attach the simulation's fault injector (nullptr = reliable cluster).
  /// Must be called before submit(); enables injected attempt failures
  /// with exponential-backoff retries and fault-stamped task reports.
  void set_fault_injector(faults::FaultInjector* injector) {
    injector_ = injector;
  }

  /// AM-mediated shuffle availability — the single choke point reducers
  /// consult instead of assuming map hosts stay reachable: true while map
  /// `map_index`'s output exists at `source` (the map completed there and
  /// the node is alive).
  [[nodiscard]] bool map_output_available(int map_index,
                                          cluster::NodeId source) const;

  /// The engine this job runs on — the tuner and configurator reach the
  /// flight recorder through it.
  [[nodiscard]] sim::Engine& engine() { return engine_; }

 private:
  struct MapState {
    std::size_t block = 0;
    Bytes input{0};
    std::vector<cluster::NodeId> replicas;
    std::optional<JobConfig> override_config;
    std::unique_ptr<MapTask> run;
    yarn::Container container;
    int attempts = 0;
    bool requested = false;
    bool running = false;
    /// Parked on a dead input block (no live replica); a DFS waiter will
    /// re-request the map when storage recovers one.
    bool waiting_block = false;
    Bytes combined_output{0};
    cluster::NodeId ran_on;
    /// This map's live entry in completions_, -1 while not done. An entry
    /// whose map points elsewhere is stale (that output was lost).
    int log_pos = -1;
    SimTime run_started = 0.0;
    obs::SpanId span = obs::kInvalidSpan;  ///< open attempt trace span
    // Critical-path nodes (obs/critical_path.h): current attempt's start,
    // the winning "map_done", and the most recent failure event — the next
    // container request draws its wait edge from cp_fail (retry_recovery)
    // instead of the job submit node.
    obs::CpNode cp_start = obs::kInvalidCpNode;
    obs::CpNode cp_done = obs::kInvalidCpNode;
    obs::CpNode cp_fail = obs::kInvalidCpNode;
    obs::CpNode spec_cp_start = obs::kInvalidCpNode;
    // Injected-fault kill scheduled against the current attempt.
    sim::EventId fault_kill;
    bool fault_kill_pending = false;
    // Speculative backup attempt.
    std::unique_ptr<MapTask> spec_run;
    yarn::Container spec_container;
    yarn::RequestId spec_request;
    bool spec_requested = false;
    bool spec_running = false;
    obs::SpanId spec_span = obs::kInvalidSpan;

    [[nodiscard]] bool done() const { return log_pos >= 0; }
  };
  struct ReduceState {
    std::optional<JobConfig> override_config;
    std::unique_ptr<ReduceTask> run;
    yarn::Container container;
    int attempts = 0;
    bool requested = false;
    bool running = false;
    bool done = false;
    SimTime run_started = 0.0;
    obs::SpanId span = obs::kInvalidSpan;  ///< open attempt trace span
    // Critical-path nodes; see MapState.
    obs::CpNode cp_start = obs::kInvalidCpNode;
    obs::CpNode cp_done = obs::kInvalidCpNode;
    obs::CpNode cp_fail = obs::kInvalidCpNode;
    /// The running attempt's "reduce_shuffle_done", resolved at launch so
    /// each map delivery draws its edge without a keyed lookup.
    obs::CpNode cp_shuffle_done = obs::kInvalidCpNode;
    // Injected-fault kill scheduled against the current attempt.
    sim::EventId fault_kill;
    bool fault_kill_pending = false;
    /// Where the next attempt starts reading completions_ in log order; the
    /// live entries before it are fed first, in map-index order. 0 for the
    /// first attempt; a retry sets it to the log's end.
    std::size_t cursor = 0;
  };

  void pump();
  void schedule_pump();
  void request_map(int index);
  /// Map `index`'s split has no live replica: park a DFS waiter instead of
  /// requesting a container. Deterministic — waiters resume in registration
  /// order the moment a replica returns (node recovery or a completed
  /// re-replication copy).
  void wait_for_input_block(int index);
  void request_reduce(int index);
  void on_map_container(int index, const yarn::Container& c);
  void on_reduce_container(int index, const yarn::Container& c);
  void on_map_done(int index, const TaskReport& report,
                   bool speculative = false);
  void on_reduce_done(int index, const TaskReport& report);
  /// Launch backup attempts for straggling maps (Hadoop's speculative
  /// execution, enabled via JobSpec::speculative_execution).
  void check_stragglers();
  /// LATE-style periodic straggler scan: map completions alone cannot
  /// catch the last running stragglers (nothing completes behind them), so
  /// once maps start finishing the AM re-checks on a fixed cadence.
  void schedule_speculation_scan();
  void on_speculative_container(int index, const yarn::Container& c);
  /// Kill whichever attempt of map `index` lost the race.
  void settle_speculation(int index, bool speculative_won);
  /// Hand map `map_index`'s partition to reducer `reduce_index`'s running
  /// attempt, with its critical-path shuffle edge.
  void feed_reducer(int reduce_index, int map_index);
  void maybe_finish();
  // --- fault recovery -------------------------------------------------------
  /// Consult the injector and, when this attempt is fated to fail, schedule
  /// the kill partway into its nominal runtime. The final allowed attempt
  /// is never injected — the simulated job must not fail outright.
  void arm_injected_failure(TaskKind kind, int index, int attempt);
  void fail_map_attempt(int index, int attempt);
  void fail_reduce_attempt(int index, int attempt);
  /// A reducer's fetch found its source gone: re-deliver from the live
  /// copy, or invalidate and re-execute the lost map.
  void on_shuffle_fetch_failure(int reduce_index, int map_index,
                                cluster::NodeId source);
  /// Invalidate completed map `map_index` (its output host died) and
  /// relaunch it; its completion-log entry goes stale.
  void reexecute_lost_map(int map_index);
  /// Exponential backoff before re-running a failed attempt.
  [[nodiscard]] double retry_backoff(int attempts) const;
  void disarm_fault_kill(sim::EventId& ev, bool& pending);
  /// Node fail-stop recovery: abort tasks running on the node, re-execute
  /// completed maps whose (node-local) outputs died with it.
  void handle_node_failure(cluster::NodeId node);
  /// The split's replica to read, preferring live and local sources.
  [[nodiscard]] cluster::NodeId pick_live_replica(const MapState& m,
                                                  cluster::NodeId reader);
  [[nodiscard]] JobConfig config_for(const TaskRef& task) const;
  [[nodiscard]] int cluster_slots_estimate(const JobConfig& cfg,
                                           bool map) const;
  [[nodiscard]] bool consume_budget(TaskKind kind);
  /// Open/close the per-attempt trace span (no-op without a recorder);
  /// `attempt` lands in the span's args, so retries are tellable apart.
  void begin_task_span(obs::SpanId& slot, const char* name,
                       const yarn::Container& c, int attempt);
  void end_task_span(obs::SpanId& slot);
  /// The recorder's critical-path builder, or nullptr when unobserved.
  [[nodiscard]] obs::CriticalPathBuilder* cp();
  /// Stamp a "<kind>_fail" node for the attempt that just died and charge
  /// the attempt's span to retry_recovery; the returned node becomes the
  /// causal origin of the re-request (cp_fail), so backoff + re-queueing
  /// land in the recovery bucket too.
  obs::CpNode cp_fail_node(const char* kind, int index, int attempt,
                           obs::CpNode attempt_start);

  sim::Engine& engine_;
  yarn::ResourceManager& rm_;
  cluster::Fabric& fabric_;
  dfs::Dfs& dfs_;
  JobId id_;
  JobSpec spec_;
  Rng rng_;
  JobDone on_done_;
  TaskListener task_listener_;

  yarn::AppId app_;
  int num_maps_ = 0;
  std::vector<MapState> maps_;
  std::vector<ReduceState> reduces_;
  std::vector<double> partition_weights_;
  /// Map indices in completion order, one entry per completion (a
  /// re-executed map appends again). Reducers read it through their cursor.
  std::vector<int> completions_;
  std::deque<int> map_queue_;
  std::deque<int> reduce_queue_;
  int outstanding_requests_ = 0;
  int running_reduces_or_requested_ = 0;
  int completed_maps_ = 0;
  int completed_reduces_ = 0;
  int map_budget_ = -1;
  int reduce_budget_ = -1;
  double ws_factor_ = 1.0;
  double map_duration_sum_ = 0.0;
  int map_duration_count_ = 0;
  int active_speculations_ = 0;
  faults::FaultInjector* injector_ = nullptr;
  bool spec_scan_scheduled_ = false;
  /// Task-duration distributions, shared across jobs (find-or-create by
  /// name); resolved once in submit().
  obs::Histogram* map_secs_hist_ = nullptr;
  obs::Histogram* reduce_secs_hist_ = nullptr;
  bool submitted_ = false;
  bool finished_ = false;
  bool pump_scheduled_ = false;
  /// The job's "job_submit" critical-path node — the causal origin of
  /// every first-attempt container wait.
  obs::CpNode cp_submit_ = obs::kInvalidCpNode;
  JobResult result_;
  /// Aborted attempts are parked here instead of destroyed: the engine may
  /// still hold events/stream completions that reference them.
  std::vector<std::unique_ptr<MapTask>> dead_map_runs_;
  std::vector<std::unique_ptr<ReduceTask>> dead_reduce_runs_;
};

}  // namespace mron::mapreduce

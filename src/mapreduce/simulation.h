// Simulation: one-stop wiring of engine, cluster, DFS, YARN, and jobs.
//
// Owns every substrate object with consistent lifetimes and offers the
// high-level entry points used by examples, tests, benches, and the tuner:
// load a dataset, submit jobs (optionally concurrently, under FIFO or fair
// scheduling), and run the event loop to completion.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/fabric.h"
#include "cluster/monitor.h"
#include "cluster/node.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "dfs/dfs.h"
#include "dfs/rereplicator.h"
#include "faults/injector.h"
#include "mapreduce/job.h"
#include "mapreduce/mr_app_master.h"
#include "obs/host_profile.h"
#include "obs/progress.h"
#include "obs/recorder.h"
#include "sim/engine.h"
#include "yarn/resource_manager.h"

namespace mron::mapreduce {

struct SimulationOptions {
  cluster::ClusterSpec cluster;
  std::uint64_t seed = 1;
  bool fair_scheduler = false;
  /// Attach the flight recorder (metrics + trace + audit) and start the
  /// cluster monitor as its sampling clock.
  bool observe = false;
  /// Record phase-level spans and per-fetch async spans too. With detail
  /// off the trace holds exactly one span per task attempt plus one per
  /// tuner wave.
  bool trace_detail = false;
  /// Fault-injection plan (node crashes, degradation windows, per-attempt
  /// task failures). Empty = reliable cluster, zero overhead. The plan is
  /// seed-deterministic: identical plan + seed give byte-identical runs.
  faults::FaultPlan fault_plan;
  /// Attach the host self-profiler (obs/host_profile.h): where the
  /// *simulator's* own wall-clock time and memory go, per subsystem and
  /// setup-vs-steady phase. Host time is nondeterministic, so the profile
  /// exports only through write_host_profile() — never into the run
  /// report.
  bool host_profile = false;
  /// Stderr progress heartbeat for long runs (events/sec + sim-time + RSS),
  /// wall-clock throttled. Never touches report output.
  bool progress = false;
  /// Label prefixed to progress lines (e.g. the scalebench point name).
  std::string progress_label;
  /// Default DFS replication factor for datasets (load_dataset can override
  /// per dataset). Clamped to the node count at placement time.
  int dfs_replication = 3;
  /// Re-replication work limits (HDFS replication.max-streams and the
  /// balancer bandwidth cap). See dfs/rereplicator.h.
  int dfs_rerepl_streams_per_node = 2;
  double dfs_rerepl_stream_bandwidth = 64.0 * 1024 * 1024;
};

class Simulation {
 public:
  explicit Simulation(SimulationOptions options = {});

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] dfs::Dfs& dfs() { return *dfs_; }
  [[nodiscard]] const dfs::Dfs& dfs() const { return *dfs_; }
  [[nodiscard]] dfs::Rereplicator& rereplicator() { return *rerepl_; }
  [[nodiscard]] const dfs::Rereplicator& rereplicator() const {
    return *rerepl_;
  }
  [[nodiscard]] yarn::ResourceManager& rm() { return *rm_; }
  [[nodiscard]] cluster::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] const cluster::Topology& topology() const { return *topo_; }
  [[nodiscard]] const SimulationOptions& options() const { return options_; }
  /// The flight recorder, or nullptr unless options.observe (or when
  /// observability is compiled out).
  [[nodiscard]] obs::Recorder* recorder() { return recorder_.get(); }
  [[nodiscard]] const obs::Recorder* recorder() const {
    return recorder_.get();
  }
  /// The fault injector, or nullptr when options.fault_plan is empty.
  [[nodiscard]] faults::FaultInjector* fault_injector() {
    return injector_.get();
  }
  [[nodiscard]] const faults::FaultInjector* fault_injector() const {
    return injector_.get();
  }
  /// The host self-profiler, or nullptr unless options.host_profile (or
  /// when observability is compiled out).
  [[nodiscard]] obs::HostProfiler* host_profiler() {
    return host_profiler_.get();
  }
  [[nodiscard]] const obs::HostProfiler* host_profiler() const {
    return host_profiler_.get();
  }

  /// Export the `mron.host_profile/1` document: registers the engine/
  /// recorder arena byte counters, then serializes the profiler. Returns
  /// false (writing nothing) when profiling is off or compiled out. Host
  /// time is nondeterministic — this never feeds run_report.json.
  bool write_host_profile(std::ostream& os);

  /// Create + place a dataset in the simulated DFS. `replication`
  /// overrides the simulation's default factor for this dataset (-1 keeps
  /// the default).
  dfs::DatasetId load_dataset(const std::string& name, Bytes size,
                              int replication = -1);

  /// Submit a job; the AM lives for the Simulation's lifetime. `on_done`
  /// may be empty.
  MrAppMaster& submit_job(JobSpec spec,
                          std::function<void(const JobResult&)> on_done = {});

  /// Convenience: submit one job, run to completion, return its result.
  JobResult run_job(JobSpec spec);
  /// Submit all specs at once, run to completion, return results in spec
  /// order (the multi-tenant path).
  std::vector<JobResult> run_jobs(std::vector<JobSpec> specs);

  /// Drain the event loop.
  void run();

 private:
  /// After a drain: emit Chrome-trace flow arrows along the critical path
  /// of every newly finished job (see obs/critical_path.h).
  void emit_critical_path_flows();

  SimulationOptions options_;
  sim::Engine engine_;
  /// Declared before the substrate objects: nodes and servers cache metric
  /// handles into the recorder, so it must outlive them.
  std::unique_ptr<obs::Recorder> recorder_;
  /// Host self-profiler; created first so Setup-phase frames cover all of
  /// construction. Null unless options.host_profile.
  std::unique_ptr<obs::HostProfiler> host_profiler_;
  std::unique_ptr<obs::ProgressMeter> progress_;
  Rng rng_;
  std::unique_ptr<cluster::Topology> topo_;
  std::vector<std::unique_ptr<cluster::Node>> nodes_;
  std::unique_ptr<cluster::Fabric> fabric_;
  std::unique_ptr<cluster::ClusterMonitor> monitor_;
  std::unique_ptr<dfs::Dfs> dfs_;
  std::unique_ptr<yarn::ResourceManager> rm_;
  std::unique_ptr<dfs::Rereplicator> rerepl_;
  std::unique_ptr<faults::FaultInjector> injector_;
  std::vector<std::unique_ptr<MrAppMaster>> apps_;
  IdAllocator<JobId> job_ids_;
  /// Jobs whose critical-path flow events were already emitted (repeated
  /// run() calls must not duplicate them), plus the flow-id source.
  std::set<std::int64_t> cp_flows_emitted_;
  std::int64_t next_cp_flow_id_ = 0;
};

}  // namespace mron::mapreduce

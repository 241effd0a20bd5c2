#include "mapreduce/simulation.h"

#include <string>
#include <utility>

#include "common/check.h"

namespace mron::mapreduce {
namespace {

constexpr SimTime kMonitorPeriod = 1.0;
/// Above this node count the monitor publishes per-rack aggregate
/// gauges/series instead of per-node ones, keeping report and trace size
/// bounded at 1,000+ nodes. The 19-node testbed stays per-node.
constexpr int kMonitorNodeSeriesLimit = 64;

}  // namespace

Simulation::Simulation(SimulationOptions options)
    : options_(options), rng_(options.seed) {
  if (options_.host_profile) {
    // Created before everything else so the Setup phase covers all of
    // construction; the engine stamps scheduled events with subsystem
    // categories from here on.
    host_profiler_ = std::make_unique<obs::HostProfiler>();
    engine_.set_host_profiler(host_profiler_.get());
  }
  if (options_.observe) {
    // Attach before any substrate object exists: SharedServers resolve
    // their metric handles at construction.
    recorder_ = std::make_unique<obs::Recorder>();
    recorder_->trace().set_detail(options_.trace_detail);
    engine_.set_recorder(recorder_.get());
  }
  if (options_.progress) {
    progress_ = std::make_unique<obs::ProgressMeter>(
        options_.progress_label.empty() ? "mron" : options_.progress_label);
    engine_.set_progress(
        [this](const sim::Engine& e) {
          progress_->tick(e.total_dispatched(), e.now());
        },
        /*stride=*/8192);
  }
  obs::HostProfiler::Activation hp(host_profiler_.get());
  HOST_PROF_SCOPE("sim.setup");
  {
    HOST_PROF_SCOPE("sim.setup.topology");
    topo_ = std::make_unique<cluster::Topology>(options_.cluster);
  }
  // Validated even when empty(): a heartbeat-only plan arms no injector,
  // so nothing downstream would ever check it.
  options_.fault_plan.validate(topo_->num_nodes());
  std::vector<cluster::Node*> ptrs;
  {
    HOST_PROF_SCOPE("sim.setup.nodes");
    for (int i = 0; i < topo_->num_nodes(); ++i) {
      const cluster::NodeId id(i);
      nodes_.push_back(std::make_unique<cluster::Node>(engine_, id,
                                                       topo_->hardware(id)));
      ptrs.push_back(nodes_.back().get());
    }
  }
  {
    HOST_PROF_SCOPE("sim.setup.fabric");
    HOST_PROF_CATEGORY(kSharedServer);
    fabric_ = std::make_unique<cluster::Fabric>(engine_, options_.cluster,
                                                *topo_, ptrs);
  }
  {
    HOST_PROF_SCOPE("sim.setup.monitor");
    HOST_PROF_CATEGORY(kMonitor);
    monitor_ = std::make_unique<cluster::ClusterMonitor>(
        engine_, ptrs, kMonitorPeriod, topo_.get(), kMonitorNodeSeriesLimit);
  }
  {
    HOST_PROF_SCOPE("sim.setup.dfs");
    HOST_PROF_CATEGORY(kDfs);
    dfs_ = std::make_unique<dfs::Dfs>(
        *topo_, rng_.fork(0xdf5), mebibytes(128), options_.dfs_replication);
    dfs::RereplicatorOptions ropt;
    ropt.max_streams_per_node = options_.dfs_rerepl_streams_per_node;
    ropt.stream_bandwidth = options_.dfs_rerepl_stream_bandwidth;
    rerepl_ = std::make_unique<dfs::Rereplicator>(engine_, *dfs_, *fabric_,
                                                  ptrs, ropt);
  }
  {
    HOST_PROF_SCOPE("sim.setup.rm");
    HOST_PROF_CATEGORY(kYarn);
    auto policy = options_.fair_scheduler ? yarn::make_fair_policy()
                                          : yarn::make_fifo_policy();
    rm_ = std::make_unique<yarn::ResourceManager>(engine_, *topo_, ptrs,
                                                  std::move(policy));
    // Storage hears about liveness before any AM: AMs subscribe at submit
    // time, so by the time their recovery paths run, replica counts and the
    // re-replication queue already reflect the event.
    rm_->subscribe_node_failures([this](cluster::NodeId n) {
      dfs_->on_node_lost(n);
      rerepl_->on_node_lost(n);
    });
    rm_->subscribe_node_recoveries([this](cluster::NodeId n) {
      dfs_->on_node_recovered(n);
      rerepl_->on_node_recovered(n);
    });
  }
  if (!options_.fault_plan.empty()) {
    HOST_PROF_SCOPE("sim.setup.faults");
    HOST_PROF_CATEGORY(kFaults);
    injector_ =
        std::make_unique<faults::FaultInjector>(engine_, options_.fault_plan);
    injector_->arm(*rm_, ptrs);
  }
  if (recorder_ != nullptr) {
    HOST_PROF_SCOPE("sim.setup.recorder");
    // The monitor is the recorder's sampling clock.
    {
      HOST_PROF_CATEGORY(kMonitor);
      monitor_->start();
    }
    // Queue occupancy: live pending events, stale cancel tombstones not yet
    // collected, and slot-map capacity. Pull model (queue churn is the
    // hottest path). Each flush also pushes the gauges into the series
    // store, making queue occupancy plottable over the run rather than a
    // final scalar only.
    auto* queue_live = &recorder_->metrics().gauge("sim.queue.live");
    auto* queue_stale = &recorder_->metrics().gauge("sim.queue.stale");
    auto* queue_capacity = &recorder_->metrics().gauge("sim.queue.capacity");
    auto* live_series = &recorder_->series().series("sim.queue.live");
    auto* stale_series = &recorder_->series().series("sim.queue.stale");
    auto* capacity_series = &recorder_->series().series("sim.queue.capacity");
    recorder_->add_flush_hook([this, queue_live, queue_stale, queue_capacity,
                               live_series, stale_series, capacity_series] {
      const auto live = static_cast<double>(engine_.pending());
      const auto stale = static_cast<double>(engine_.stale_entries());
      const auto capacity = static_cast<double>(engine_.slot_capacity());
      queue_live->set(live);
      queue_stale->set(stale);
      queue_capacity->set(capacity);
      const SimTime now = engine_.now();
      live_series->push(now, live);
      stale_series->push(now, stale);
      capacity_series->push(now, capacity);
    });
    auto& trace = recorder_->trace();
    for (int i = 0; i < topo_->num_nodes(); ++i) {
      trace.set_process_name(i, "node" + std::to_string(i));
    }
    trace.set_process_name(obs::kTunerTracePid, "tuner");
  }
}

dfs::DatasetId Simulation::load_dataset(const std::string& name, Bytes size,
                                        int replication) {
  obs::HostProfiler::Activation hp(host_profiler_.get());
  HOST_PROF_SCOPE("sim.setup.dataset");
  HOST_PROF_CATEGORY(kDfs);
  const dfs::DatasetId id = dfs_->create_dataset(name, size, replication);
  // A dataset can be born under-replicated (created after a node died, or
  // on a topology too small for the factor + dead nodes); kick the
  // pipeline since no liveness event will.
  if (dfs_->under_replicated_blocks() > 0) rerepl_->notify_under_replication();
  return id;
}

MrAppMaster& Simulation::submit_job(
    JobSpec spec, std::function<void(const JobResult&)> on_done) {
  obs::HostProfiler::Activation hp(host_profiler_.get());
  HOST_PROF_SCOPE("sim.submit_job");
  HOST_PROF_CATEGORY(kAmTask);
  const JobId id = job_ids_.next();
  auto done = on_done ? std::move(on_done)
                      : std::function<void(const JobResult&)>(
                            [](const JobResult&) {});
  apps_.push_back(std::make_unique<MrAppMaster>(
      engine_, *rm_, *fabric_, *dfs_, id, std::move(spec),
      rng_.fork(0x10b + static_cast<std::uint64_t>(id.value())),
      std::move(done)));
  if (injector_ != nullptr) apps_.back()->set_fault_injector(injector_.get());
  apps_.back()->submit();
  return *apps_.back();
}

JobResult Simulation::run_job(JobSpec spec) {
  JobResult result;
  bool got = false;
  submit_job(std::move(spec), [&](const JobResult& r) {
    result = r;
    got = true;
  });
  run();
  MRON_CHECK_MSG(got, "job did not complete");
  return result;
}

std::vector<JobResult> Simulation::run_jobs(std::vector<JobSpec> specs) {
  const std::size_t n = specs.size();
  std::vector<JobResult> results(n);
  std::vector<bool> got(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    submit_job(std::move(specs[i]), [&results, &got, i](const JobResult& r) {
      results[i] = r;
      got[i] = true;
    });
  }
  run();
  for (std::size_t i = 0; i < n; ++i) {
    MRON_CHECK_MSG(got[i], "job " << i << " did not complete");
  }
  return results;
}

void Simulation::run() {
  // Setup ends where the event loop begins. Re-entering run() later flips
  // Teardown back to Steady; both accumulate across runs.
  if (host_profiler_ != nullptr) {
    host_profiler_->begin_phase(obs::HostPhase::kSteady);
  }
  engine_.run();
  // The loop has drained: everything from here on (final flush, result
  // assembly, export prep) is teardown, so Steady measures exactly the
  // dispatch loop and the subsystem totals tile it — the coverage rule
  // stays tight even when a loaded host stretches the post-loop work.
  if (host_profiler_ != nullptr) {
    host_profiler_->begin_phase(obs::HostPhase::kTeardown);
  }
  // One final sampling tick: the monitor's clock stops when the engine
  // drains, so pull-model gauges and series would otherwise miss the state
  // at completion (e.g. live_containers back at 0, wave fractions at 1).
  if (recorder_ != nullptr) {
    obs::HostProfiler::Activation hp(host_profiler_.get());
    HOST_PROF_SCOPE("sim.final_flush");
    recorder_->flush();
    emit_critical_path_flows();
  }
}

bool Simulation::write_host_profile(std::ostream& os) {
  if (host_profiler_ == nullptr) return false;
  obs::HostProfiler& hp = *host_profiler_;
  // Arena byte counters: how much each long-lived structure holds, split
  // out from RSS (which the profiler snapshots itself).
  hp.set_memory("engine.queue_bytes",
                static_cast<double>(engine_.queue_memory_bytes()));
  hp.set_memory("engine.slot_map_bytes",
                static_cast<double>(engine_.slot_memory_bytes()));
  if (recorder_ != nullptr) {
    hp.set_memory("obs.trace_bytes",
                  static_cast<double>(recorder_->trace().memory_bytes()));
    hp.set_memory("obs.series_bytes",
                  static_cast<double>(recorder_->series().memory_bytes()));
  }
  hp.set_meta("nodes", std::to_string(topo_->num_nodes()));
  hp.set_meta("seed", std::to_string(options_.seed));
  hp.set_meta("events", std::to_string(engine_.total_dispatched()));
  hp.write_json(os);
  return true;
}

void Simulation::emit_critical_path_flows() {
  // Chrome-trace flow arrows along each finished job's critical path, so
  // the trace viewer visually connects producers to consumers across
  // process lanes. Emitted once per job (repeated run() calls only cover
  // jobs that finished since the last drain); segments whose endpoints
  // carry no trace location (pid < 0, e.g. job_submit) are skipped.
  obs::CriticalPathBuilder& cp = recorder_->critical_path();
  auto& trace = recorder_->trace();
  for (const auto& [job, end] : cp.finished_jobs()) {
    if (!cp_flows_emitted_.insert(job).second) continue;
    for (const obs::CpSegment& s : cp.extract(end)) {
      if (cp.pid(s.from) < 0 || cp.pid(s.to) < 0) continue;
      const std::int64_t id = next_cp_flow_id_++;
      trace.flow_begin("critical_path", "cp", cp.pid(s.from), cp.tid(s.from),
                       s.t0, id);
      trace.flow_end("critical_path", "cp", cp.pid(s.to), cp.tid(s.to), s.t1,
                     id);
    }
  }
}

}  // namespace mron::mapreduce

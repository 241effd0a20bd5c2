#include "mapreduce/mr_app_master.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "faults/injector.h"
#include "obs/host_profile.h"
#include "obs/recorder.h"

namespace mron::mapreduce {

const char* task_kind_name(TaskKind kind) {
  return kind == TaskKind::Map ? "map" : "reduce";
}

MrAppMaster::MrAppMaster(sim::Engine& engine, yarn::ResourceManager& rm,
                         cluster::Fabric& fabric, dfs::Dfs& dfs, JobId id,
                         JobSpec spec, Rng rng, JobDone on_done)
    : engine_(engine),
      rm_(rm),
      fabric_(fabric),
      dfs_(dfs),
      id_(id),
      spec_(std::move(spec)),
      rng_(rng),
      on_done_(std::move(on_done)) {
  MRON_CHECK(on_done_ != nullptr);
  MRON_CHECK(spec_.num_reduces >= 0);
  clamp_constraints(spec_.config);
}

void MrAppMaster::submit() {
  MRON_CHECK(!submitted_);
  submitted_ = true;
  app_ = rm_.register_app(spec_.name);
  host_epochs_.assign(static_cast<std::size_t>(rm_.num_nodes()), 0);
  rm_.subscribe_node_failures(
      [this](cluster::NodeId node) { handle_node_failure(node); });
  result_.id = id_;
  result_.name = spec_.name;
  result_.submit_time = engine_.now();
  if (auto* cpb = cp()) {
    // Root of the job's causal DAG; every first-attempt container wait
    // draws its sched_wait edge from here.
    cp_submit_ = cpb->stamped(id_.value(), "job_submit", engine_.now());
  }

  // Wave progress is pull-model (recorder.h's contract): the sampling clock
  // reads the completion counters once per tick and stamps the whole-run
  // wave timelines, instead of the per-task paths writing gauges.
  if (auto* rec = engine_.recorder()) {
    map_secs_hist_ = &rec->metrics().histogram(
        "mr.map.task_secs",
        {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
    reduce_secs_hist_ = &rec->metrics().histogram(
        "mr.reduce.task_secs",
        {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
    const std::string prefix = "job" + std::to_string(id_.value()) + ".";
    auto& store = rec->series();
    auto* maps_running = &store.series(prefix + "maps_running");
    auto* maps_frac = &store.series(prefix + "maps_completed_frac");
    auto* reduces_running = &store.series(prefix + "reduces_running");
    auto* reduces_frac = &store.series(prefix + "reduces_completed_frac");
    rec->add_flush_hook([this, maps_running, maps_frac, reduces_running,
                         reduces_frac] {
      const SimTime now = engine_.now();
      maps_running->push(now, static_cast<double>(live_maps_));
      maps_frac->push(now, num_maps_ == 0
                               ? 1.0
                               : static_cast<double>(completed_maps_) /
                                     static_cast<double>(num_maps_));
      reduces_running->push(now, static_cast<double>(live_reduces_));
      reduces_frac->push(
          now, spec_.num_reduces == 0
                   ? 1.0
                   : static_cast<double>(completed_reduces_) /
                         static_cast<double>(spec_.num_reduces));
    });
  }

  // Build map tasks: one per input block, or synthetic compute-only maps.
  if (spec_.input.valid()) {
    const auto& ds = dfs_.dataset(spec_.input);
    num_maps_ = static_cast<int>(ds.blocks.size());
    maps_.resize(static_cast<std::size_t>(num_maps_));
    for (int i = 0; i < num_maps_; ++i) {
      auto& m = maps_[static_cast<std::size_t>(i)];
      m.block = static_cast<std::size_t>(i);
      m.input = ds.blocks[m.block].size;
      m.replicas = ds.blocks[m.block].replicas;
    }
  } else {
    MRON_CHECK_MSG(spec_.num_maps_override > 0,
                   "job without input needs num_maps_override");
    num_maps_ = spec_.num_maps_override;
    maps_.resize(static_cast<std::size_t>(num_maps_));
  }
  for (int i = 0; i < num_maps_; ++i) map_queue_.push_back(i);

  reduces_.resize(static_cast<std::size_t>(spec_.num_reduces));
  for (int i = 0; i < spec_.num_reduces; ++i) reduce_queue_.push_back(i);

  // The job's working-set scale: one draw per job (an application's memory
  // footprint is a program property, near-constant across its tasks).
  ws_factor_ = rng_.fork(0xf00d).lognormal_noise(0.05);

  // Per-reducer partition weights (data skew), normalized to sum 1.
  partition_weights_.assign(static_cast<std::size_t>(spec_.num_reduces), 0.0);
  double sum = 0.0;
  Rng skew_rng = rng_.fork(0x5eed);
  for (auto& w : partition_weights_) {
    w = skew_rng.lognormal_noise(spec_.profile.partition_skew_cv);
    sum += w;
  }
  for (auto& w : partition_weights_) w /= std::max(sum, 1e-12);

  schedule_pump();
}

void MrAppMaster::set_job_config(const JobConfig& config) {
  spec_.config = config;
  clamp_constraints(spec_.config);
}

bool MrAppMaster::set_task_config(const TaskRef& task, const JobConfig& config) {
  JobConfig clamped = config;
  clamp_constraints(clamped);
  if (task.kind == TaskKind::Map) {
    if (task.index < 0 || task.index >= num_maps_) return false;
    auto& m = maps_[static_cast<std::size_t>(task.index)];
    if (m.requested || m.done()) return false;
    m.override_config = clamped;
    return true;
  }
  if (task.index < 0 || task.index >= spec_.num_reduces) return false;
  auto& r = reduces_[static_cast<std::size_t>(task.index)];
  if (r.requested || r.done) return false;
  r.override_config = clamped;
  return true;
}

int MrAppMaster::set_all_task_configs(TaskKind kind, const JobConfig& config) {
  int applied = 0;
  const int n = kind == TaskKind::Map ? num_maps_ : spec_.num_reduces;
  for (int i = 0; i < n; ++i) {
    if (set_task_config(TaskRef{kind, i}, config)) ++applied;
  }
  return applied;
}

int MrAppMaster::push_live_params(const JobConfig& config) {
  int pushed = 0;
  for (auto& m : maps_) {
    if (m.running && m.run != nullptr) {
      m.run->update_config(config);
      ++pushed;
    }
  }
  for (auto& r : reduces_) {
    if (r.running && r.run != nullptr) {
      r.run->update_config(config);
      ++pushed;
    }
  }
  return pushed;
}

void MrAppMaster::set_launch_budget(TaskKind kind, int n) {
  int& budget = kind == TaskKind::Map ? map_budget_ : reduce_budget_;
  if (n < 0) {
    budget = -1;
  } else if (budget < 0) {
    budget = n;
  } else {
    budget += n;
  }
  schedule_pump();
}

bool MrAppMaster::attempt_running(const TaskRef& task) const {
  if (task.kind == TaskKind::Map) {
    const auto& m = maps_[static_cast<std::size_t>(task.index)];
    return m.running || m.spec_running;
  }
  return reduces_[static_cast<std::size_t>(task.index)].running;
}

std::vector<TaskRef> MrAppMaster::queued_tasks() const {
  std::vector<TaskRef> out;
  for (int i : map_queue_) out.push_back(TaskRef{TaskKind::Map, i});
  for (int i : reduce_queue_) out.push_back(TaskRef{TaskKind::Reduce, i});
  return out;
}

JobConfig MrAppMaster::config_for(const TaskRef& task) const {
  const std::optional<JobConfig>* override_cfg = nullptr;
  if (task.kind == TaskKind::Map) {
    override_cfg = &maps_[static_cast<std::size_t>(task.index)].override_config;
  } else {
    override_cfg =
        &reduces_[static_cast<std::size_t>(task.index)].override_config;
  }
  return override_cfg->has_value() ? **override_cfg : spec_.config;
}

int MrAppMaster::cluster_slots_estimate(const JobConfig& cfg, bool map) const {
  const double mem_mb = map ? cfg.map_memory_mb : cfg.reduce_memory_mb;
  const int vcores =
      std::max(1, static_cast<int>(map ? cfg.map_cpu_vcores
                                       : cfg.reduce_cpu_vcores));
  const double by_mem =
      rm_.cluster_memory_capacity().as_double() / mebibytes(mem_mb).as_double();
  // Sum of per-node floor(capacity/vcores) — served from the RM's capacity
  // histogram (O(hardware classes), not O(nodes); this runs on every pump).
  const double by_vcores =
      static_cast<double>(rm_.cluster_vcore_slots(vcores));
  return std::max(1, static_cast<int>(std::min(by_mem, by_vcores)));
}

bool MrAppMaster::consume_budget(TaskKind kind) {
  int& budget = kind == TaskKind::Map ? map_budget_ : reduce_budget_;
  if (budget < 0) return true;
  if (budget == 0) return false;
  --budget;
  return true;
}

void MrAppMaster::begin_task_span(obs::SpanId& slot, const char* name,
                                  const yarn::Container& c, int attempt) {
  if (auto* rec = engine_.recorder()) {
    const int pid = static_cast<int>(c.node.value());
    slot = rec->trace().begin(name, "task", pid, c.id.value(), engine_.now(),
                              "attempt", attempt);
  }
}

void MrAppMaster::end_task_span(obs::SpanId& slot) {
  if (auto* rec = engine_.recorder()) {
    rec->trace().end(slot, engine_.now());
  }
  slot = obs::kInvalidSpan;
}

obs::CriticalPathBuilder* MrAppMaster::cp() {
  auto* rec = engine_.recorder();
  return rec == nullptr ? nullptr : &rec->critical_path();
}

obs::CpNode MrAppMaster::cp_fail_node(const char* kind, int index, int attempt,
                                      obs::CpNode attempt_start) {
  auto* cpb = cp();
  if (cpb == nullptr) return obs::kInvalidCpNode;
  const obs::CpNode fail = cpb->stamped(id_.value(), kind, engine_.now(),
                                        index, attempt);
  cpb->edge(attempt_start, fail, obs::Blame::RetryRecovery);
  return fail;
}

void MrAppMaster::schedule_pump() {
  if (pump_scheduled_ || finished_ || !submitted_) return;
  pump_scheduled_ = true;
  // AM work regardless of which context (RM grant, fault recovery) asked
  // for the pump.
  HOST_PROF_CATEGORY(kAmTask);
  engine_.schedule_after(0.0, [this] {
    pump_scheduled_ = false;
    pump();
  });
}

void MrAppMaster::pump() {
  if (finished_) return;
  // Maps: keep about one cluster's worth of requests outstanding so config
  // changes reach the next wave.
  const int map_cap = cluster_slots_estimate(spec_.config, /*map=*/true);
  while (!map_queue_.empty() && outstanding_requests_ < map_cap) {
    if (!consume_budget(TaskKind::Map)) break;
    const int idx = map_queue_.front();
    map_queue_.pop_front();
    request_map(idx);
  }
  // Reduces: gated by slowstart; while maps remain, cap reducer occupancy
  // at half the cluster so shuffle cannot starve the map phase.
  const bool slowstart_met =
      completed_maps_ >=
      static_cast<int>(std::ceil(spec_.slowstart * num_maps_));
  if (slowstart_met) {
    const int reduce_slots =
        cluster_slots_estimate(spec_.config, /*map=*/false);
    // While maps remain, reducers may hold at most ~30% of the cluster —
    // the AM headroom heuristic that keeps early-launched reducers (shuffle
    // overlap) from starving the map phase.
    const int reduce_cap =
        map_queue_.empty() && completed_maps_ == num_maps_
            ? reduce_slots
            : std::max(1, (reduce_slots * 3) / 10);
    while (!reduce_queue_.empty() &&
           running_reduces_or_requested_ < reduce_cap) {
      if (!consume_budget(TaskKind::Reduce)) break;
      const int idx = reduce_queue_.front();
      reduce_queue_.pop_front();
      request_reduce(idx);
    }
  }
}

void MrAppMaster::request_map(int index) {
  auto& m = maps_[static_cast<std::size_t>(index)];
  if (spec_.input.valid()) {
    // Refresh the preferred set from the live DFS: re-replication may have
    // grown it past the submit-time snapshot (a no-op on a reliable
    // cluster, where placement never changes).
    m.replicas = dfs_.dataset(spec_.input).blocks[m.block].replicas;
    if (!dfs_.has_live_replica(spec_.input, m.block)) {
      wait_for_input_block(index);
      return;
    }
  }
  m.requested = true;
  ++outstanding_requests_;
  const JobConfig cfg = config_for(TaskRef{TaskKind::Map, index});
  yarn::Resource res{mebibytes(cfg.map_memory_mb),
                     static_cast<int>(cfg.map_cpu_vcores)};
  // First attempts wait on the scheduler (submit → grant); retries wait on
  // recovery (fail/lost → grant spans the backoff as well).
  const bool retry = m.cp_fail != obs::kInvalidCpNode;
  rm_.request_container(app_, res, m.replicas,
                        [this, index](const yarn::Container& c) {
                          on_map_container(index, c);
                        },
                        retry ? m.cp_fail : cp_submit_,
                        retry ? obs::Blame::RetryRecovery
                              : obs::Blame::SchedWait);
}

void MrAppMaster::wait_for_input_block(int index) {
  auto& m = maps_[static_cast<std::size_t>(index)];
  // Parked, not queued: the map leaves the request path entirely until the
  // DFS says the block serves again. requested=true keeps the pump and the
  // tuner from touching it meanwhile.
  m.requested = true;
  m.waiting_block = true;
  if (auto* rec = engine_.recorder()) {
    rec->metrics().counter("mr.map.block_waits").add(1.0);
  }
  dfs_.wait_for_block(spec_.input, m.block, [this, index] {
    auto& mm = maps_[static_cast<std::size_t>(index)];
    if (!mm.waiting_block) return;
    mm.waiting_block = false;
    if (finished_ || mm.done() || mm.running) return;
    request_map(index);
  });
}

void MrAppMaster::request_reduce(int index) {
  auto& r = reduces_[static_cast<std::size_t>(index)];
  r.requested = true;
  ++outstanding_requests_;
  ++running_reduces_or_requested_;
  const JobConfig cfg = config_for(TaskRef{TaskKind::Reduce, index});
  yarn::Resource res{mebibytes(cfg.reduce_memory_mb),
                     static_cast<int>(cfg.reduce_cpu_vcores)};
  const bool retry = r.cp_fail != obs::kInvalidCpNode;
  rm_.request_container(app_, res, {},
                        [this, index](const yarn::Container& c) {
                          on_reduce_container(index, c);
                        },
                        retry ? r.cp_fail : cp_submit_,
                        retry ? obs::Blame::RetryRecovery
                              : obs::Blame::SchedWait);
}

void MrAppMaster::on_map_container(int index, const yarn::Container& c) {
  --outstanding_requests_;
  auto& m = maps_[static_cast<std::size_t>(index)];
  if (!rm_.container_live(c.id)) {
    // The grant was dispatched just before its node died; ask again.
    if (auto* rec = engine_.recorder()) {
      rec->metrics().counter("yarn.stale_grants").add(1.0);
    }
    if (!m.done()) request_map(index);
    return;
  }
  if (spec_.input.valid() && !dfs_.has_live_replica(spec_.input, m.block)) {
    // The split's last replica died while this grant was queued: give the
    // container back and park until storage recovers a copy.
    rm_.release_container(c);
    if (!m.done()) wait_for_input_block(index);
    return;
  }
  m.container = c;
  set_map_running(m, m.running, true);
  m.run_started = engine_.now();
  ++m.attempts;
  m.run_number = ++m.numbered;
  begin_task_span(m.span, "map_attempt", c, m.run_number);

  MapTask::Inputs inputs;
  inputs.task = TaskRef{TaskKind::Map, index};
  inputs.attempt = m.run_number;
  inputs.input_bytes = m.input;
  inputs.ws_factor = ws_factor_;
  inputs.noise_cv = spec_.noise_cv;
  inputs.trace_tid = c.id.value();
  if (auto* cpb = cp()) {
    m.cp_start = cpb->stamped(id_.value(), "map_start", engine_.now(), index,
                              m.run_number, static_cast<int>(c.node.value()),
                              static_cast<int>(c.id.value()));
    cpb->edge(c.cp_grant, m.cp_start, obs::Blame::SchedWait);
    inputs.cp_job = id_.value();
    inputs.cp_start = m.cp_start;
  }
  if (spec_.input.valid()) {
    inputs.source = pick_live_replica(m, c.node);
    inputs.locality = inputs.source == c.node
                          ? dfs::Locality::NodeLocal
                          : (rm_.topology().same_rack(inputs.source, c.node)
                                 ? dfs::Locality::RackLocal
                                 : dfs::Locality::OffRack);
  } else {
    inputs.source = c.node;
    inputs.locality = dfs::Locality::NodeLocal;
  }

  const JobConfig cfg = config_for(inputs.task);
  if (m.run != nullptr) dead_map_runs_.push_back(std::move(m.run));
  m.run = std::make_unique<MapTask>(
      engine_, rm_.node(c.node), rm_.node(inputs.source), fabric_,
      spec_.profile, cfg, inputs,
      rng_.fork(static_cast<std::uint64_t>(index) * 4 +
                static_cast<std::uint64_t>(m.attempts) * 131071),
      [this, index](const TaskReport& r) { on_map_done(index, r); });
  m.run->start();
  arm_injected_failure(TaskKind::Map, index, m.attempts);
  schedule_pump();
}

void MrAppMaster::on_reduce_container(int index, const yarn::Container& c) {
  --outstanding_requests_;
  auto& r = reduces_[static_cast<std::size_t>(index)];
  if (!rm_.container_live(c.id)) {
    --running_reduces_or_requested_;
    if (auto* rec = engine_.recorder()) {
      rec->metrics().counter("yarn.stale_grants").add(1.0);
    }
    if (!r.done) request_reduce(index);
    return;
  }
  r.container = c;
  set_reduce_running(r, true);
  r.run_started = engine_.now();
  ++r.attempts;
  begin_task_span(r.span, "reduce_attempt", c, r.attempts);

  ReduceTask::Inputs inputs;
  inputs.task = TaskRef{TaskKind::Reduce, index};
  inputs.attempt = r.attempts;
  inputs.total_maps = num_maps_;
  inputs.num_nodes = rm_.num_nodes();
  inputs.ws_factor = ws_factor_;
  inputs.noise_cv = spec_.noise_cv;
  inputs.trace_tid = c.id.value();
  if (auto* cpb = cp()) {
    r.cp_start = cpb->stamped(id_.value(), "reduce_start", engine_.now(),
                              index, r.attempts,
                              static_cast<int>(c.node.value()),
                              static_cast<int>(c.id.value()));
    cpb->edge(c.cp_grant, r.cp_start, obs::Blame::SchedWait);
    r.cp_shuffle_done =
        cpb->node(id_.value(), "reduce_shuffle_done", index, r.attempts);
    inputs.cp_job = id_.value();
    inputs.cp_start = r.cp_start;
    inputs.cp_shuffle_done = r.cp_shuffle_done;
  }

  const JobConfig cfg = config_for(inputs.task);
  if (r.run != nullptr) dead_reduce_runs_.push_back(std::move(r.run));
  r.run = std::make_unique<ReduceTask>(
      engine_, rm_.node(c.node), fabric_,
      [this](cluster::NodeId n) -> cluster::Node& { return rm_.node(n); },
      spec_.profile, cfg, inputs,
      rng_.fork(1000003 + static_cast<std::uint64_t>(index) * 4 +
                static_cast<std::uint64_t>(r.attempts)),
      [this, index](const TaskReport& rep) { on_reduce_done(index, rep); });
  // Shuffle sources are never trusted directly: a fetch whose source's
  // loss epoch moved goes through the AM's availability query, and
  // abandoned fetches come back here.
  r.run->set_output_query(
      [this](int mi, cluster::NodeId src) {
        return map_output_available(mi, src);
      },
      &host_epochs_);
  r.run->set_fetch_failure([this, index](int mi, cluster::NodeId src) {
    on_shuffle_fetch_failure(index, mi, src);
  });
  // Feed the live completions: those before the cursor in map-index order,
  // the rest in log order. Each delivery is offered to the attempt as a
  // source of its "reduce_shuffle_done" node; the reduce task stamps that
  // node when the last segment lands and draws one edge, from the latest.
  for (int mi = 0; mi < num_maps_; ++mi) {
    const int pos = maps_[static_cast<std::size_t>(mi)].log_pos;
    if (pos >= 0 && static_cast<std::size_t>(pos) < r.cursor) {
      feed_reducer(index, mi);
    }
  }
  for (std::size_t pos = r.cursor; pos < completions_.size(); ++pos) {
    const int mi = completions_[pos];
    if (maps_[static_cast<std::size_t>(mi)].log_pos ==
        static_cast<int>(pos)) {
      feed_reducer(index, mi);
    }
  }
  r.run->start();
  arm_injected_failure(TaskKind::Reduce, index, r.attempts);
  schedule_pump();
}

void MrAppMaster::on_map_done(int index, const TaskReport& report,
                              bool speculative) {
  auto& m = maps_[static_cast<std::size_t>(index)];
  if (speculative) {
    set_map_running(m, m.spec_running, false);
    rm_.release_container(m.spec_container);
    end_task_span(m.spec_span);
  } else {
    set_map_running(m, m.running, false);
    disarm_fault_kill(m.fault_kill, m.fault_kill_pending);
    rm_.release_container(m.container);
    end_task_span(m.span);
  }
  // Stamp the report with the fault record of the node it ran on: a
  // duration measured on degraded/crashed hardware is noise, not signal.
  TaskReport rep = report;
  if (injector_ != nullptr) {
    rep.faulted = injector_->node_faulted_during(
        static_cast<int>(rep.node.value()), rep.start_time, rep.end_time);
  }
  if (rep.failed_oom) {
    if (auto* rec = engine_.recorder()) {
      rec->metrics().counter("mr.task.oom_kills").add(1.0);
      rec->metrics().counter("mr.map.failed_attempts.oom").add(1.0);
    }
  }
  // A late duplicate (e.g. an OOM-retried original finishing after the
  // speculative copy already won) only needs its container back.
  if (m.done()) return;
  result_.map_reports.push_back(rep);
  if (task_listener_) task_listener_(rep);

  if (rep.failed_oom && speculative) {
    // A dead backup is simply dropped; the original keeps running.
    ++result_.counters.failed_task_attempts;
    --active_speculations_;
    m.spec_requested = false;
    return;
  }

  if (rep.failed_oom) {
    ++result_.counters.failed_task_attempts;
    MRON_CHECK_MSG(m.attempts < spec_.max_task_attempts,
                   "map " << index << " exceeded max attempts");
    // Retries fall back to the job config with escalated memory (the
    // per-task config file is dropped; the node manager killed the
    // container for over-commit, so the retry gets headroom).
    JobConfig retry = spec_.config;
    retry.map_memory_mb = std::min(
        3072.0, std::max(retry.map_memory_mb,
                         rep.config.map_memory_mb * 1.5));
    clamp_constraints(retry);
    m.override_config = retry;
    // The whole dead attempt (start → kill) is recovery time on the path.
    m.cp_fail = cp_fail_node("map_fail", index, m.run_number, m.cp_start);
    // Retries are re-executions, not new launches: they bypass the wave
    // budget and go straight back to the RM (otherwise a retry would eat a
    // budget unit granted for a tuner wave and stall the wave).
    request_map(index);
    return;
  }

  m.log_pos = static_cast<int>(completions_.size());
  completions_.push_back(index);
  if (auto* cpb = cp()) {
    // The winning attempt's completion node (the task stamped it); keyed by
    // rep.attempt so a speculative win binds the backup's chain.
    m.cp_done = cpb->node(id_.value(), "map_done", index, rep.attempt);
  }
  m.combined_output = speculative ? m.spec_run->combined_output_bytes()
                                  : m.run->combined_output_bytes();
  m.ran_on = rep.node;
  result_.counters.map += rep.counters;
  if (map_secs_hist_ != nullptr) map_secs_hist_->observe(rep.duration());
  ++completed_maps_;
  map_duration_sum_ += rep.duration();
  ++map_duration_count_;
  if (speculative) {
    ++result_.speculative_wins;
    --active_speculations_;
    m.spec_requested = false;
  }
  settle_speculation(index, speculative);
  // Reducers not running read the log when their attempt launches.
  for (int rix = 0; rix < spec_.num_reduces; ++rix) {
    const auto& r = reduces_[static_cast<std::size_t>(rix)];
    if (r.running && r.run != nullptr) feed_reducer(rix, index);
  }
  if (spec_.speculative_execution) {
    check_stragglers();
    schedule_speculation_scan();
  }
  schedule_pump();
  maybe_finish();
}

void MrAppMaster::settle_speculation(int index, bool speculative_won) {
  auto& m = maps_[static_cast<std::size_t>(index)];
  if (speculative_won) {
    // Kill the original attempt.
    if (m.running && m.run != nullptr) {
      m.run->abort();
      set_map_running(m, m.running, false);
      disarm_fault_kill(m.fault_kill, m.fault_kill_pending);
      rm_.release_container(m.container);
      end_task_span(m.span);
    }
  } else {
    if (m.spec_running && m.spec_run != nullptr) {
      m.spec_run->abort();
      set_map_running(m, m.spec_running, false);
      rm_.release_container(m.spec_container);
      end_task_span(m.spec_span);
      --active_speculations_;
    } else if (m.spec_requested && !m.spec_running) {
      rm_.cancel_request(m.spec_request);
      --active_speculations_;
    }
    m.spec_requested = false;
  }
}

void MrAppMaster::check_stragglers() {
  if (finished_ || map_duration_count_ == 0) return;
  if (completed_maps_ * 2 < num_maps_ || !map_queue_.empty()) return;
  const double mean =
      map_duration_sum_ / static_cast<double>(map_duration_count_);
  const int spec_cap =
      std::max(1, cluster_slots_estimate(spec_.config, true) / 10);
  for (int i = 0; i < num_maps_; ++i) {
    if (active_speculations_ >= spec_cap) break;
    auto& m = maps_[static_cast<std::size_t>(i)];
    if (!m.running || m.done() || m.spec_requested || m.attempts > 1) continue;
    const double elapsed = engine_.now() - m.run_started;
    if (elapsed < spec_.speculative_slowdown * mean) continue;
    m.spec_requested = true;
    ++active_speculations_;
    ++result_.speculative_launches;
    const JobConfig cfg = config_for(TaskRef{TaskKind::Map, i});
    yarn::Resource res{mebibytes(cfg.map_memory_mb),
                       static_cast<int>(cfg.map_cpu_vcores)};
    // LATE: never prefer the original's own node for the backup — a
    // straggler usually straggles because its host is slow (hot disk,
    // degraded NIC), and a backup beside it inherits the very slowness it
    // hedges against.
    std::vector<cluster::NodeId> preferred;
    for (auto replica : m.replicas) {
      if (replica != m.container.node) preferred.push_back(replica);
    }
    // The backup's whole chain — grant wait included — is charged to the
    // speculation decision made here, rooted at the original's start.
    m.spec_request = rm_.request_container(
        app_, res, std::move(preferred),
        [this, i](const yarn::Container& c) {
          on_speculative_container(i, c);
        },
        m.cp_start, obs::Blame::Speculation);
  }
}

void MrAppMaster::schedule_speculation_scan() {
  if (spec_scan_scheduled_ || finished_ || completed_maps_ >= num_maps_) {
    return;
  }
  spec_scan_scheduled_ = true;
  HOST_PROF_CATEGORY(kAmTask);
  engine_.schedule_daemon_after(1.0, [this] {
    spec_scan_scheduled_ = false;
    if (finished_ || completed_maps_ >= num_maps_) return;
    check_stragglers();
    // Re-arm only while the engine holds real work: a straggler that is
    // actually running keeps a completion event live, so this never stops
    // early — but it must not keep a stuck job spinning forever either
    // (daemon scheduling keeps the scan, the heartbeat watchdog, and the
    // cluster monitor from counting each other as work).
    if (!engine_.quiescent()) schedule_speculation_scan();
  });
}

void MrAppMaster::on_speculative_container(int index,
                                           const yarn::Container& c) {
  auto& m = maps_[static_cast<std::size_t>(index)];
  if (m.done() || !m.spec_requested) {
    // The race settled while this container was queued.
    rm_.release_container(c);
    --active_speculations_;
    m.spec_requested = false;
    return;
  }
  if (!rm_.container_live(c.id)) {
    // The grant raced its node's death; just drop this speculation (the
    // next scan may re-issue it).
    if (auto* rec = engine_.recorder()) {
      rec->metrics().counter("yarn.stale_grants").add(1.0);
    }
    --active_speculations_;
    m.spec_requested = false;
    return;
  }
  if (spec_.input.valid() && !dfs_.has_live_replica(spec_.input, m.block)) {
    // No live input: the primary is parked on the block too — drop the
    // backup rather than read a corpse.
    rm_.release_container(c);
    --active_speculations_;
    m.spec_requested = false;
    return;
  }
  m.spec_container = c;
  set_map_running(m, m.spec_running, true);
  // The backup takes a number of its own but no original-line attempt:
  // max_task_attempts bounds retries of the original only.
  const int number = ++m.numbered;
  begin_task_span(m.spec_span, "map_attempt", c, number);

  MapTask::Inputs inputs;
  inputs.task = TaskRef{TaskKind::Map, index};
  inputs.attempt = number;
  inputs.input_bytes = m.input;
  inputs.ws_factor = ws_factor_;
  inputs.noise_cv = spec_.noise_cv;
  inputs.trace_tid = c.id.value();
  if (auto* cpb = cp()) {
    m.spec_cp_start = cpb->stamped(
        id_.value(), "map_start", engine_.now(), index, number,
        static_cast<int>(c.node.value()), static_cast<int>(c.id.value()));
    cpb->edge(c.cp_grant, m.spec_cp_start, obs::Blame::Speculation);
    inputs.cp_job = id_.value();
    inputs.cp_start = m.spec_cp_start;
    inputs.cp_speculative = true;
  }
  if (spec_.input.valid()) {
    inputs.source = pick_live_replica(m, c.node);
    inputs.locality = inputs.source == c.node
                          ? dfs::Locality::NodeLocal
                          : (rm_.topology().same_rack(inputs.source, c.node)
                                 ? dfs::Locality::RackLocal
                                 : dfs::Locality::OffRack);
  } else {
    inputs.source = c.node;
    inputs.locality = dfs::Locality::NodeLocal;
  }
  const JobConfig cfg = config_for(inputs.task);
  if (m.spec_run != nullptr) dead_map_runs_.push_back(std::move(m.spec_run));
  m.spec_run = std::make_unique<MapTask>(
      engine_, rm_.node(c.node), rm_.node(inputs.source), fabric_,
      spec_.profile, cfg, inputs,
      rng_.fork(0xbacc + static_cast<std::uint64_t>(index) * 7),
      [this, index](const TaskReport& r) {
        on_map_done(index, r, /*speculative=*/true);
      });
  m.spec_run->start();
}

void MrAppMaster::feed_reducer(int reduce_index, int map_index) {
  const auto& m = maps_[static_cast<std::size_t>(map_index)];
  auto& r = reduces_[static_cast<std::size_t>(reduce_index)];
  r.run->add_map_output(
      map_index, m.ran_on,
      m.combined_output *
          partition_weights_[static_cast<std::size_t>(reduce_index)],
      epoch_of(m.ran_on));
  // This delivery may be what the reducer's shuffle ends on; the attempt
  // keeps the latest and draws its one edge when the shuffle completes.
  if (auto* cpb = cp()) r.run->offer_shuffle_source(*cpb, m.cp_done);
}

void MrAppMaster::set_map_running(MapState& m, bool& flag, bool value) {
  const bool was_live = m.running || m.spec_running;
  flag = value;
  live_maps_ += static_cast<int>(m.running || m.spec_running) -
                static_cast<int>(was_live);
}

void MrAppMaster::set_reduce_running(ReduceState& r, bool value) {
  live_reduces_ += static_cast<int>(value) - static_cast<int>(r.running);
  r.running = value;
}

void MrAppMaster::on_reduce_done(int index, const TaskReport& report) {
  auto& r = reduces_[static_cast<std::size_t>(index)];
  set_reduce_running(r, false);
  disarm_fault_kill(r.fault_kill, r.fault_kill_pending);
  --running_reduces_or_requested_;
  rm_.release_container(r.container);
  end_task_span(r.span);
  TaskReport rep = report;
  if (injector_ != nullptr) {
    rep.faulted = injector_->node_faulted_during(
        static_cast<int>(rep.node.value()), rep.start_time, rep.end_time);
  }
  result_.reduce_reports.push_back(rep);
  if (task_listener_) task_listener_(rep);

  if (rep.failed_oom) {
    if (auto* rec = engine_.recorder()) {
      rec->metrics().counter("mr.task.oom_kills").add(1.0);
      rec->metrics().counter("mr.reduce.failed_attempts.oom").add(1.0);
    }
    ++result_.counters.failed_task_attempts;
    MRON_CHECK_MSG(r.attempts < spec_.max_task_attempts,
                   "reduce " << index << " exceeded max attempts");
    JobConfig retry = spec_.config;
    retry.reduce_memory_mb = std::min(
        3072.0, std::max(retry.reduce_memory_mb,
                         rep.config.reduce_memory_mb * 1.5));
    clamp_constraints(retry);
    r.override_config = retry;
    r.cp_fail = cp_fail_node("reduce_fail", index, r.attempts, r.cp_start);
    r.run.reset();
    r.cursor = completions_.size();
    // Bypass the wave budget, as for map retries: a retry is not a new
    // launch and must not stall a tuner wave.
    request_reduce(index);
    return;
  }

  r.done = true;
  if (auto* cpb = cp()) {
    r.cp_done = cpb->node(id_.value(), "reduce_done", index, rep.attempt);
  }
  result_.counters.reduce += rep.counters;
  if (reduce_secs_hist_ != nullptr) {
    reduce_secs_hist_->observe(rep.duration());
  }
  ++completed_reduces_;
  schedule_pump();
  maybe_finish();
}

cluster::NodeId MrAppMaster::pick_live_replica(const MapState& m,
                                               cluster::NodeId reader) {
  // Local if a live local replica exists, then rack-local, then any live
  // replica — against the *current* DFS replica set, which re-replication
  // may have grown past the submit-time snapshot. The request path guards
  // on has_live_replica, so the trailing check is a pure safety net.
  const auto& replicas = spec_.input.valid()
                             ? dfs_.dataset(spec_.input).blocks[m.block].replicas
                             : m.replicas;
  for (auto rep : replicas) {
    if (rep == reader && dfs_.node_alive(rep)) return rep;
  }
  for (auto rep : replicas) {
    if (dfs_.node_alive(rep) && rm_.topology().same_rack(rep, reader)) {
      return rep;
    }
  }
  for (auto rep : replicas) {
    if (dfs_.node_alive(rep)) return rep;
  }
  MRON_CHECK_MSG(false, "all replicas of a split lost — job cannot proceed");
  return reader;
}

void MrAppMaster::handle_node_failure(cluster::NodeId node) {
  // Output on the node is gone: move its epoch before any reducer code
  // runs again, so no visit to it trusts an earlier availability answer.
  ++host_epochs_[static_cast<std::size_t>(node.value())];
  if (finished_) return;
  // 1. Running tasks on the node die with it; re-execute immediately
  //    (node loss does not count against the task's OOM-attempt limit).
  for (int i = 0; i < num_maps_; ++i) {
    auto& m = maps_[static_cast<std::size_t>(i)];
    if (m.running && m.container.node == node) {
      m.run->abort();
      set_map_running(m, m.running, false);
      disarm_fault_kill(m.fault_kill, m.fault_kill_pending);
      rm_.release_container(m.container);
      end_task_span(m.span);
      m.cp_fail = cp_fail_node("map_fail", i, m.run_number, m.cp_start);
      request_map(i);
    }
    if (m.spec_running && m.spec_container.node == node) {
      m.spec_run->abort();
      set_map_running(m, m.spec_running, false);
      m.spec_requested = false;
      --active_speculations_;
      rm_.release_container(m.spec_container);
      end_task_span(m.spec_span);
    }
  }
  for (int i = 0; i < spec_.num_reduces; ++i) {
    auto& r = reduces_[static_cast<std::size_t>(i)];
    if (r.running && r.container.node == node) {
      r.run->abort();
      set_reduce_running(r, false);
      disarm_fault_kill(r.fault_kill, r.fault_kill_pending);
      --running_reduces_or_requested_;
      rm_.release_container(r.container);
      end_task_span(r.span);
      r.cp_fail = cp_fail_node("reduce_fail", i, r.attempts, r.cp_start);
      // The aborted run is parked by the next on_reduce_container().
      r.cursor = completions_.size();
      request_reduce(i);
    } else if (r.running && r.run != nullptr) {
      // Survivors must forget segments sourced from the dead node so the
      // re-executed maps' re-deliveries are accepted.
      r.run->invalidate_source(node);
    }
  }
  // 2. Completed maps whose outputs lived on the node must re-execute —
  //    their shuffle data is gone (reducers that already fetched a copy
  //    keep it; the re-delivered duplicate is deduped by map index).
  for (int i = 0; i < num_maps_; ++i) {
    auto& m = maps_[static_cast<std::size_t>(i)];
    if (m.done() && m.ran_on == node) reexecute_lost_map(i);
  }
  schedule_pump();
}

void MrAppMaster::reexecute_lost_map(int map_index) {
  auto& m = maps_[static_cast<std::size_t>(map_index)];
  // The output at ran_on is no longer available: reducers holding it from
  // there must re-ask segment by segment.
  ++host_epochs_[static_cast<std::size_t>(m.ran_on.value())];
  m.log_pos = -1;
  m.combined_output = Bytes(0);
  --completed_maps_;
  ++result_.lost_maps_reexecuted;
  if (injector_ != nullptr) {
    injector_->record_lost_map_reexecution(
        id_.value(), map_index, static_cast<int>(m.ran_on.value()));
  }
  if (auto* rec = engine_.recorder()) {
    rec->metrics().counter("mr.map.lost_output_reexecutions").add(1.0);
    // The lost output invalidates the old completion: re-root the task's
    // chain at a "map_lost" event so the re-execution (wait + rerun) is
    // charged to recovery, not to a second map_compute pass.
    obs::CriticalPathBuilder& cpb = rec->critical_path();
    const obs::CpNode lost = cpb.stamped(id_.value(), "map_lost",
                                         engine_.now(), map_index, m.attempts);
    cpb.edge(m.cp_done, lost, obs::Blame::RetryRecovery);
    m.cp_fail = lost;
    m.cp_done = obs::kInvalidCpNode;
  }
  request_map(map_index);
}

bool MrAppMaster::map_output_available(int map_index,
                                       cluster::NodeId source) const {
  const auto& m = maps_[static_cast<std::size_t>(map_index)];
  return m.done() && m.ran_on == source && rm_.node_alive(source);
}

void MrAppMaster::on_shuffle_fetch_failure(int reduce_index, int map_index,
                                           cluster::NodeId source) {
  if (finished_) return;
  ++result_.fetch_failures;
  if (injector_ != nullptr) {
    injector_->record_fetch_failure(id_.value(), reduce_index,
                                    static_cast<int>(source.value()));
  }
  auto& m = maps_[static_cast<std::size_t>(map_index)];
  if (!m.done()) {
    // Re-execution is already under way (node-failure or fault retry); the
    // fresh completion will re-deliver to every reducer.
    return;
  }
  if (rm_.node_alive(m.ran_on) && m.ran_on != source) {
    // The map already re-ran elsewhere; only this reducer missed the news.
    auto& r = reduces_[static_cast<std::size_t>(reduce_index)];
    if (r.running && r.run != nullptr) {
      r.run->add_map_output(
          map_index, m.ran_on,
          m.combined_output *
              partition_weights_[static_cast<std::size_t>(reduce_index)],
          epoch_of(m.ran_on));
    }
    return;
  }
  // The reducer's fetch noticed the loss before the RM's failure
  // notification landed: invalidate the only copy and re-run the map.
  reexecute_lost_map(map_index);
  schedule_pump();
}

void MrAppMaster::arm_injected_failure(TaskKind kind, int index, int attempt) {
  if (injector_ == nullptr || !injector_->active()) return;
  // The final allowed attempt always runs clean: the simulator has no
  // job-failure path (MRONLINE tunes running jobs), so injection must not
  // exhaust max_task_attempts.
  if (attempt >= spec_.max_task_attempts) return;
  double frac = 0.0;
  if (!injector_->should_fail_attempt(
          id_.value(), kind == TaskKind::Map ? 0 : 1, index, attempt, &frac)) {
    return;
  }
  // A rough profile-based runtime estimate is plenty here: it shapes only
  // *when* the fault strikes, never whether.
  double est = spec_.profile.task_startup_secs;
  if (kind == TaskKind::Map) {
    est += maps_[static_cast<std::size_t>(index)].input.mib() *
           spec_.profile.map_cpu_secs_per_mib;
  } else if (map_duration_count_ > 0) {
    est += 2.0 * map_duration_sum_ / static_cast<double>(map_duration_count_);
  } else {
    est += 10.0;
  }
  const double delay = std::max(0.1, frac * est);
  if (kind == TaskKind::Map) {
    auto& m = maps_[static_cast<std::size_t>(index)];
    m.fault_kill_pending = true;
    m.fault_kill = engine_.schedule_after(
        delay, [this, index, attempt] { fail_map_attempt(index, attempt); });
  } else {
    auto& r = reduces_[static_cast<std::size_t>(index)];
    r.fault_kill_pending = true;
    r.fault_kill = engine_.schedule_after(
        delay, [this, index, attempt] { fail_reduce_attempt(index, attempt); });
  }
}

void MrAppMaster::fail_map_attempt(int index, int attempt) {
  auto& m = maps_[static_cast<std::size_t>(index)];
  m.fault_kill_pending = false;
  if (finished_ || m.done() || !m.running || m.attempts != attempt) return;
  m.run->abort();
  set_map_running(m, m.running, false);
  rm_.release_container(m.container);
  end_task_span(m.span);

  TaskReport rep;
  rep.task = TaskRef{TaskKind::Map, index};
  rep.attempt = m.run_number;
  rep.start_time = m.run_started;
  rep.end_time = engine_.now();
  rep.config = config_for(rep.task);
  rep.node = m.container.node;
  rep.failed_injected = true;
  rep.faulted = true;
  result_.map_reports.push_back(rep);
  if (task_listener_) task_listener_(rep);
  ++result_.counters.failed_task_attempts;
  ++result_.injected_failures;
  injector_->record_injected_failure(id_.value(), 0, index, attempt);
  if (auto* rec = engine_.recorder()) {
    rec->metrics().counter("mr.map.failed_attempts.injected").add(1.0);
  }
  // Recovery chain: the re-request after the backoff draws its wait edge
  // from this fail node, so the backoff itself lands in retry_recovery.
  m.cp_fail = cp_fail_node("map_fail", index, m.run_number, m.cp_start);
  // Exponential backoff, then re-request — bypassing the wave budget, like
  // OOM retries. A speculative attempt may win during the backoff.
  engine_.schedule_after(retry_backoff(attempt), [this, index] {
    auto& m2 = maps_[static_cast<std::size_t>(index)];
    if (finished_ || m2.done() || m2.running) return;
    request_map(index);
  });
}

void MrAppMaster::fail_reduce_attempt(int index, int attempt) {
  auto& r = reduces_[static_cast<std::size_t>(index)];
  r.fault_kill_pending = false;
  if (finished_ || r.done || !r.running || r.attempts != attempt) return;
  r.run->abort();
  set_reduce_running(r, false);
  --running_reduces_or_requested_;
  rm_.release_container(r.container);
  end_task_span(r.span);
  dead_reduce_runs_.push_back(std::move(r.run));

  TaskReport rep;
  rep.task = TaskRef{TaskKind::Reduce, index};
  rep.attempt = attempt;
  rep.start_time = r.run_started;
  rep.end_time = engine_.now();
  rep.config = config_for(rep.task);
  rep.node = r.container.node;
  rep.failed_injected = true;
  rep.faulted = true;
  result_.reduce_reports.push_back(rep);
  if (task_listener_) task_listener_(rep);
  ++result_.counters.failed_task_attempts;
  ++result_.injected_failures;
  injector_->record_injected_failure(id_.value(), 1, index, attempt);
  if (auto* rec = engine_.recorder()) {
    rec->metrics().counter("mr.reduce.failed_attempts.injected").add(1.0);
  }
  r.cp_fail = cp_fail_node("reduce_fail", index, attempt, r.cp_start);
  // The cursor moves at retry time, not now: maps completing during the
  // backoff are fed in map-index order with the rest.
  engine_.schedule_after(retry_backoff(attempt), [this, index] {
    auto& r2 = reduces_[static_cast<std::size_t>(index)];
    if (finished_ || r2.done || r2.running) return;
    r2.cursor = completions_.size();
    request_reduce(index);
  });
}

double MrAppMaster::retry_backoff(int attempts) const {
  const double base = std::max(0.1, spec_.retry_backoff_secs);
  return std::min(60.0, base * std::pow(2.0, std::max(0, attempts - 1)));
}

void MrAppMaster::disarm_fault_kill(sim::EventId& ev, bool& pending) {
  if (!pending) return;
  engine_.cancel(ev);
  pending = false;
}

void MrAppMaster::maybe_finish() {
  if (finished_) return;
  if (completed_maps_ < num_maps_ ||
      completed_reduces_ < spec_.num_reduces) {
    return;
  }
  finished_ = true;
  result_.finish_time = engine_.now();
  if (auto* cpb = cp()) {
    // Close the DAG: the finish waits on every task's completion. Only the
    // last arrival binds (a zero-width segment); the blame tag on the
    // closing edge is therefore never charged meaningful time.
    const obs::CpNode fin =
        cpb->stamped(id_.value(), "job_finish", result_.finish_time);
    for (const auto& m : maps_) {
      cpb->edge(m.cp_done, fin, obs::Blame::MapCompute);
    }
    for (const auto& r : reduces_) {
      cpb->edge(r.cp_done, fin, obs::Blame::ReduceCompute);
    }
    cpb->mark_job_finish(id_.value(), fin);
  }
  rm_.unregister_app(app_);
  on_done_(result_);
}

}  // namespace mron::mapreduce

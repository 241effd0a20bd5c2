#include "mapreduce/report_rollup.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "cluster/cluster_spec.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/format.h"
#include "mapreduce/params.h"
#include "sim/parallel_runner.h"

namespace mron::mapreduce {

namespace {

std::map<std::string, double> counters_map(const TaskCounters& c) {
  return {
      {"map_output_records", static_cast<double>(c.map_output_records)},
      {"combine_output_records",
       static_cast<double>(c.combine_output_records)},
      {"spilled_records", static_cast<double>(c.spilled_records)},
      {"map_output_bytes", c.map_output_bytes.as_double()},
      {"shuffle_bytes", c.shuffle_bytes.as_double()},
      {"local_disk_write_bytes", c.local_disk_write_bytes.as_double()},
      {"local_disk_read_bytes", c.local_disk_read_bytes.as_double()},
      {"cpu_seconds", c.cpu_seconds},
  };
}

void duration_stats(const std::vector<TaskReport>& reports,
                    const std::string& prefix,
                    std::map<std::string, double>& stats) {
  double sum = 0.0, max = 0.0;
  for (const TaskReport& r : reports) {
    sum += r.duration();
    max = std::max(max, r.duration());
  }
  stats[prefix + "_tasks"] = static_cast<double>(reports.size());
  stats[prefix + "_task_secs_avg"] =
      reports.empty() ? 0.0 : sum / static_cast<double>(reports.size());
  stats[prefix + "_task_secs_max"] = max;
}

/// FNV-1a over 64-bit words, one byte at a time.
class Fnv {
 public:
  explicit Fnv(std::uint64_t h) : h_(h) {}
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(v)); }
  void add(bool v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const TaskCounters& c) {
    add(c.map_output_records);
    add(c.combine_output_records);
    add(c.spilled_records);
    add(c.map_output_bytes.count());
    add(c.shuffle_bytes.count());
    add(c.local_disk_write_bytes.count());
    add(c.local_disk_read_bytes.count());
    add(c.cpu_seconds);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

}  // namespace

obs::ReportJob report_job_from(const JobResult& result,
                               const JobConfig& config) {
  obs::ReportJob job;
  job.id = result.id.value();
  job.name = result.name;
  job.submit_time = result.submit_time;
  job.finish_time = result.finish_time;
  job.phases["map"] = counters_map(result.counters.map);
  job.phases["reduce"] = counters_map(result.counters.reduce);
  job.stats["exec_secs"] = result.exec_time();
  job.stats["failed_attempts"] =
      static_cast<double>(result.counters.failed_task_attempts);
  job.stats["spilled_records"] =
      static_cast<double>(result.counters.total_spilled_records());
  job.stats["speculative_launches"] =
      static_cast<double>(result.speculative_launches);
  job.stats["speculative_wins"] =
      static_cast<double>(result.speculative_wins);
  job.stats["injected_failures"] =
      static_cast<double>(result.injected_failures);
  job.stats["fetch_failures"] = static_cast<double>(result.fetch_failures);
  job.stats["lost_maps_reexecuted"] =
      static_cast<double>(result.lost_maps_reexecuted);
  duration_stats(result.map_reports, "map", job.stats);
  duration_stats(result.reduce_reports, "reduce", job.stats);

  const auto& reg = ParamRegistry::extended();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    job.config[reg.at(i).name] = reg.get(config, i);
  }
  return job;
}

std::string run_report_json(
    const Simulation& sim,
    const std::vector<std::pair<const JobResult*, const JobConfig*>>& jobs,
    const std::vector<std::pair<std::string, std::string>>& meta) {
  obs::RunReport report;
  report.set_meta("schema_tool", "mron");
  for (const auto& [k, v] : meta) report.set_meta(k, v);
  report.set_meta("cluster_nodes",
                  std::to_string(sim.topology().num_nodes()));
  report.set_meta("seed", std::to_string(sim.options().seed));
  for (const auto& [result, config] : jobs) {
    report.add_job(report_job_from(*result, *config));
  }
  if (const faults::FaultInjector* inj = sim.fault_injector()) {
    const faults::FaultPlan& plan = inj->plan();
    const faults::FaultStats& fs = inj->stats();
    report.set_faults({
        {"plan.seed", static_cast<double>(plan.seed)},
        {"plan.task_fail_prob", plan.task_fail_prob},
        {"plan.crashes", static_cast<double>(plan.crashes.size())},
        {"plan.degradations", static_cast<double>(plan.degradations.size())},
        {"plan.heartbeat_period", plan.heartbeat_period},
        {"plan.heartbeat_timeout", plan.heartbeat_timeout},
        {"crashes", static_cast<double>(fs.crashes)},
        {"restarts", static_cast<double>(fs.restarts)},
        {"degrade_windows", static_cast<double>(fs.degrade_windows)},
        {"injected_task_failures",
         static_cast<double>(fs.injected_task_failures)},
        {"fetch_failures", static_cast<double>(fs.fetch_failures)},
        {"lost_map_reexecutions",
         static_cast<double>(fs.lost_map_reexecutions)},
    });
  }
  // Storage block: always present — the placement counts describe the
  // dataset even on fault-free runs, and under_replicated_final == 0 is the
  // "storage fully recovered before drain" assertion CI pins down.
  const dfs::Dfs& d = sim.dfs();
  const dfs::Rereplicator::Stats& rs = sim.rereplicator().stats();
  // A constant: rack-aware is the only placement, but mron.run_report/4
  // consumers read the key and existing artifacts must stay cmp-identical.
  report.set_meta("dfs_policy", "rack-aware");
  report.set_dfs({
      {"blocks_total", static_cast<double>(d.total_blocks())},
      {"replication", static_cast<double>(d.default_replication())},
      {"under_replicated_final",
       static_cast<double>(d.under_replicated_blocks())},
      {"under_replicated_peak",
       static_cast<double>(rs.peak_under_replicated)},
      {"rerepl.bytes", rs.bytes_copied},
      {"rerepl.started", static_cast<double>(rs.copies_started)},
      {"rerepl.completed", static_cast<double>(rs.copies_completed)},
      {"rerepl.cancelled", static_cast<double>(rs.copies_cancelled)},
      {"rerepl.recovery_time", rs.last_fully_replicated},
  });
  return report.to_json(sim.recorder());
}

std::uint64_t result_digest(const JobResult& result, std::uint64_t h) {
  Fnv d(h);
  d.add(result.submit_time);
  d.add(result.finish_time);
  d.add(result.counters.map);
  d.add(result.counters.reduce);
  d.add(result.counters.failed_task_attempts);
  d.add(result.speculative_launches);
  d.add(result.speculative_wins);
  d.add(result.injected_failures);
  d.add(result.fetch_failures);
  d.add(result.lost_maps_reexecuted);
  const auto& reg = ParamRegistry::extended();
  for (const auto* reports : {&result.map_reports, &result.reduce_reports}) {
    d.add(static_cast<std::uint64_t>(reports->size()));
    for (const TaskReport& r : *reports) {
      d.add(static_cast<int>(r.task.kind));
      d.add(r.task.index);
      d.add(r.attempt);
      d.add(r.start_time);
      d.add(r.end_time);
      d.add(r.node.value());
      d.add(static_cast<int>(r.locality));
      d.add(r.cpu_util);
      d.add(r.mem_util);
      d.add(r.mem_commit);
      d.add(r.counters);
      d.add(r.failed_oom);
      d.add(r.failed_injected);
      d.add(r.faulted);
      for (std::size_t i = 0; i < reg.size(); ++i) d.add(reg.get(r.config, i));
    }
  }
  return d.value();
}

std::string run_report_key(
    const std::string& phase,
    const std::vector<std::pair<std::string, std::string>>& meta,
    const JobConfig& config) {
  std::string key = phase;
  for (const auto& [k, v] : meta) {
    key += "|" + k + "=" + v;
  }
  key += "|cfg:";
  const auto& reg = ParamRegistry::extended();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    key += format_double(reg.get(config, i));
    key += ',';
  }
  return key;
}

RunFlags run_flags(const Flags& flags) {
  RunFlags run;
  run.jobs = flags.get("jobs", 1);
  MRON_INPUT_CHECK(run.jobs >= 1 && run.jobs <= sim::ParallelRunner::kMaxJobs,
                   "--jobs=" << run.jobs << " outside [1, "
                             << sim::ParallelRunner::kMaxJobs << "]");
  const std::string cluster = flags.get("cluster", std::string());
  if (!cluster.empty()) run.base.cluster = cluster::load_cluster_spec(cluster);
  const std::string plan = flags.get("fault-plan", std::string());
  const std::string spec = flags.get("fault-spec", std::string());
  MRON_INPUT_CHECK(plan.empty() || spec.empty(),
                   "--fault-plan and --fault-spec are exclusive");
  if (!plan.empty()) run.base.fault_plan = faults::FaultPlan::load(plan);
  if (!spec.empty()) run.base.fault_plan = faults::FaultPlan::parse(spec);
  // Simulations validate their plan on worker threads, where a bad node id
  // would abort the process; check it against the cluster up front.
  run.base.fault_plan.validate(run.base.cluster.total_slaves());
  return run;
}

RunExports::RunExports(const Flags& flags, bool profile)
    : report_(flags.path("report-out", "mron_report.json")),
      metrics_(flags.path("metrics-out", "mron_metrics.json")),
      trace_(flags.path("trace-out", "mron_trace.json")),
      audit_(flags.path("audit-out", "mron_audit.jsonl")),
      profile_(profile ? flags.path("profile-out", "host_profile.json") : ""),
      trace_detail_(flags.get("trace-detail", false)) {}

void RunExports::apply(SimulationOptions& opt) const {
  opt.host_profile = wants(profile_);
  opt.observe =
      wants(report_) || wants(metrics_) || wants(trace_) || wants(audit_);
  opt.trace_detail = opt.observe && trace_detail_ && !report_only_;
}

void RunExports::offer(
    Simulation& sim, const std::string& phase,
    std::vector<std::pair<std::string, std::string>> meta,
    const std::vector<std::pair<const JobResult*, const JobConfig*>>& jobs) {
  MRON_CHECK(!jobs.empty());
  // Zero-padded so seeds order the same lexicographically and numerically.
  char seed[32];
  std::snprintf(seed, sizeof(seed), "%020llu",
                static_cast<unsigned long long>(sim.options().seed));
  meta.emplace_back("run_seed", seed);
  const std::string key = run_report_key(phase, meta, *jobs.front().second);
  obs::Recorder* rec = sim.recorder();
  obs::HostProfiler* profiler = sim.host_profiler();
  if (wants(report_)) {
    report_.offer(key, [&](std::ostream& os) {
      os << run_report_json(sim, jobs, meta);
    });
  }
  if (rec != nullptr && wants(metrics_)) {
    metrics_.offer(key,
                   [&](std::ostream& os) { rec->metrics().write_json(os); });
  }
  if (rec != nullptr && wants(trace_)) {
    trace_.offer(key, [&](std::ostream& os) {
      // Optional host-time lane: only profiled traces carry it, so plain
      // traces stay deterministic.
      if (profiler != nullptr) profiler->emit_trace_track(rec->trace());
      rec->trace().write_chrome_json(os);
    });
  }
  if (rec != nullptr && wants(audit_)) {
    audit_.offer(key, [&](std::ostream& os) { rec->audit().write_jsonl(os); });
  }
  if (profiler != nullptr && wants(profile_)) {
    profile_.offer(key, [&](std::ostream& os) { sim.write_host_profile(os); });
  }
}

std::vector<std::string> RunExports::written() const {
  std::vector<std::string> out;
  for (const obs::ReportCollector* c :
       {&metrics_, &trace_, &audit_, &profile_, &report_}) {
    if (!c->empty()) out.push_back(c->path());
  }
  return out;
}

}  // namespace mron::mapreduce

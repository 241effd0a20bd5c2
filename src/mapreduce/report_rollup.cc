#include "mapreduce/report_rollup.h"

#include <algorithm>

#include "common/format.h"
#include "mapreduce/params.h"
#include "mapreduce/simulation.h"

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

}  // namespace mron::mapreduce

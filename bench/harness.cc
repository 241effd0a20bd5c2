#include "bench/harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <utility>

#include "cluster/cluster_spec.h"
#include "common/check.h"
#include "common/parse.h"
#include "mapreduce/report_rollup.h"
#include "obs/report.h"

namespace mron::bench {

using mapreduce::JobConfig;
using mapreduce::JobResult;
using mapreduce::JobSpec;
using mapreduce::Simulation;
using mapreduce::SimulationOptions;
using mapreduce::TaskKind;
using workloads::Benchmark;
using workloads::Corpus;

namespace {

ObsOutputs g_obs;
faults::FaultPlan g_fault_plan;
cluster::ClusterSpec g_cluster;  // the 19-node testbed by default
int g_jobs = 1;
// Serializes artifact export when runs finish on several workers at once;
// the files still describe one whole run (the last to finish).
std::mutex g_obs_mu;
// --report-out destination: unlike the last-writer-wins artifacts above,
// the collector keeps the lexicographically greatest key so the exported
// report is the same run at any --jobs value.
obs::ReportCollector g_reports;

/// Turn observation on for a simulation when any export path is configured,
/// and thread the harness-wide fault plan through.
void apply_obs(SimulationOptions& opt) {
  opt.cluster = g_cluster;
  opt.fault_plan = g_fault_plan;
  if (!g_obs.any()) return;
  opt.observe = true;
  opt.trace_detail = g_obs.trace_detail;
}

/// Write the configured artifacts from a finished observed run.
void export_obs(Simulation& sim) {
  auto* rec = sim.recorder();
  if (rec == nullptr) return;
  std::lock_guard<std::mutex> lock(g_obs_mu);
  if (!g_obs.metrics_out.empty()) {
    std::ofstream out(g_obs.metrics_out);
    MRON_CHECK_MSG(out.good(), "cannot open " << g_obs.metrics_out);
    rec->metrics().write_json(out);
  }
  if (!g_obs.trace_out.empty()) {
    std::ofstream out(g_obs.trace_out);
    MRON_CHECK_MSG(out.good(), "cannot open " << g_obs.trace_out);
    rec->trace().write_chrome_json(out);
  }
  if (!g_obs.audit_out.empty()) {
    std::ofstream out(g_obs.audit_out);
    MRON_CHECK_MSG(out.good(), "cannot open " << g_obs.audit_out);
    rec->audit().write_jsonl(out);
  }
}

/// Zero-padded so seeds order the same lexicographically and numerically
/// inside a report key.
std::string padded_seed(std::uint64_t seed) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020llu",
                static_cast<unsigned long long>(seed));
  return buf;
}

/// Offer one finished run to the report collector. `phase` ranks runs that
/// share a benchmark (e.g. a tuned run above its baseline); the winner is a
/// pure function of the keys, never of worker completion order.
void record_report(Simulation& sim, Benchmark b, Corpus c,
                   const std::string& phase, std::uint64_t seed,
                   std::vector<std::pair<const JobResult*, const JobConfig*>>
                       report_jobs) {
  if (g_obs.report_out.empty() || report_jobs.empty()) return;
  const std::vector<std::pair<std::string, std::string>> meta = {
      {"benchmark", workloads::benchmark_name(b)},
      {"corpus", workloads::corpus_name(c)},
      {"run_seed", padded_seed(seed)},
  };
  g_reports.offer(
      mapreduce::run_report_key(phase, meta, *report_jobs.front().second),
      mapreduce::run_report_json(sim, report_jobs, meta), g_obs.report_out);
}

JobSpec make_spec(Simulation& sim, Benchmark b, Corpus c,
                  Bytes terasort_bytes, int terasort_reduces) {
  if (b == Benchmark::Terasort && terasort_bytes > Bytes(0)) {
    return workloads::make_terasort(sim, terasort_bytes, terasort_reduces);
  }
  return workloads::make_job(sim, b, c);
}

RunStats stats_from(const JobResult& r) {
  RunStats s;
  s.exec_secs = r.exec_time();
  s.map_spilled = static_cast<double>(r.counters.map.spilled_records);
  s.total_spilled = static_cast<double>(r.counters.total_spilled_records());
  s.optimal_spilled =
      static_cast<double>(r.counters.map.combine_output_records);
  s.map_mem_util = r.avg_util(TaskKind::Map, /*cpu=*/false);
  s.reduce_mem_util = r.avg_util(TaskKind::Reduce, false);
  s.map_cpu_util = r.avg_util(TaskKind::Map, true);
  s.reduce_cpu_util = r.avg_util(TaskKind::Reduce, true);
  s.failed_attempts = r.counters.failed_task_attempts;
  return s;
}

RunStats average(const std::vector<RunStats>& all) {
  RunStats avg;
  for (const auto& s : all) {
    avg.exec_secs += s.exec_secs;
    avg.map_spilled += s.map_spilled;
    avg.total_spilled += s.total_spilled;
    avg.optimal_spilled += s.optimal_spilled;
    avg.map_mem_util += s.map_mem_util;
    avg.reduce_mem_util += s.reduce_mem_util;
    avg.map_cpu_util += s.map_cpu_util;
    avg.reduce_cpu_util += s.reduce_cpu_util;
    avg.failed_attempts += s.failed_attempts;
  }
  const double n = static_cast<double>(all.size());
  avg.exec_secs /= n;
  avg.map_spilled /= n;
  avg.total_spilled /= n;
  avg.optimal_spilled /= n;
  avg.map_mem_util /= n;
  avg.reduce_mem_util /= n;
  avg.map_cpu_util /= n;
  avg.reduce_cpu_util /= n;
  return avg;
}

}  // namespace

void set_obs_outputs(ObsOutputs outputs) { g_obs = std::move(outputs); }

const ObsOutputs& obs_outputs() { return g_obs; }

void set_fault_plan(faults::FaultPlan plan) {
  g_fault_plan = std::move(plan);
}

const faults::FaultPlan& fault_plan() { return g_fault_plan; }

void set_cluster_spec(cluster::ClusterSpec spec) {
  g_cluster = std::move(spec);
}

const cluster::ClusterSpec& cluster_spec() { return g_cluster; }

void set_jobs(int jobs) { g_jobs = jobs > 0 ? jobs : 1; }

int jobs() { return g_jobs; }

sim::ParallelRunner& runner() {
  // Lazily sized from the flags; lives for the whole bench process.
  static std::unique_ptr<sim::ParallelRunner> pool =
      std::make_unique<sim::ParallelRunner>(g_jobs);
  return *pool;
}

namespace {

void parse_flags(int argc, char** argv) {
  ObsOutputs out;
  auto value_of = [&](const char* flag, int& i) -> std::string {
    const std::size_t len = std::strlen(flag);
    if (std::strncmp(argv[i], flag, len) != 0) return {};
    if (argv[i][len] == '=') return argv[i] + len + 1;
    if (argv[i][len] == '\0' && i + 1 < argc) return argv[++i];
    return {};
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-detail") == 0) {
      out.trace_detail = true;
      continue;
    }
    std::string v;
    if (!(v = value_of("--metrics-out", i)).empty()) {
      out.metrics_out = v;
    } else if (!(v = value_of("--trace-out", i)).empty()) {
      out.trace_out = v;
    } else if (!(v = value_of("--report-out", i)).empty()) {
      out.report_out = v;
    } else if (!(v = value_of("--jobs", i)).empty()) {
      const auto n = parse_integer<int>(v);
      MRON_INPUT_CHECK(n.has_value() && *n >= 1,
                       "--jobs wants a positive integer, got " << v);
      set_jobs(*n);
    } else if (!(v = value_of("--audit-out", i)).empty()) {
      out.audit_out = v;
    } else if (!(v = value_of("--fault-plan", i)).empty()) {
      set_fault_plan(faults::FaultPlan::load(v));
    } else if (!(v = value_of("--fault-spec", i)).empty()) {
      set_fault_plan(faults::FaultPlan::parse(v));
    } else if (!(v = value_of("--cluster", i)).empty()) {
      set_cluster_spec(cluster::load_cluster_spec(v));
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: %s [--jobs=N] [--metrics-out=F] "
                   "[--trace-out=F] [--audit-out=F] [--report-out=F] "
                   "[--trace-detail] [--fault-plan=F] "
                   "[--fault-spec='directives'] [--cluster=SPEC]\n",
                   argv[i], argv[0]);
      std::exit(2);
    }
  }
  set_obs_outputs(std::move(out));
}

}  // namespace

void init_obs_from_flags(int argc, char** argv) {
  try {
    parse_flags(argc, argv);
    // Simulations validate their plan on worker threads, where a bad node
    // id would abort the process; check it against the cluster up front.
    fault_plan().validate(cluster_spec().total_slaves());
  } catch (const InputError& e) {
    // A malformed --jobs/--fault-spec/--fault-plan/--cluster is the user's
    // to fix: one line and exit 2, as mron_cli does.
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

RunStats run_plain(Benchmark b, Corpus c, const JobConfig& cfg,
                   std::uint64_t seed, Bytes terasort_bytes,
                   int terasort_reduces) {
  SimulationOptions opt;
  opt.seed = seed;
  apply_obs(opt);
  Simulation sim(opt);
  JobSpec spec = make_spec(sim, b, c, terasort_bytes, terasort_reduces);
  spec.config = cfg;
  const JobResult result = sim.run_job(std::move(spec));
  export_obs(sim);
  record_report(sim, b, c, "plain", seed, {{&result, &cfg}});
  return stats_from(result);
}

RunStats run_averaged(Benchmark b, Corpus c, const JobConfig& cfg,
                      Bytes terasort_bytes, int terasort_reduces) {
  const auto seeds = repeat_seeds();
  const std::vector<RunStats> all = runner().map<RunStats>(
      seeds.size(), [&](std::size_t i) {
        return run_plain(b, c, cfg, seeds[i], terasort_bytes,
                         terasort_reduces);
      });
  return average(all);
}

TuneResult tune_aggressive(Benchmark b, Corpus c, std::uint64_t seed,
                           Bytes terasort_bytes, int terasort_reduces,
                           tuner::TunerOptions options) {
  SimulationOptions opt;
  opt.seed = seed;
  apply_obs(opt);
  Simulation sim(opt);
  JobSpec spec = make_spec(sim, b, c, terasort_bytes, terasort_reduces);
  options.strategy = tuner::TuningStrategy::Aggressive;
  tuner::OnlineTuner online_tuner(options);
  JobResult result;
  auto& am = sim.submit_job(std::move(spec), [&](const JobResult& r) {
    result = r;
  });
  online_tuner.attach(am);
  sim.run();
  export_obs(sim);
  const auto& out = online_tuner.outcome(am.id());
  record_report(sim, b, c, "tuned", seed, {{&result, &out.best_config}});
  return TuneResult{out.best_config, result.exec_time(), out.waves,
                    out.configs_tried};
}

RunStats run_conservative(Benchmark b, Corpus c, std::uint64_t seed,
                          Bytes terasort_bytes, int terasort_reduces) {
  SimulationOptions opt;
  opt.seed = seed;
  apply_obs(opt);
  Simulation sim(opt);
  JobSpec spec = make_spec(sim, b, c, terasort_bytes, terasort_reduces);
  tuner::TunerOptions topt;
  topt.strategy = tuner::TuningStrategy::Conservative;
  tuner::OnlineTuner online_tuner(topt);
  JobResult result;
  auto& am = sim.submit_job(std::move(spec), [&](const JobResult& r) {
    result = r;
  });
  online_tuner.attach(am);
  sim.run();
  export_obs(sim);
  record_report(sim, b, c, "conservative", seed,
                {{&result, &online_tuner.outcome(am.id()).best_config}});
  return stats_from(result);
}

RunStats run_conservative_averaged(Benchmark b, Corpus c,
                                   Bytes terasort_bytes,
                                   int terasort_reduces) {
  const auto seeds = repeat_seeds();
  const std::vector<RunStats> all = runner().map<RunStats>(
      seeds.size(), [&](std::size_t i) {
        return run_conservative(b, c, seeds[i], terasort_bytes,
                                terasort_reduces);
      });
  return average(all);
}

JobConfig offline_config(Benchmark b, Corpus c, Bytes terasort_bytes,
                         int terasort_reduces) {
  SimulationOptions opt;
  opt.cluster = g_cluster;
  Simulation sim(opt);
  const JobSpec spec =
      make_spec(sim, b, c, terasort_bytes, terasort_reduces);
  const int maps =
      spec.input.valid()
          ? static_cast<int>(sim.dfs().dataset(spec.input).blocks.size())
          : spec.num_maps_override;
  return baselines::offline_guide_config(spec, sim.dfs().block_size(), maps);
}

double improvement_pct(double base, double tuned) {
  return base > 0.0 ? 100.0 * (base - tuned) / base : 0.0;
}

void expedited_figure(const std::string& figure,
                      const std::vector<ExpeditedApp>& apps) {
  print_preamble(figure, "job execution time, expedited test runs "
                         "(aggressive tuning) vs Default and Offline guide");
  TextTable table({"Benchmark", "Default (s)", "Offline (s)", "MRONLINE (s)",
                   "Improvement", "Paper"});
  // Rows are independent experiments: fan them across the worker pool and
  // add them to the table in app order afterwards.
  const auto rows = runner().map<std::vector<std::string>>(
      apps.size(), [&](std::size_t i) -> std::vector<std::string> {
        const auto& app = apps[i];
        const RunStats def =
            run_averaged(app.benchmark, app.corpus, JobConfig{});
        const RunStats offline =
            run_averaged(app.benchmark, app.corpus,
                         offline_config(app.benchmark, app.corpus));
        const TuneResult tuned_cfg = tune_aggressive(app.benchmark,
                                                     app.corpus);
        const RunStats tuned =
            run_averaged(app.benchmark, app.corpus, tuned_cfg.config);
        return {app.label, TextTable::num(def.exec_secs, 0),
                TextTable::num(offline.exec_secs, 0),
                TextTable::num(tuned.exec_secs, 0),
                TextTable::num(
                    improvement_pct(def.exec_secs, tuned.exec_secs), 1) +
                    "%",
                TextTable::num(app.paper_improvement_pct, 0) + "%"};
      });
  for (const auto& row : rows) table.add_row(row);
  table.print(std::cout);
}

void spill_figure(const std::string& figure,
                  const std::vector<ExpeditedApp>& apps) {
  print_preamble(figure,
                 "map-side spill records (1e9) under Optimal / Default / "
                 "Offline guide / MRONLINE");
  TextTable table({"Benchmark", "Optimal", "Default", "Offline", "MRONLINE"});
  const auto rows = runner().map<std::vector<std::string>>(
      apps.size(), [&](std::size_t i) -> std::vector<std::string> {
        const auto& app = apps[i];
        const RunStats def =
            run_averaged(app.benchmark, app.corpus, JobConfig{});
        const RunStats offline =
            run_averaged(app.benchmark, app.corpus,
                         offline_config(app.benchmark, app.corpus));
        const TuneResult tuned_cfg = tune_aggressive(app.benchmark,
                                                     app.corpus);
        const RunStats tuned =
            run_averaged(app.benchmark, app.corpus, tuned_cfg.config);
        return {app.label, TextTable::num(def.optimal_spilled / 1e9, 2),
                TextTable::num(def.map_spilled / 1e9, 2),
                TextTable::num(offline.map_spilled / 1e9, 2),
                TextTable::num(tuned.map_spilled / 1e9, 2)};
      });
  for (const auto& row : rows) table.add_row(row);
  table.print(std::cout);
}

void single_run_figure(const std::string& figure,
                       const std::vector<ExpeditedApp>& apps) {
  print_preamble(figure, "job execution time, fast single run "
                         "(conservative in-run tuning) vs Default");
  TextTable table({"Benchmark", "Default (s)", "MRONLINE (s)", "Improvement",
                   "Paper"});
  const auto rows = runner().map<std::vector<std::string>>(
      apps.size(), [&](std::size_t i) -> std::vector<std::string> {
        const auto& app = apps[i];
        const RunStats def =
            run_averaged(app.benchmark, app.corpus, JobConfig{});
        const RunStats tuned =
            run_conservative_averaged(app.benchmark, app.corpus);
        return {app.label, TextTable::num(def.exec_secs, 0),
                TextTable::num(tuned.exec_secs, 0),
                TextTable::num(
                    improvement_pct(def.exec_secs, tuned.exec_secs), 1) +
                    "%",
                TextTable::num(app.paper_improvement_pct, 0) + "%"};
      });
  for (const auto& row : rows) table.add_row(row);
  table.print(std::cout);
}

namespace {

struct TenantRun {
  RunStats terasort;
  RunStats bbp;
};

TenantRun run_tenants(const JobConfig& terasort_cfg, const JobConfig& bbp_cfg,
                      std::uint64_t seed) {
  SimulationOptions opt;
  opt.seed = seed;
  opt.fair_scheduler = true;
  apply_obs(opt);
  Simulation sim(opt);
  JobSpec terasort =
      workloads::make_terasort(sim, gibibytes(60), /*num_reduces=*/200);
  terasort.config = terasort_cfg;
  JobSpec bbp = workloads::make_bbp(100);
  bbp.config = bbp_cfg;
  TenantRun out;
  JobResult terasort_result, bbp_result;
  sim.submit_job(std::move(terasort), [&](const JobResult& r) {
    terasort_result = r;
  });
  sim.submit_job(std::move(bbp),
                 [&](const JobResult& r) { bbp_result = r; });
  sim.run();
  export_obs(sim);
  record_report(sim, Benchmark::Terasort, Corpus::Synthetic, "tenants", seed,
                {{&terasort_result, &terasort_cfg}, {&bbp_result, &bbp_cfg}});
  out.terasort = stats_from(terasort_result);
  out.bbp = stats_from(bbp_result);
  return out;
}

}  // namespace

MultiTenantOutcome multi_tenant_experiment() {
  // Aggressive test runs derive each application's configuration
  // (Section 8.5 runs MRONLINE with aggressive tuning first). The two test
  // runs are independent simulations, as is every seeded tenant pair below.
  TuneResult terasort_cfg, bbp_cfg;
  runner().for_each(2, [&](std::size_t i) {
    if (i == 0) {
      terasort_cfg = tune_aggressive(
          workloads::Benchmark::Terasort, workloads::Corpus::Synthetic,
          /*seed=*/77, gibibytes(60), /*terasort_reduces=*/200);
    } else {
      bbp_cfg =
          tune_aggressive(workloads::Benchmark::Bbp, workloads::Corpus::None);
    }
  });

  const auto seeds = repeat_seeds();
  struct SeedRuns {
    TenantRun def, tuned;
  };
  const auto per_seed = runner().map<SeedRuns>(
      seeds.size() * 2, [&](std::size_t i) {
        const auto seed = seeds[i / 2];
        SeedRuns r;
        if (i % 2 == 0) {
          r.def = run_tenants(JobConfig{}, JobConfig{}, seed);
        } else {
          r.tuned = run_tenants(terasort_cfg.config, bbp_cfg.config, seed);
        }
        return r;
      });

  MultiTenantOutcome out;
  std::vector<RunStats> td, tt, bd, bt;
  for (std::size_t i = 0; i < per_seed.size(); i += 2) {
    td.push_back(per_seed[i].def.terasort);
    bd.push_back(per_seed[i].def.bbp);
    tt.push_back(per_seed[i + 1].tuned.terasort);
    bt.push_back(per_seed[i + 1].tuned.bbp);
  }
  out.terasort_default = average(td);
  out.terasort_tuned = average(tt);
  out.bbp_default = average(bd);
  out.bbp_tuned = average(bt);
  return out;
}

void print_preamble(const std::string& figure, const std::string& caption) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), caption.c_str());
  std::printf("(4 repetitions per point, means reported; simulated %d-node "
              "cluster)\n",
              g_cluster.total_slaves() + 1);  // slaves + master
  std::printf("==============================================================\n");
}

}  // namespace mron::bench

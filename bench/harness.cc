#include "bench/harness.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/flags.h"
#include "mapreduce/report_rollup.h"
#include "sim/parallel_runner.h"

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

// --cluster (the 19-node testbed by default) and the fault plan.
SimulationOptions g_base;
int g_jobs = 1;
// Null in bench mains that never parse flags (microbench): no artifacts.
std::unique_ptr<mapreduce::RunExports> g_exports;

/// The shared pool, sized from --jobs at first use; lives for the whole
/// bench process.
sim::ParallelRunner& runner() {
  static sim::ParallelRunner pool(g_jobs);
  return pool;
}

/// Options for one simulation: the harness-wide cluster and fault plan,
/// observed when any artifact is configured.
SimulationOptions sim_options(std::uint64_t seed) {
  SimulationOptions opt = g_base;
  opt.seed = seed;
  if (g_exports != nullptr) g_exports->apply(opt);
  return opt;
}

/// Offer one finished run to the artifact writers. `phase` ranks runs that
/// share a benchmark (e.g. a tuned run above its baseline); the winner is a
/// pure function of the keys, never of worker completion order.
void offer(Simulation& sim, Benchmark b, Corpus c, const std::string& phase,
           const std::vector<std::pair<const JobResult*, const JobConfig*>>&
               report_jobs) {
  if (g_exports == nullptr) return;
  g_exports->offer(sim, phase,
                   {{"benchmark", workloads::benchmark_name(b)},
                    {"corpus", workloads::corpus_name(c)}},
                   report_jobs);
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

int jobs() { return g_jobs; }

void init_obs_from_flags(int argc, char** argv) {
  try {
    const Flags flags(argc, argv);
    const mapreduce::RunFlags run = mapreduce::run_flags(flags);
    g_jobs = run.jobs;
    g_base = run.base;
    g_exports = std::make_unique<mapreduce::RunExports>(flags, false);
    flags.reject_unused();
  } catch (const InputError& e) {
    // Bad input is the user's to fix: one line and exit 2, as mron_cli does.
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

JobResult run_job(Benchmark b, Corpus c, std::uint64_t seed,
                  const std::string& phase,
                  const std::function<JobSpec(Simulation&)>& make) {
  Simulation sim(sim_options(seed));
  JobSpec spec = make(sim);
  const JobConfig cfg = spec.config;
  const JobResult result = sim.run_job(std::move(spec));
  offer(sim, b, c, phase, {{&result, &cfg}});
  return result;
}

RunStats run_plain(Benchmark b, Corpus c, const JobConfig& cfg,
                   std::uint64_t seed, Bytes terasort_bytes,
                   int terasort_reduces) {
  return stats_from(run_job(b, c, seed, "plain", [&](Simulation& sim) {
    JobSpec spec = make_spec(sim, b, c, terasort_bytes, terasort_reduces);
    spec.config = cfg;
    return spec;
  }));
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
  Simulation sim(sim_options(seed));
  JobSpec spec = make_spec(sim, b, c, terasort_bytes, terasort_reduces);
  options.strategy = tuner::TuningStrategy::Aggressive;
  tuner::OnlineTuner online_tuner(options);
  JobResult result;
  auto& am = sim.submit_job(std::move(spec), [&](const JobResult& r) {
    result = r;
  });
  online_tuner.attach(am);
  sim.run();
  const auto& out = online_tuner.outcome(am.id());
  offer(sim, b, c, "tuned", {{&result, &out.best_config}});
  return TuneResult{out.best_config, result.exec_time(), out.waves,
                    out.configs_tried};
}

double improvement_pct(double base, double tuned) {
  return base > 0.0 ? 100.0 * (base - tuned) / base : 0.0;
}

namespace {

/// One run with the conservative tuner riding along (fast single run).
RunStats run_conservative(Benchmark b, Corpus c, std::uint64_t seed) {
  Simulation sim(sim_options(seed));
  JobSpec spec = make_spec(sim, b, c, Bytes(0), -1);
  tuner::TunerOptions topt;
  topt.strategy = tuner::TuningStrategy::Conservative;
  tuner::OnlineTuner online_tuner(topt);
  JobResult result;
  auto& am = sim.submit_job(std::move(spec), [&](const JobResult& r) {
    result = r;
  });
  online_tuner.attach(am);
  sim.run();
  offer(sim, b, c, "conservative",
        {{&result, &online_tuner.outcome(am.id()).best_config}});
  return stats_from(result);
}

RunStats run_conservative_averaged(Benchmark b, Corpus c) {
  const auto seeds = repeat_seeds();
  const std::vector<RunStats> all = runner().map<RunStats>(
      seeds.size(),
      [&](std::size_t i) { return run_conservative(b, c, seeds[i]); });
  return average(all);
}

/// The offline-guide static configuration for a benchmark.
JobConfig offline_config(Benchmark b, Corpus c) {
  SimulationOptions opt;
  opt.cluster = g_base.cluster;
  Simulation sim(opt);
  const JobSpec spec = make_spec(sim, b, c, Bytes(0), -1);
  const int maps =
      spec.input.valid()
          ? static_cast<int>(sim.dfs().dataset(spec.input).blocks.size())
          : spec.num_maps_override;
  return baselines::offline_guide_config(spec, sim.dfs().block_size(), maps);
}

/// Every run one app's figures read, each averaged over the repeat seeds.
struct AppRuns {
  RunStats def, offline, tuned, conservative;
};

AppRuns run_app(const ExpeditedApp& app) {
  const Benchmark b = app.benchmark;
  const Corpus c = app.corpus;
  AppRuns runs;
  runs.def = run_averaged(b, c, JobConfig{});
  runs.offline = run_averaged(b, c, offline_config(b, c));
  runs.tuned = run_averaged(b, c, tune_aggressive(b, c).config);
  runs.conservative = run_conservative_averaged(b, c);
  return runs;
}

std::string improvement_cell(double base, double tuned) {
  return TextTable::num(improvement_pct(base, tuned), 1) + "%";
}

std::string paper_cell(double pct) { return TextTable::num(pct, 0) + "%"; }

std::string spills_cell(double records) {
  return TextTable::num(records / 1e9, 2);
}

}  // namespace

void app_figures(int first_figure, const std::vector<ExpeditedApp>& apps) {
  // Apps are independent experiments: fan them across the worker pool and
  // add their rows to the tables in app order afterwards.
  const auto runs = runner().map<AppRuns>(
      apps.size(), [&](std::size_t i) { return run_app(apps[i]); });
  const auto figure = [&](int offset) {
    return "Figure " + std::to_string(first_figure + offset);
  };

  print_preamble(figure(0), "job execution time, expedited test runs "
                            "(aggressive tuning) vs Default and Offline guide");
  TextTable exec({"Benchmark", "Default (s)", "Offline (s)", "MRONLINE (s)",
                  "Improvement", "Paper"});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const AppRuns& r = runs[i];
    exec.add_row({apps[i].label, TextTable::num(r.def.exec_secs, 0),
                  TextTable::num(r.offline.exec_secs, 0),
                  TextTable::num(r.tuned.exec_secs, 0),
                  improvement_cell(r.def.exec_secs, r.tuned.exec_secs),
                  paper_cell(apps[i].paper_expedited_pct)});
  }
  exec.print(std::cout);

  print_preamble(figure(3),
                 "map-side spill records (1e9) under Optimal / Default / "
                 "Offline guide / MRONLINE");
  TextTable spills({"Benchmark", "Optimal", "Default", "Offline", "MRONLINE"});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const AppRuns& r = runs[i];
    spills.add_row({apps[i].label, spills_cell(r.def.optimal_spilled),
                    spills_cell(r.def.map_spilled),
                    spills_cell(r.offline.map_spilled),
                    spills_cell(r.tuned.map_spilled)});
  }
  spills.print(std::cout);

  print_preamble(figure(6), "job execution time, fast single run "
                            "(conservative in-run tuning) vs Default");
  TextTable single({"Benchmark", "Default (s)", "MRONLINE (s)", "Improvement",
                    "Paper"});
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const AppRuns& r = runs[i];
    single.add_row(
        {apps[i].label, TextTable::num(r.def.exec_secs, 0),
         TextTable::num(r.conservative.exec_secs, 0),
         improvement_cell(r.def.exec_secs, r.conservative.exec_secs),
         paper_cell(apps[i].paper_single_run_pct)});
  }
  single.print(std::cout);
}

namespace {

struct TenantRun {
  RunStats terasort;
  RunStats bbp;
};

TenantRun run_tenants(const JobConfig& terasort_cfg, const JobConfig& bbp_cfg,
                      std::uint64_t seed) {
  SimulationOptions opt = sim_options(seed);
  opt.fair_scheduler = true;
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
  offer(sim, Benchmark::Terasort, Corpus::Synthetic, "tenants",
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
              g_base.cluster.total_slaves() + 1);  // slaves + master
  std::printf("==============================================================\n");
}

}  // namespace mron::bench

// mron_cli — drive any benchmark/strategy combination from the shell.
//
//   mron_cli --app=terasort --size-gb=60 --strategy=aggressive --runs=2
//   mron_cli --app=wordcount --corpus=freebase --strategy=conservative
//   mron_cli --app=bigram --strategy=offline --seed=9
//   mron_cli --app=terasort --strategy=aggressive --trace-out --audit-out
//   mron_cli --list
//
// Strategies:
//   none          plain run on the default YARN configuration
//   conservative  MRONLINE fast-single-run tuning riding along
//   aggressive    one MRONLINE expedited test run, then `--runs` production
//                 executions with the discovered configuration
//   offline       the static offline tuning-guide configuration
//
// Flight recorder: any of --metrics-out[=F] / --trace-out[=F] /
// --audit-out[=F] turns observation on and writes the artifact after the
// last simulation (defaults mron_metrics.json / mron_trace.json /
// mron_audit.jsonl). --trace-detail adds per-phase and shuffle-fetch spans.
//
// --report-out[=F] (default mron_report.json) writes the versioned run
// report (obs/report.h): counter rollups + metric scalars + whole-run time
// series. The exported run is picked by key, not by completion order, so
// the file is byte-identical at any --jobs; under --strategy=aggressive it
// describes the last production run, not the test run.
//
// --profile-out[=F] (default host_profile.json) attaches the host
// self-profiler (obs/host_profile.h) and writes where the *simulator's* own
// wall time and memory went. Host time is nondeterministic, so the profile
// is quarantined in its own file — run reports stay byte-identical with or
// without it. --progress prints a wall-clock-throttled stderr heartbeat
// (events/sec, sim-time, RSS) for long runs; it never touches any artifact.
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "baselines/offline_guide.h"
#include "cluster/cluster_spec.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/log.h"
#include "faults/fault_plan.h"
#include "mapreduce/report_rollup.h"
#include "mapreduce/simulation.h"
#include "obs/report.h"
#include "sim/parallel_runner.h"
#include "tuner/online_tuner.h"
#include "workloads/benchmarks.h"

using namespace mron;

namespace {

/// Largest --size-gb: 64 TiB is 524,288 map tasks of 128 MiB, far from
/// overflowing the int64 byte count or the int map count.
constexpr double kMaxSizeGb = 65536.0;

/// Flight-recorder destinations (empty path = don't write). When any is
/// set, every simulation runs observed; each finished run rewrites the
/// files, so they describe the last simulation of the invocation.
struct ObsConfig {
  std::string metrics_out, trace_out, audit_out, report_out;
  /// Host-profile destination. Deliberately excluded from any(): profiling
  /// must not switch the flight recorder on (and must never perturb the
  /// deterministic exports).
  std::string profile_out;
  bool trace_detail = false;
  bool progress = false;
  [[nodiscard]] bool any() const {
    return !metrics_out.empty() || !trace_out.empty() ||
           !audit_out.empty() || !report_out.empty();
  }
};
ObsConfig g_obs;
// --fault-plan / --fault-spec: applied to every simulation of the
// invocation (test run and production runs alike). Empty = reliable
// cluster.
faults::FaultPlan g_fault_plan;
// --speculative: LATE-style speculative execution on every job.
bool g_speculative = false;
// --cluster=SPEC: the simulated cluster for every run of the invocation.
// Defaults to the paper's 19-node testbed (cluster/cluster_spec.h grammar).
cluster::ClusterSpec g_cluster;
// --dfs-replication: storage layout for every run.
int g_dfs_replication = 3;
// Runs may finish on several pool workers at once; exports stay whole-file.
std::mutex g_obs_mu;
// --report-out destination; keeps the greatest-keyed run, so the exported
// report is a pure function of the flags, never of worker timing.
obs::ReportCollector g_reports;

void apply_obs(mapreduce::SimulationOptions& opt) {
  opt.cluster = g_cluster;
  opt.fault_plan = g_fault_plan;
  opt.dfs_replication = g_dfs_replication;
  opt.host_profile = !g_obs.profile_out.empty();
  opt.progress = g_obs.progress;
  opt.progress_label = "mron_cli";
  if (!g_obs.any()) return;
  opt.observe = true;
  opt.trace_detail = g_obs.trace_detail;
}

void export_obs(mapreduce::Simulation& sim) {
  auto* rec = sim.recorder();
  if (rec == nullptr && sim.host_profiler() == nullptr) return;
  std::lock_guard<std::mutex> lock(g_obs_mu);
  auto write = [](const std::string& path, auto&& writer) {
    if (path.empty()) return;
    std::ofstream out(path);
    MRON_CHECK_MSG(out.good(), "cannot open " << path);
    writer(out);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  };
  if (rec != nullptr) {
    write(g_obs.metrics_out,
          [&](std::ostream& o) { rec->metrics().write_json(o); });
    if (!g_obs.trace_out.empty() && sim.host_profiler() != nullptr) {
      // Optional host-time lane: only profiled traces carry it, so plain
      // traces stay deterministic.
      sim.host_profiler()->emit_trace_track(rec->trace());
    }
    write(g_obs.trace_out,
          [&](std::ostream& o) { rec->trace().write_chrome_json(o); });
    write(g_obs.audit_out,
          [&](std::ostream& o) { rec->audit().write_jsonl(o); });
  }
  write(g_obs.profile_out,
        [&](std::ostream& o) { sim.write_host_profile(o); });
}

struct AppChoice {
  workloads::Benchmark benchmark;
  workloads::Corpus corpus;
};

AppChoice parse_app(const std::string& app, const std::string& corpus) {
  using workloads::Benchmark;
  using workloads::Corpus;
  const Corpus c = corpus == "freebase" ? Corpus::Freebase
                                        : Corpus::Wikipedia;
  if (app == "terasort") return {Benchmark::Terasort, Corpus::Synthetic};
  if (app == "bbp") return {Benchmark::Bbp, Corpus::None};
  if (app == "wordcount" || app == "wc") return {Benchmark::WordCount, c};
  if (app == "bigram") return {Benchmark::Bigram, c};
  if (app == "invertedindex" || app == "ii") {
    return {Benchmark::InvertedIndex, c};
  }
  if (app == "textsearch" || app == "grep") {
    return {Benchmark::TextSearch, c};
  }
  throw InputError("unknown --app=" + app);
}

mapreduce::JobSpec make_spec(mapreduce::Simulation& sim, const AppChoice& app,
                             double size_gb) {
  mapreduce::JobSpec spec =
      app.benchmark == workloads::Benchmark::Terasort && size_gb > 0
          ? workloads::make_terasort(sim, gibibytes(size_gb))
          : workloads::make_job(sim, app.benchmark, app.corpus);
  spec.speculative_execution = g_speculative;
  spec.config.dfs_replication = g_dfs_replication;
  return spec;
}

void print_result(const char* label, const mapreduce::JobResult& r) {
  std::printf("%-14s exec=%8.1f s  maps=%zu reds=%zu  spilled=%.3fe9 "
              "(optimal %.3fe9)  mem-util m/r=%.0f%%/%.0f%%  "
              "cpu-util m/r=%.0f%%/%.0f%%  failed-attempts=%d\n",
              label, r.exec_time(), r.map_reports.size(),
              r.reduce_reports.size(),
              static_cast<double>(r.counters.map.spilled_records) / 1e9,
              static_cast<double>(r.counters.map.combine_output_records) /
                  1e9,
              100 * r.avg_util(mapreduce::TaskKind::Map, false),
              100 * r.avg_util(mapreduce::TaskKind::Reduce, false),
              100 * r.avg_util(mapreduce::TaskKind::Map, true),
              100 * r.avg_util(mapreduce::TaskKind::Reduce, true),
              r.counters.failed_task_attempts);
}

void print_config(const mapreduce::JobConfig& cfg) {
  const auto& reg = mapreduce::ParamRegistry::standard();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    std::printf("  %-48s = %g\n", reg.at(i).name.c_str(), reg.get(cfg, i));
  }
}

/// Offer one finished run to the report collector. `phase` ranks runs of
/// one invocation ("0" = aggressive test run, "1" = production), so the
/// exported file describes the production run with the greatest seed.
void record_report(
    mapreduce::Simulation& sim, const std::string& phase,
    const AppChoice& app, const std::string& strategy, std::uint64_t seed,
    std::vector<std::pair<const mapreduce::JobResult*,
                          const mapreduce::JobConfig*>> report_jobs) {
  if (g_obs.report_out.empty() || report_jobs.empty()) return;
  char seed_buf[32];
  std::snprintf(seed_buf, sizeof(seed_buf), "%020llu",
                static_cast<unsigned long long>(seed));
  const std::vector<std::pair<std::string, std::string>> meta = {
      {"app", workloads::benchmark_name(app.benchmark)},
      {"corpus", workloads::corpus_name(app.corpus)},
      {"strategy", strategy},
      {"run_seed", seed_buf},
  };
  g_reports.offer(
      mapreduce::run_report_key(phase, meta, *report_jobs.front().second),
      mapreduce::run_report_json(sim, report_jobs, meta), g_obs.report_out);
}

/// One "wrote F" note once the collector has exported something.
void note_report_written() {
  if (!g_obs.report_out.empty() && !g_reports.empty()) {
    std::fprintf(stderr, "wrote %s\n", g_obs.report_out.c_str());
  }
}

mapreduce::JobResult run_once(const AppChoice& app, double size_gb,
                              const mapreduce::JobConfig& cfg,
                              std::uint64_t seed, bool fair,
                              const std::string& strategy) {
  mapreduce::SimulationOptions opt;
  opt.seed = seed;
  opt.fair_scheduler = fair;
  apply_obs(opt);
  // A tuned dfs.replication (category I — settable only between runs)
  // flows into the production dataset's placement.
  opt.dfs_replication = static_cast<int>(cfg.dfs_replication);
  mapreduce::Simulation sim(opt);
  mapreduce::JobSpec spec = make_spec(sim, app, size_gb);
  spec.config = cfg;
  mapreduce::JobResult result = sim.run_job(std::move(spec));
  export_obs(sim);
  record_report(sim, /*phase=*/"1", app, strategy, seed, {{&result, &cfg}});
  return result;
}

}  // namespace

int run_cli(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.get("help", false)) {
    std::printf("usage: mron_cli --app=<terasort|wordcount|bigram|"
                "invertedindex|textsearch|bbp> [--corpus=wikipedia|freebase]"
                " [--size-gb=N] [--strategy=none|conservative|aggressive|"
                "offline] [--seed=N] [--runs=N] [--jobs=N] [--fair]"
                " [--show-config]"
                " [--log-level=trace|debug|info|warn|error]"
                " [--metrics-out[=F]] [--trace-out[=F]] [--audit-out[=F]]"
                " [--report-out[=F]] [--profile-out[=F]] [--progress]"
                " [--trace-detail]"
                " [--fault-plan=F] [--fault-spec='directives']"
                " [--speculative] [--cluster=SPEC]"
                " [--dfs-replication=N]\n");
    return 0;
  }
  if (flags.get("list", false)) {
    std::printf("benchmarks (Table 3):\n");
    for (const auto& info : workloads::table3()) {
      std::printf("  %-14s %-10s %6.1f GB in, %6.1f GB shuffle, %d maps, "
                  "%d reducers (%s)\n",
                  info.name.c_str(), info.input_name.c_str(),
                  info.input_size.as_double() / 1e9,
                  info.shuffle_size.as_double() / 1e9, info.num_maps,
                  info.num_reduces, info.job_type.c_str());
    }
    return 0;
  }

  const AppChoice app = parse_app(flags.get("app", std::string("terasort")),
                                  flags.get("corpus", std::string("wikipedia")));
  const double size_gb = flags.get("size-gb", 20.0);
  MRON_INPUT_CHECK(size_gb >= 0.0 && size_gb <= kMaxSizeGb,
                   "--size-gb=" << size_gb << " outside [0, " << kMaxSizeGb
                                << "]");
  // The other apps run their fixed Table-3 input size.
  MRON_INPUT_CHECK(!flags.has("size-gb") ||
                       app.benchmark == workloads::Benchmark::Terasort,
                   "--size-gb applies only to --app=terasort");
  const std::string strategy = flags.get("strategy", std::string("none"));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", 1));
  const int runs = flags.get("runs", 1);
  MRON_INPUT_CHECK(runs >= 0, "--runs wants a non-negative integer");
  const int jobs = flags.get("jobs", 1);
  MRON_INPUT_CHECK(jobs >= 1, "--jobs wants a positive integer");
  mron::sim::ParallelRunner pool(jobs);
  const bool fair = flags.get("fair", false);
  const bool show_config = flags.get("show-config", false);
  const std::string log_level = flags.get("log-level", std::string(""));
  if (!log_level.empty()) {
    LogLevel level = LogLevel::Warn;
    MRON_INPUT_CHECK(log_level_from_name(log_level, level),
                     "unknown --log-level=" << log_level);
    Logger::instance().set_level(level);
  }
  if (flags.has("metrics-out")) {
    g_obs.metrics_out =
        flags.get("metrics-out", std::string("mron_metrics.json"));
  }
  if (flags.has("trace-out")) {
    g_obs.trace_out = flags.get("trace-out", std::string("mron_trace.json"));
  }
  if (flags.has("audit-out")) {
    g_obs.audit_out =
        flags.get("audit-out", std::string("mron_audit.jsonl"));
  }
  if (flags.has("report-out")) {
    g_obs.report_out =
        flags.get("report-out", std::string("mron_report.json"));
  }
  if (flags.has("profile-out")) {
    g_obs.profile_out =
        flags.get("profile-out", std::string("host_profile.json"));
  }
  g_obs.progress = flags.get("progress", false);
  g_obs.trace_detail = flags.get("trace-detail", false);
  const std::string fault_plan_path =
      flags.get("fault-plan", std::string(""));
  const std::string fault_spec = flags.get("fault-spec", std::string(""));
  MRON_INPUT_CHECK(fault_plan_path.empty() || fault_spec.empty(),
                   "--fault-plan and --fault-spec are exclusive");
  if (!fault_plan_path.empty()) {
    g_fault_plan = faults::FaultPlan::load(fault_plan_path);
  } else if (!fault_spec.empty()) {
    g_fault_plan = faults::FaultPlan::parse(fault_spec);
  }
  g_speculative = flags.get("speculative", false);
  const std::string cluster_spec = flags.get("cluster", std::string(""));
  if (!cluster_spec.empty()) {
    g_cluster = cluster::load_cluster_spec(cluster_spec);
  }
  g_dfs_replication = flags.get("dfs-replication", 3);
  MRON_INPUT_CHECK(g_dfs_replication >= 1,
                   "--dfs-replication wants a positive integer");
  // Every flag was read above, so anything left is a typo or a removed
  // option: running on as if it were absent would hide that.
  const auto unknown = flags.unused();
  MRON_INPUT_CHECK(unknown.empty(), "unknown flag --" << unknown.front());

  if (strategy == "none" || strategy == "offline") {
    mapreduce::JobConfig cfg;
    if (strategy == "offline") {
      mapreduce::SimulationOptions opt;
      opt.cluster = g_cluster;
      mapreduce::Simulation sim(opt);
      const mapreduce::JobSpec spec = make_spec(sim, app, size_gb);
      const int maps = spec.input.valid()
                           ? static_cast<int>(
                                 sim.dfs().dataset(spec.input).blocks.size())
                           : spec.num_maps_override;
      cfg = baselines::offline_guide_config(spec, sim.dfs().block_size(),
                                            maps);
    }
    if (show_config) print_config(cfg);
    // Each seeded run is an independent simulation; results print in run
    // order whatever finished first, so output is identical at any --jobs.
    const auto results = pool.map<mapreduce::JobResult>(
        static_cast<std::size_t>(runs), [&](std::size_t i) {
          return run_once(app, size_gb, cfg,
                          seed + static_cast<std::uint64_t>(i), fair,
                          strategy);
        });
    for (const auto& r : results) print_result(strategy.c_str(), r);
    note_report_written();
    return 0;
  }

  if (strategy == "conservative") {
    struct ConservativeRun {
      mapreduce::JobResult result;
      mapreduce::JobConfig best_config;
    };
    const auto results = pool.map<ConservativeRun>(
        static_cast<std::size_t>(runs), [&](std::size_t i) {
          mapreduce::SimulationOptions opt;
          opt.seed = seed + static_cast<std::uint64_t>(i);
          opt.fair_scheduler = fair;
          apply_obs(opt);
          mapreduce::Simulation sim(opt);
          tuner::TunerOptions topt;
          topt.strategy = tuner::TuningStrategy::Conservative;
          tuner::OnlineTuner online_tuner(topt);
          ConservativeRun out;
          auto& am = sim.submit_job(make_spec(sim, app, size_gb),
                                    [&](const mapreduce::JobResult& r) {
                                      out.result = r;
                                    });
          online_tuner.attach(am);
          sim.run();
          export_obs(sim);
          out.best_config = online_tuner.outcome(am.id()).best_config;
          record_report(sim, /*phase=*/"1", app, "conservative", opt.seed,
                        {{&out.result, &out.best_config}});
          return out;
        });
    for (const auto& run : results) {
      print_result("conservative", run.result);
      if (show_config) print_config(run.best_config);
    }
    note_report_written();
    return 0;
  }

  if (strategy == "aggressive") {
    mapreduce::SimulationOptions opt;
    opt.seed = seed;
    apply_obs(opt);
    mapreduce::Simulation sim(opt);
    tuner::OnlineTuner online_tuner{tuner::TunerOptions{}};
    mapreduce::JobResult test_result;
    auto& am = sim.submit_job(
        make_spec(sim, app, size_gb),
        [&](const mapreduce::JobResult& r) { test_result = r; });
    online_tuner.attach(am);
    sim.run();
    export_obs(sim);
    const auto& out = online_tuner.outcome(am.id());
    record_report(sim, /*phase=*/"0", app, "aggressive", seed,
                  {{&test_result, &out.best_config}});
    // The tuner's test run is the one worth inspecting — keep its artifacts
    // instead of letting the production runs below overwrite them. The run
    // report keeps flowing: phase "1" offers outrank the test run's, so it
    // ends up describing a production run (the Figure-7 comparison wants
    // tuned production vs default, not the gated test run).
    const std::string report_out = g_obs.report_out;
    const bool keep_progress = g_obs.progress;
    g_obs = ObsConfig{};
    g_obs.report_out = report_out;
    g_obs.progress = keep_progress;
    std::printf("test run: %.1f s, %d waves, %d configurations\n",
                test_result.exec_time(), out.waves, out.configs_tried);
    if (show_config) print_config(out.best_config);
    const auto results = pool.map<mapreduce::JobResult>(
        static_cast<std::size_t>(runs), [&](std::size_t i) {
          return run_once(app, size_gb, out.best_config,
                          seed + 1 + static_cast<std::uint64_t>(i), fair,
                          "aggressive");
        });
    for (const auto& r : results) print_result("aggressive", r);
    note_report_written();
    return 0;
  }

  throw InputError("unknown --strategy=" + strategy);
}

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const InputError& e) {
    // A bad flag value, --fault-spec, --fault-plan or --cluster is the
    // user's to fix: one line, exit 2.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    // Bad export paths and the like surface as CheckError; a clean message
    // beats an abort for a command-line tool.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

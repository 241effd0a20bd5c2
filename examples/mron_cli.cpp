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
// --audit-out[=F] / --report-out[=F] turns observation on (defaults
// mron_metrics.json / mron_trace.json / mron_audit.jsonl /
// mron_report.json). --trace-detail adds per-phase and shuffle-fetch spans.
// Each file describes one run picked by key, not by completion order
// (mapreduce::RunExports), so it is byte-identical at any --jobs: the
// production run with the greatest seed — except that under
// --strategy=aggressive metrics, trace and audit describe the test run.
//
// --profile-out[=F] (default host_profile.json) attaches the host
// self-profiler (obs/host_profile.h) and writes where the *simulator's* own
// wall time and memory went. Host time is nondeterministic, so the profile
// is quarantined in its own file — run reports stay byte-identical with or
// without it. --progress prints a wall-clock-throttled stderr heartbeat
// (events/sec, sim-time, RSS) for long runs; it never touches any artifact.
// --digest prints one line, digest=<16 hex digits>, a digest of every run
// the invocation made (mapreduce::result_digest, chained in print order,
// an aggressive test run first): tests/golden/sim_digests.txt pins it.
// Bad input (an unknown flag or stray argument, a value flag given bare,
// an unwritable path) prints one "error:" line and exits 2 before any run.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/offline_guide.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/log.h"
#include "mapreduce/report_rollup.h"
#include "mapreduce/simulation.h"
#include "sim/parallel_runner.h"
#include "tuner/online_tuner.h"
#include "workloads/benchmarks.h"

using namespace mron;

namespace {

/// Largest --size-gb: 64 TiB is 524,288 map tasks of 128 MiB, far from
/// overflowing the int64 byte count or the int map count.
constexpr double kMaxSizeGb = 65536.0;
/// Largest --runs: the parallel runner allocates every run's result up
/// front, so an unbounded count is an out-of-memory crash, not a long run.
constexpr int kMaxRuns = 10000;

// What every simulation of the invocation (test run and production runs
// alike) shares: --cluster (the paper's 19-node testbed by default), the
// --fault-plan/--fault-spec plan (empty = reliable), --dfs-replication and
// --progress.
mapreduce::SimulationOptions g_base;
// --speculative: LATE-style speculative execution on every job.
bool g_speculative = false;
// --dfs-replication, also every job's configured value.
int g_dfs_replication = 3;
// Every artifact file, each written from the greatest-keyed run offered, so
// the files are a pure function of the flags, never of worker timing.
std::unique_ptr<mapreduce::RunExports> g_exports;
// Every run's result folded in print order (--digest).
std::uint64_t g_digest = mapreduce::kResultDigestSeed;

/// Options for one simulation of the invocation.
mapreduce::SimulationOptions sim_options(std::uint64_t seed) {
  mapreduce::SimulationOptions opt = g_base;
  opt.seed = seed;
  g_exports->apply(opt);
  return opt;
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
  g_digest = mapreduce::result_digest(r, g_digest);
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

/// Offer one finished run to the artifact writers. `phase` ranks runs of
/// one invocation ("0" = aggressive test run, "1" = production), so the
/// report describes the production run with the greatest seed.
void offer(mapreduce::Simulation& sim, const std::string& phase,
           const AppChoice& app, const std::string& strategy,
           const mapreduce::JobResult& result,
           const mapreduce::JobConfig& config) {
  g_exports->offer(sim, phase,
                   {{"app", workloads::benchmark_name(app.benchmark)},
                    {"corpus", workloads::corpus_name(app.corpus)},
                    {"strategy", strategy}},
                   {{&result, &config}});
}

mapreduce::JobResult run_once(const AppChoice& app, double size_gb,
                              const mapreduce::JobConfig& cfg,
                              std::uint64_t seed, bool fair,
                              const std::string& strategy) {
  mapreduce::SimulationOptions opt = sim_options(seed);
  opt.fair_scheduler = fair;
  // A tuned dfs.replication (category I — settable only between runs)
  // flows into the production dataset's placement.
  opt.dfs_replication = static_cast<int>(cfg.dfs_replication);
  mapreduce::Simulation sim(opt);
  mapreduce::JobSpec spec = make_spec(sim, app, size_gb);
  spec.config = cfg;
  mapreduce::JobResult result = sim.run_job(std::move(spec));
  offer(sim, /*phase=*/"1", app, strategy, result, cfg);
  return result;
}

}  // namespace

/// Every flag mron_cli reads.
constexpr const char* kFlagNames[] = {
    "help",        "list",        "app",          "corpus",
    "size-gb",     "strategy",    "seed",         "runs",
    "jobs",        "fair",        "show-config",  "log-level",
    "metrics-out", "trace-out",   "audit-out",    "report-out",
    "profile-out", "progress",    "trace-detail", "fault-plan",
    "fault-spec",  "speculative", "cluster",      "dfs-replication",
    "digest"};

int run_cli(int argc, char** argv) {
  const Flags flags(argc, argv);
  // Anything else is a typo, a removed option or a stray argument, also
  // under --help and --list: running on as if it were absent would hide
  // that.
  for (const char* name : kFlagNames) (void)flags.has(name);
  flags.reject_unused();
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
                " [--dfs-replication=N] [--digest]\n");
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
  MRON_INPUT_CHECK(runs >= 0 && runs <= kMaxRuns,
                   "--runs=" << runs << " outside [0, " << kMaxRuns << "]");
  const mapreduce::RunFlags run = mapreduce::run_flags(flags);
  g_base = run.base;
  const bool fair = flags.get("fair", false);
  const bool show_config = flags.get("show-config", false);
  const std::string log_level = flags.get("log-level", std::string(""));
  if (!log_level.empty()) {
    LogLevel level = LogLevel::Warn;
    MRON_INPUT_CHECK(log_level_from_name(log_level, level),
                     "unknown --log-level=" << log_level);
    Logger::instance().set_level(level);
  }
  g_exports = std::make_unique<mapreduce::RunExports>(flags, true);
  g_base.progress = flags.get("progress", false);
  g_base.progress_label = "mron_cli";
  g_speculative = flags.get("speculative", false);
  g_dfs_replication = flags.get("dfs-replication", 3);
  MRON_INPUT_CHECK(g_dfs_replication >= 1,
                   "--dfs-replication wants a positive integer");
  g_base.dfs_replication = g_dfs_replication;
  const bool digest = flags.get("digest", false);
  sim::ParallelRunner pool(run.jobs);
  // Once every run has finished: the --digest line, then one "wrote F"
  // line per artifact file.
  auto note_written = [digest] {
    if (digest) {
      std::printf("digest=%016llx\n",
                  static_cast<unsigned long long>(g_digest));
    }
    for (const std::string& path : g_exports->written()) {
      std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
  };

  if (strategy == "none" || strategy == "offline") {
    mapreduce::JobConfig cfg;
    if (strategy == "offline") {
      mapreduce::SimulationOptions opt;
      opt.cluster = g_base.cluster;
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
    note_written();
    return 0;
  }

  if (strategy == "conservative") {
    struct ConservativeRun {
      mapreduce::JobResult result;
      mapreduce::JobConfig best_config;
    };
    const auto results = pool.map<ConservativeRun>(
        static_cast<std::size_t>(runs), [&](std::size_t i) {
          mapreduce::SimulationOptions opt =
              sim_options(seed + static_cast<std::uint64_t>(i));
          opt.fair_scheduler = fair;
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
          out.best_config = online_tuner.outcome(am.id()).best_config;
          offer(sim, /*phase=*/"1", app, "conservative", out.result,
                out.best_config);
          return out;
        });
    for (const auto& run : results) {
      print_result("conservative", run.result);
      if (show_config) print_config(run.best_config);
    }
    note_written();
    return 0;
  }

  if (strategy == "aggressive") {
    mapreduce::Simulation sim(sim_options(seed));
    tuner::OnlineTuner online_tuner{tuner::TunerOptions{}};
    mapreduce::JobResult test_result;
    auto& am = sim.submit_job(
        make_spec(sim, app, size_gb),
        [&](const mapreduce::JobResult& r) { test_result = r; });
    online_tuner.attach(am);
    sim.run();
    const auto& out = online_tuner.outcome(am.id());
    offer(sim, /*phase=*/"0", app, "aggressive", test_result,
          out.best_config);
    g_digest = mapreduce::result_digest(test_result, g_digest);
    // The tuner's test run is the one worth inspecting — keep its artifacts
    // instead of letting the production runs below replace them. The run
    // report keeps flowing: phase "1" offers outrank the test run's, so it
    // ends up describing a production run (the Figure-7 comparison wants
    // tuned production vs default, not the gated test run).
    g_exports->report_only();
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
    note_written();
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
    // An internal check failed; a clean message beats an abort for a
    // command-line tool.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

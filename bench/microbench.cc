// google-benchmark microbenchmarks for the simulator's hot paths: the event
// engine, the processor-sharing server, LHS sampling, the spill model, and
// a small end-to-end job.
//
// Besides the google-benchmark suite, `--baseline-out=FILE` runs a small
// hand-timed baseline suite and writes machine-readable BENCH_engine.json
// (engine events/sec, terasort wall times, and a seeds-by-configs sweep at
// --jobs=1 vs --jobs=N). CI diffs that file against the committed baseline
// with tools/check_perf.py.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/rng.h"
#include "mapreduce/report_rollup.h"
#include "mapreduce/simulation.h"
#include "obs/host_profile.h"
#include "mapreduce/spill_model.h"
#include "sim/engine.h"
#include "sim/parallel_runner.h"
#include "sim/shared_server.h"
#include "tuner/lhs.h"
#include "tuner/online_tuner.h"
#include "whatif/predictor.h"
#include "workloads/benchmarks.h"

using namespace mron;

namespace {

void BM_EngineScheduleDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < 1000; ++i) {
      eng.schedule_at(static_cast<double>(i % 97), [] {});
    }
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleDispatch);

// Schedule/cancel churn: the timeout-heavy pattern (speculation timers,
// heartbeats) where most events never fire. Exercises slot reuse and the
// amortized heap compaction.
void BM_EngineCancelChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < 1000; ++i) {
      auto id = eng.schedule_after(1000.0, [] {});
      eng.schedule_at(static_cast<double>(i % 97), [] {});
      eng.cancel(id);
    }
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_EngineCancelChurn);

/// Queue-churn workload at configurable depth: build `pending` timers
/// spread over an hour of sim-time, run `churn` cancel+reschedule cycles
/// against them (far-future replacements — the timeout pattern), then
/// drain. This is the regime a 10,240-node cluster's heartbeat/speculation
/// timers put the engine in: 1M+ pending heap entries, with tombstones
/// swept by compaction. Returns events dispatched (for DoNotOptimize).
std::int64_t run_queue_churn(int pending, int churn) {
  sim::Engine eng;
  Rng rng(11);
  std::vector<sim::EventId> ids;
  ids.reserve(static_cast<std::size_t>(pending));
  for (int i = 0; i < pending; ++i) {
    ids.push_back(eng.schedule_at(rng.uniform(0.0, 3600.0), [] {}));
  }
  for (int i = 0; i < churn; ++i) {
    const std::size_t victim = static_cast<std::size_t>(i) % ids.size();
    eng.cancel(ids[victim]);
    ids[victim] = eng.schedule_at(3600.0 + rng.uniform(0.0, 3600.0), [] {});
  }
  return eng.run();
}

/// Total queue operations the churn workload performs: schedules (initial
/// population + reschedules), cancels, and dispatches.
constexpr std::int64_t queue_churn_ops(std::int64_t pending,
                                       std::int64_t churn) {
  return 2 * pending + 2 * churn;
}

void BM_EventQueueChurn(benchmark::State& state) {
  const int pending = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_queue_churn(pending, pending / 4));
  }
  state.SetItemsProcessed(state.iterations() *
                          queue_churn_ops(pending, pending / 4));
}
BENCHMARK(BM_EventQueueChurn)
    ->Arg(1 << 14)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);

void BM_SharedServerChurn(benchmark::State& state) {
  const int streams = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    sim::SharedServer srv(eng, 100.0, "srv");
    Rng rng(1);
    for (int i = 0; i < streams; ++i) {
      eng.schedule_at(rng.uniform(0, 10), [&] {
        srv.submit(rng.uniform(1, 50), [] {});
      });
    }
    benchmark::DoNotOptimize(eng.run());
  }
  state.SetItemsProcessed(state.iterations() * streams);
}
BENCHMARK(BM_SharedServerChurn)->Arg(16)->Arg(128)->Arg(1024);

void BM_LhsSampling(benchmark::State& state) {
  auto space = tuner::SearchSpace::map_side(mapreduce::JobConfig{});
  tuner::LhsSampler sampler(24, Rng(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(space, 24));
  }
}
BENCHMARK(BM_LhsSampling);

void BM_MapSpillPlan(benchmark::State& state) {
  const mapreduce::JobConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapreduce::plan_map_spills(
        mebibytes(137), 1'400'000, 1.0, cfg));
  }
}
BENCHMARK(BM_MapSpillPlan);

/// A large what-if probe: 100 GiB terasort, 800 maps. Before the
/// closed-form shuffle kernel each predict() walked all 800 segments
/// through the buffer; now the cost is O(1) in num_maps.
whatif::PredictionInputs whatif_inputs() {
  whatif::PredictionInputs in;
  in.profile = workloads::profile_for(workloads::Benchmark::Terasort,
                                      workloads::Corpus::Synthetic);
  in.input_size = gibibytes(100);
  in.num_maps = 800;
  in.num_reduces = 200;
  return in;
}

void BM_WhatifPredict(benchmark::State& state) {
  auto in = whatif_inputs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(whatif::predict(in).total_secs);
  }
}
BENCHMARK(BM_WhatifPredict);

void BM_ShuffleAddSegmentsClosedForm(benchmark::State& state) {
  const mapreduce::JobConfig cfg;
  const Bytes segment = mebibytes(8);
  for (auto _ : state) {
    mapreduce::ShuffleBufferModel buf(cfg, 100.0);
    benchmark::DoNotOptimize(buf.add_segments(800, segment));
    benchmark::DoNotOptimize(buf.finalize());
  }
  state.SetItemsProcessed(state.iterations() * 800);
}
BENCHMARK(BM_ShuffleAddSegmentsClosedForm);

void BM_ShuffleAddSegmentsIncremental(benchmark::State& state) {
  const mapreduce::JobConfig cfg;
  const Bytes segment = mebibytes(8);
  for (auto _ : state) {
    mapreduce::ShuffleBufferModel buf(cfg, 100.0);
    Bytes flushed{0};
    for (int i = 0; i < 800; ++i) flushed += buf.add_segment(segment);
    benchmark::DoNotOptimize(flushed);
    benchmark::DoNotOptimize(buf.finalize());
  }
  state.SetItemsProcessed(state.iterations() * 800);
}
BENCHMARK(BM_ShuffleAddSegmentsIncremental);

void BM_EndToEndTerasort(benchmark::State& state) {
  const auto gb = state.range(0);
  for (auto _ : state) {
    mapreduce::SimulationOptions opt;
    opt.seed = 3;
    mapreduce::Simulation sim(opt);
    auto spec = workloads::make_terasort(sim, gibibytes(gb));
    benchmark::DoNotOptimize(sim.run_job(std::move(spec)).exec_time());
  }
}
BENCHMARK(BM_EndToEndTerasort)->Arg(2)->Arg(32)->Unit(benchmark::kMillisecond);

// Same job with the cluster monitor sampling every simulated second but
// nothing recorded — the substrate any tuned MRONLINE run pays anyway, and
// the fair baseline for the flight-recorder overhead check below.
void BM_EndToEndTerasortMonitored(benchmark::State& state) {
  const auto gb = state.range(0);
  for (auto _ : state) {
    mapreduce::SimulationOptions opt;
    opt.seed = 3;
    mapreduce::Simulation sim(opt);
    sim.monitor().start();
    auto spec = workloads::make_terasort(sim, gibibytes(gb));
    benchmark::DoNotOptimize(sim.run_job(std::move(spec)).exec_time());
  }
}
BENCHMARK(BM_EndToEndTerasortMonitored)
    ->Arg(2)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// The flight-recorder overhead check: the same end-to-end job with the
// recorder attached (metrics + spans + audit live in memory, no export).
// Compare against the monitored run above. The 2 GB job is a stress case —
// the whole simulation runs in a fraction of a millisecond, so per-tick
// metric sampling looms large; the 32 GB job shows how the fixed sampling
// cost amortizes as simulated work grows.
void BM_EndToEndTerasortObserved(benchmark::State& state) {
  const auto gb = state.range(0);
  for (auto _ : state) {
    mapreduce::SimulationOptions opt;
    opt.seed = 3;
    opt.observe = true;
    mapreduce::Simulation sim(opt);
    auto spec = workloads::make_terasort(sim, gibibytes(gb));
    benchmark::DoNotOptimize(sim.run_job(std::move(spec)).exec_time());
  }
}
BENCHMARK(BM_EndToEndTerasortObserved)
    ->Arg(2)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// The self-profiler overhead check: the observed run plus the host-side
// profiler (rdtsc per dispatched event, per-subsystem attribution, frame
// tree). Compare against the observed run above — the delta is pure
// profiler cost and is what check_perf.py gates at <=2%.
void BM_EndToEndTerasortProfiled(benchmark::State& state) {
  const auto gb = state.range(0);
  for (auto _ : state) {
    mapreduce::SimulationOptions opt;
    opt.seed = 3;
    opt.observe = true;
    opt.host_profile = true;
    mapreduce::Simulation sim(opt);
    auto spec = workloads::make_terasort(sim, gibibytes(gb));
    benchmark::DoNotOptimize(sim.run_job(std::move(spec)).exec_time());
  }
}
BENCHMARK(BM_EndToEndTerasortProfiled)
    ->Arg(2)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// The recorder's export cost: an observed Bigram/Wikipedia run under the
// aggressive tuner (the CLI's kept test run: full audit log, tuner series,
// shuffle-heavy trace) serialized as run report, metrics, trace and audit
// into an in-memory sink. Only the writing is timed; the run happens once.
struct ObservedTuningRun {
  std::unique_ptr<mapreduce::Simulation> sim;
  std::unique_ptr<tuner::OnlineTuner> online;  // attached to sim's job
  mapreduce::JobResult result;
  mapreduce::JobConfig config;
};

/// Runs Bigram/Wikipedia under the aggressive tuner at seed 1 into `run`,
/// which the job's completion callback fills in place.
void run_bigram_aggressive(ObservedTuningRun& run, bool observe) {
  mapreduce::SimulationOptions opt;
  opt.seed = 1;
  opt.observe = observe;
  run.sim = std::make_unique<mapreduce::Simulation>(opt);
  run.online = std::make_unique<tuner::OnlineTuner>(tuner::TunerOptions{});
  auto& am = run.sim->submit_job(
      workloads::make_job(*run.sim, workloads::Benchmark::Bigram,
                          workloads::Corpus::Wikipedia),
      [&run](const mapreduce::JobResult& res) { run.result = res; });
  run.online->attach(am);
  run.sim->run();
  run.config = run.online->outcome(am.id()).best_config;
}

const ObservedTuningRun& observed_tuning_run() {
  static ObservedTuningRun run;
  if (run.sim == nullptr) run_bigram_aggressive(run, /*observe=*/true);
  return run;
}

/// Bytes written by one export of every artifact of `run`.
std::size_t export_run_artifacts(const ObservedTuningRun& run) {
  const std::string report = mapreduce::run_report_json(
      *run.sim, {{&run.result, &run.config}}, {{"source", "microbench"}});
  std::ostringstream sink;
  if (const obs::Recorder* rec = run.sim->recorder()) {
    rec->metrics().write_json(sink);
    rec->trace().write_chrome_json(sink);
    rec->audit().write_jsonl(sink);
  }
  return report.size() + sink.str().size();
}

void BM_ExportRunArtifacts(benchmark::State& state) {
  const ObservedTuningRun& run = observed_tuning_run();
  std::size_t bytes = 0;
  for (auto _ : state) {
    bytes = export_run_artifacts(run);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ExportRunArtifacts)->Unit(benchmark::kMillisecond);

// --- the --baseline-out hand-timed suite -----------------------------------

using Clock = std::chrono::steady_clock;

/// Best-of-`reps` wall time of `fn` in milliseconds.
template <typename Fn>
double best_wall_ms(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const std::chrono::duration<double, std::milli> dt = Clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

double measure_engine_events_per_sec() {
  constexpr int kEvents = 200'000;
  const double ms = best_wall_ms(5, [] {
    sim::Engine eng;
    for (int i = 0; i < kEvents; ++i) {
      eng.schedule_at(static_cast<double>(i % 97), [] {});
    }
    benchmark::DoNotOptimize(eng.run());
  });
  return kEvents / (ms / 1e3);
}

/// Engine churn ops/sec at 1M+ pending events, gated by check_perf.py.
double measure_queue_churn_events_per_sec() {
  constexpr int kPending = 1 << 20;  // 1,048,576 pending timers
  constexpr int kChurn = 1 << 18;
  const double ms = best_wall_ms(3, [&] {
    benchmark::DoNotOptimize(run_queue_churn(kPending, kChurn));
  });
  return static_cast<double>(queue_churn_ops(kPending, kChurn)) / (ms / 1e3);
}

double measure_terasort_wall_ms(int gb, int reps) {
  return best_wall_ms(reps, [&] {
    mapreduce::SimulationOptions opt;
    opt.seed = 3;
    mapreduce::Simulation sim(opt);
    auto spec = workloads::make_terasort(sim, gibibytes(gb));
    benchmark::DoNotOptimize(sim.run_job(std::move(spec)).exec_time());
  });
}

/// Per-phase host walls captured from the profiler on the last rep of the
/// profiled terasort measurement.
struct ProfiledWalls {
  double setup_ms = 0.0;
  double steady_ms = 0.0;
};

/// Observed terasort wall, optionally with the host self-profiler attached.
/// Observed (not plain) is the fair baseline: the profiler only ever runs
/// alongside the recorder, so the gated delta must isolate profiler cost.
double measure_terasort_observed_wall_ms(int gb, int reps, bool profiled,
                                         ProfiledWalls* walls = nullptr) {
  return best_wall_ms(reps, [&] {
    mapreduce::SimulationOptions opt;
    opt.seed = 3;
    opt.observe = true;
    opt.host_profile = profiled;
    mapreduce::Simulation sim(opt);
    auto spec = workloads::make_terasort(sim, gibibytes(gb));
    benchmark::DoNotOptimize(sim.run_job(std::move(spec)).exec_time());
    if (walls != nullptr) {
      if (const auto* hp = sim.host_profiler()) {
        walls->setup_ms = hp->phase_wall_ns(obs::HostPhase::kSetup) / 1e6;
        walls->steady_ms = hp->phase_wall_ns(obs::HostPhase::kSteady) / 1e6;
      }
    }
  });
}

/// The self-profiler overhead pair: observed vs observed+profiled at the
/// 32 GB steady-state job. Returns the overhead percentage and fills the
/// raw walls; also captures the profiled run's setup/steady host split.
/// Estimator: median of per-pair deltas over back-to-back (observed,
/// profiled) pairs. Adjacent runs share the host's thermal/frequency
/// state, so each delta cancels slow drift that min-over-reps cannot
/// (a shifting fast-floor on a virtualized box moves both sides of a
/// min-based estimate independently); best-of-2 inside each side clips
/// descheduling spikes, the pair order alternates so periodic host
/// interference cannot phase-lock onto one side, and the median then
/// shrugs off whatever survives. ~60 reps x ~30ms keeps this under 2s.
double measure_profile_overhead_pct(double* observed_ms, double* profiled_ms,
                                    ProfiledWalls* walls) {
  constexpr int kPairs = 15;
  std::vector<double> obs(kPairs);
  std::vector<double> deltas(kPairs);
  for (int i = 0; i < kPairs; ++i) {
    double prof_ms = 0.0;
    if (i % 2 == 0) {
      obs[i] = measure_terasort_observed_wall_ms(32, 2, false);
      prof_ms = measure_terasort_observed_wall_ms(32, 2, true, walls);
    } else {
      prof_ms = measure_terasort_observed_wall_ms(32, 2, true, walls);
      obs[i] = measure_terasort_observed_wall_ms(32, 2, false);
    }
    deltas[i] = prof_ms - obs[i];
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  *observed_ms = median(obs);
  *profiled_ms = *observed_ms + median(deltas);
  if (*observed_ms <= 0.0) return 0.0;
  return 100.0 * (*profiled_ms - *observed_ms) / *observed_ms;
}

/// Eight configurations spanning the map-side and reduce-side knobs, the
/// shape of a small tuning sweep.
std::vector<mapreduce::JobConfig> sweep_configs() {
  std::vector<mapreduce::JobConfig> configs(8);
  configs[1].io_sort_mb = 256;
  configs[2].sort_spill_percent = 0.95;
  configs[3].map_memory_mb = 2048;
  configs[4].reduce_memory_mb = 2048;
  configs[5].reduce_input_buffer_percent = 0.6;
  configs[6].merge_inmem_threshold = 0;
  configs[7].io_sort_factor = 64;
  for (auto& cfg : configs) mapreduce::clamp_constraints(cfg);
  return configs;
}

/// Runs the 4-seed x 8-config terasort sweep through a pool with `jobs`
/// workers; returns wall ms and the per-run exec times (task-index order,
/// so identical at any jobs value).
double run_sweep_ms(int jobs, std::vector<double>* exec_secs) {
  const auto seeds = bench::repeat_seeds();
  const auto configs = sweep_configs();
  const std::size_t n = seeds.size() * configs.size();
  sim::ParallelRunner pool(jobs);
  const auto t0 = Clock::now();
  *exec_secs = pool.map<double>(n, [&](std::size_t i) {
    const auto& cfg = configs[i / seeds.size()];
    const auto seed = seeds[i % seeds.size()];
    return bench::run_plain(workloads::Benchmark::Terasort,
                            workloads::Corpus::Synthetic, cfg, seed,
                            gibibytes(8))
        .exec_secs;
  });
  const std::chrono::duration<double, std::milli> dt = Clock::now() - t0;
  return dt.count();
}

double measure_whatif_evals_per_sec() {
  constexpr int kEvals = 20'000;
  auto in = whatif_inputs();
  const double ms = best_wall_ms(5, [&] {
    double acc = 0.0;
    for (int i = 0; i < kEvals; ++i) {
      // Vary one knob so the loop probes distinct configurations.
      in.config.io_sort_mb = 50 + (i % 64) * 4;
      acc += whatif::predict(in).total_secs;
    }
    benchmark::DoNotOptimize(acc);
  });
  return kEvals / (ms / 1e3);
}

/// Fixed-budget optimize_with_model search; returns best-of-3 wall ms and
/// stores the winning config. The same (seed, restarts, evaluations) must
/// produce the same winner regardless of worker count.
double measure_whatif_search_ms(int jobs, mapreduce::JobConfig* winner) {
  const auto in = whatif_inputs();
  return best_wall_ms(3, [&] {
    *winner = whatif::optimize_with_model(in, /*evaluations=*/6000,
                                          /*seed=*/4, /*restarts=*/4, jobs);
  });
}

int run_baseline_suite(const std::string& out_path, int jobs) {
  if (jobs <= 0) {
    jobs = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  const double events_per_sec = measure_engine_events_per_sec();
  const double queue_churn = measure_queue_churn_events_per_sec();
  const double terasort2_ms = measure_terasort_wall_ms(2, 5);
  const double terasort32_ms = measure_terasort_wall_ms(32, 3);

  // Host self-profiler overhead on the steady-state job.
  double observed32_ms = 0.0, profiled32_ms = 0.0;
  ProfiledWalls walls;
  const double profile_overhead_pct =
      measure_profile_overhead_pct(&observed32_ms, &profiled32_ms, &walls);

  std::vector<double> serial_runs, parallel_runs;
  run_sweep_ms(1, &serial_runs);  // warmup (page cache, allocator arenas)
  double sweep_serial_ms = std::numeric_limits<double>::infinity();
  double sweep_parallel_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    sweep_serial_ms = std::min(sweep_serial_ms, run_sweep_ms(1, &serial_runs));
    sweep_parallel_ms =
        std::min(sweep_parallel_ms, run_sweep_ms(jobs, &parallel_runs));
  }
  if (serial_runs != parallel_runs) {
    std::cerr << "FATAL: sweep results differ between --jobs=1 and --jobs="
              << jobs << "; the determinism contract is broken\n";
    return 1;
  }
  const double speedup = sweep_serial_ms / sweep_parallel_ms;
  const double efficiency = speedup / jobs;

  // Candidate-evaluation path: raw model throughput plus a fixed-budget
  // search. The winner must be byte-identical serial and parallel — a
  // mismatch means fan-out changed results, which is a hard failure.
  const double whatif_evals_per_sec = measure_whatif_evals_per_sec();
  mapreduce::JobConfig w_serial, w_wide;
  const double search_ms = measure_whatif_search_ms(1, &w_serial);
  measure_whatif_search_ms(std::max(jobs, 4), &w_wide);
  if (!(w_serial == w_wide)) {
    std::cerr << "FATAL: optimize_with_model winner differs between --jobs=1"
                 " and --jobs=" << std::max(jobs, 4) << "\n";
    return 1;
  }

  const ObservedTuningRun& tuning_run = observed_tuning_run();
  const double export_ms = best_wall_ms(5, [&] {
    benchmark::DoNotOptimize(export_run_artifacts(tuning_run));
  });

  // The same Bigram aggressive run plain and observed, interleaved: the
  // recorder's surcharge on a shuffle-heavy tuning run.
  double bigram_plain_ms = std::numeric_limits<double>::infinity();
  double bigram_observed_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    for (const bool observe : {false, true}) {
      double& best = observe ? bigram_observed_ms : bigram_plain_ms;
      best = std::min(best, best_wall_ms(1, [&] {
                        ObservedTuningRun run;
                        run_bigram_aggressive(run, observe);
                      }));
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  char buf[256];
  out << "{\n";
  out << "  \"schema\": 4,\n";
#ifdef NDEBUG
  out << "  \"build\": \"release\",\n";
#else
  out << "  \"build\": \"debug\",\n";
#endif
  out << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n";
  out << "  \"sweep_jobs\": " << jobs << ",\n";
  out << "  \"metrics\": {\n";
  std::snprintf(buf, sizeof buf,
                "    \"engine_events_per_sec\": %.0f,\n", events_per_sec);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "    \"queue_churn_1m_events_per_sec\": %.0f,\n", queue_churn);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "    \"terasort_2gb_wall_ms\": %.3f,\n", terasort2_ms);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "    \"terasort_32gb_wall_ms\": %.3f,\n", terasort32_ms);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "    \"terasort_32gb_observed_wall_ms\": %.3f,\n",
                observed32_ms);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "    \"terasort_32gb_profiled_wall_ms\": %.3f,\n",
                profiled32_ms);
  out << buf;
  std::snprintf(buf, sizeof buf, "    \"profile_overhead_pct\": %.3f,\n",
                profile_overhead_pct);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "    \"profiled_setup_wall_ms\": %.3f,\n", walls.setup_ms);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "    \"profiled_steady_wall_ms\": %.3f,\n", walls.steady_ms);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "    \"sweep_serial_wall_ms\": %.3f,\n", sweep_serial_ms);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "    \"sweep_parallel_wall_ms\": %.3f,\n", sweep_parallel_ms);
  out << buf;
  std::snprintf(buf, sizeof buf, "    \"sweep_speedup\": %.3f,\n", speedup);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "    \"sweep_efficiency_per_core\": %.3f,\n", efficiency);
  out << buf;
  std::snprintf(buf, sizeof buf, "    \"whatif_evals_per_sec\": %.0f,\n",
                whatif_evals_per_sec);
  out << buf;
  // The search has no cache; the "uncached" key name is kept so the
  // committed baseline still gates it.
  std::snprintf(buf, sizeof buf,
                "    \"whatif_search_uncached_wall_ms\": %.3f,\n", search_ms);
  out << buf;
  std::snprintf(buf, sizeof buf, "    \"export_artifacts_wall_ms\": %.3f,\n",
                export_ms);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "    \"bigram_aggressive_wall_ms\": %.3f,\n", bigram_plain_ms);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "    \"bigram_aggressive_observed_wall_ms\": %.3f\n",
                bigram_observed_ms);
  out << buf;
  out << "  }\n";
  out << "}\n";
  out.close();
  std::cout << "wrote " << out_path << " (events/sec=" << events_per_sec
            << ", queue churn=" << queue_churn
            << ", terasort32=" << terasort32_ms << " ms, profile overhead "
            << profile_overhead_pct << "%, sweep speedup x"
            << speedup << " at jobs=" << jobs << ", whatif evals/sec="
            << whatif_evals_per_sec << ", search " << search_ms
            << " ms, export " << export_ms << " ms)\n";
  return 0;
}

/// Quick mode for the CI profile job: measure ONLY the self-profiler
/// overhead pair and write a minimal schema-4 BENCH json carrying the
/// profile_* metrics. check_perf.py's relative gates SKIP metrics absent on
/// either side, so this file diffs cleanly against the full committed
/// baseline while `--profile-overhead-max` applies its absolute gate.
int run_profile_overhead_suite(const std::string& out_path) {
  double observed32_ms = 0.0, profiled32_ms = 0.0;
  ProfiledWalls walls;
  const double overhead_pct =
      measure_profile_overhead_pct(&observed32_ms, &profiled32_ms, &walls);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  char buf[256];
  out << "{\n";
  out << "  \"schema\": 4,\n";
#ifdef NDEBUG
  out << "  \"build\": \"release\",\n";
#else
  out << "  \"build\": \"debug\",\n";
#endif
  out << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n";
  out << "  \"metrics\": {\n";
  std::snprintf(buf, sizeof buf,
                "    \"terasort_32gb_observed_wall_ms\": %.3f,\n",
                observed32_ms);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "    \"terasort_32gb_profiled_wall_ms\": %.3f,\n",
                profiled32_ms);
  out << buf;
  std::snprintf(buf, sizeof buf, "    \"profile_overhead_pct\": %.3f,\n",
                overhead_pct);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "    \"profiled_setup_wall_ms\": %.3f,\n", walls.setup_ms);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "    \"profiled_steady_wall_ms\": %.3f\n", walls.steady_ms);
  out << buf;
  out << "  }\n";
  out << "}\n";
  out.close();
  std::cout << "wrote " << out_path << " (observed=" << observed32_ms
            << " ms, profiled=" << profiled32_ms << " ms, overhead "
            << overhead_pct << "%)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_out;
  std::string profile_overhead_out;
  int jobs = 0;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--baseline-out=", 0) == 0) {
      baseline_out = arg.substr(15);
    } else if (arg.rfind("--profile-overhead-out=", 0) == 0) {
      profile_overhead_out = arg.substr(23);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      jobs = std::atoi(arg.c_str() + 7);
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (!baseline_out.empty()) return run_baseline_suite(baseline_out, jobs);
  if (!profile_overhead_out.empty()) {
    return run_profile_overhead_suite(profile_overhead_out);
  }
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

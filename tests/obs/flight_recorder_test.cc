// End-to-end flight-recorder checks: the invariants that make the exported
// artifacts trustworthy. Task spans match the attempt reports, wave spans
// match the tuner's wave count, every configuration the aggressive search
// tried has a config_assign audit event, and the conservative tuner logs a
// rule_fire per Section-6 rule firing. The recorder's cost grows with
// tasks: the critical-path DAG keeps a bounded number of edges per task
// attempt, and the AM's wave-progress samples come from counters that
// match a recount of its task state at every flush.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "faults/fault_plan.h"
#include "mapreduce/simulation.h"
#include "obs/recorder.h"
#include "tuner/online_tuner.h"
#include "workloads/benchmarks.h"

namespace mron::tuner {
namespace {

using mapreduce::JobConfig;
using mapreduce::JobResult;
using mapreduce::JobSpec;
using mapreduce::Simulation;
using mapreduce::SimulationOptions;

JobSpec small_terasort(Simulation& sim, int blocks = 120) {
  return workloads::make_terasort(sim, mebibytes(128.0 * blocks),
                                  std::max(4, blocks / 4));
}

TunerOptions small_options(TuningStrategy strategy) {
  TunerOptions opt;
  opt.strategy = strategy;
  opt.climber.global_samples = 8;
  opt.climber.local_samples = 6;
  opt.climber.max_global_rounds = 2;
  return opt;
}

TEST(FlightRecorder, OffByDefault) {
  SimulationOptions sopt;
  sopt.seed = 31;
  Simulation sim(sopt);
  EXPECT_EQ(sim.recorder(), nullptr);
  const JobResult r = sim.run_job(small_terasort(sim, 16));
  EXPECT_GT(r.exec_time(), 0.0);
}

TEST(FlightRecorder, PlainRunPublishesMetricsAndTaskSpans) {
  SimulationOptions sopt;
  sopt.seed = 32;
  sopt.observe = true;
  Simulation sim(sopt);
  const JobResult r = sim.run_job(small_terasort(sim, 40));
  ASSERT_NE(sim.recorder(), nullptr);
  const auto& rec = *sim.recorder();

  // Substrate metrics: server gauges, monitor samples, YARN counters, task
  // counters all present.
  const auto& m = rec.metrics();
  EXPECT_GT(m.value("monitor.samples"), 0.0);
  EXPECT_TRUE(m.has("cluster.node0.cpu_util"));
  EXPECT_GT(m.value("yarn.containers_allocated"), 0.0);
  EXPECT_GT(m.value("mr.map.spills"), 0.0);
  EXPECT_GT(m.value("mr.shuffle.fetches"), 0.0);
  // The monitor pushes each entity's occupancy series exactly once per
  // tick, so a node's offer count is the tick count.
  const auto* cpu = rec.series().find("cluster.node0.cpu_util");
  ASSERT_NE(cpu, nullptr);
  EXPECT_EQ(static_cast<double>(cpu->offered()), m.value("monitor.samples"));

  // Without trace detail there is exactly one span per task attempt;
  // speculative kills close their spans but file no report.
  const std::size_t attempts = r.map_reports.size() + r.reduce_reports.size() +
                               static_cast<std::size_t>(r.speculative_launches);
  EXPECT_EQ(rec.trace().span_count("task"), attempts);
  EXPECT_EQ(rec.trace().span_count("phase"), 0u);
  EXPECT_EQ(rec.trace().open_spans(), 0u);
}

TEST(FlightRecorder, CriticalPathEdgesGrowWithTasksNotMapsTimesReducers) {
  SimulationOptions sopt;
  sopt.seed = 33;
  sopt.observe = true;
  Simulation sim(sopt);
  // 120 maps x 30 reducers: an edge per delivery would be 3,600 edges.
  const JobResult r = sim.run_job(small_terasort(sim, 120));
  const std::size_t maps = 120;
  const std::size_t reduces = 30;
  const std::size_t attempts = r.map_reports.size() + r.reduce_reports.size() +
                               static_cast<std::size_t>(r.speculative_launches);
  const std::size_t edges = sim.recorder()->critical_path().edge_count();
  EXPECT_GT(edges, 0u);
  EXPECT_LT(edges, 4 * (maps + reduces + attempts));
  EXPECT_LT(edges, maps * reduces);
}

TEST(FlightRecorder, WaveCountersMatchARecountAtEveryFlush) {
  SimulationOptions sopt;
  sopt.seed = 34;
  sopt.observe = true;
  sopt.cluster.num_slaves = 6;
  sopt.cluster.rack_sizes = {3, 3};
  // Node 1 dies in the first map wave and node 4 once every node runs
  // reducers, killing running maps and reducers; both come back later.
  sopt.fault_plan = faults::FaultPlan::parse(
      "seed 34\nheartbeat period=0.5 timeout=2\n"
      "crash node=1 at=15 restart=60\ncrash node=4 at=130 restart=170");
  Simulation sim(sopt);
  JobSpec spec = small_terasort(sim, 48);
  spec.noise_cv = 1.0;  // stragglers, so backups run beside originals
  spec.speculative_execution = true;
  mapreduce::MrAppMaster& am = sim.submit_job(std::move(spec));
  const std::string prefix = "job" + std::to_string(am.id().value()) + ".";
  const obs::Series* maps_running =
      sim.recorder()->series().find(prefix + "maps_running");
  const obs::Series* reduces_running =
      sim.recorder()->series().find(prefix + "reduces_running");
  ASSERT_NE(maps_running, nullptr);
  ASSERT_NE(reduces_running, nullptr);
  // The last sample a hook pushed, if the series kept it.
  auto last_pushed = [](const obs::Series& s, double* v) {
    if ((s.offered() - 1) % s.stride() != 0) return false;
    *v = s.at(s.size() - 1).value;
    return true;
  };
  int checked = 0;
  int max_maps = 0;
  int max_reduces = 0;
  // Registered after the AM's hook, so it sees this flush's samples.
  sim.recorder()->add_flush_hook([&] {
    int maps = 0;
    int reduces = 0;
    for (int i = 0; i < am.num_maps(); ++i) {
      maps += am.attempt_running({mapreduce::TaskKind::Map, i}) ? 1 : 0;
    }
    for (int i = 0; i < am.num_reduces(); ++i) {
      reduces += am.attempt_running({mapreduce::TaskKind::Reduce, i}) ? 1 : 0;
    }
    double v = 0.0;
    if (last_pushed(*maps_running, &v)) {
      EXPECT_EQ(v, maps) << "at t=" << sim.engine().now();
      ++checked;
    }
    if (last_pushed(*reduces_running, &v)) {
      EXPECT_EQ(v, reduces) << "at t=" << sim.engine().now();
    }
    max_maps = std::max(max_maps, maps);
    max_reduces = std::max(max_reduces, reduces);
  });
  sim.run();
  ASSERT_TRUE(am.finished());
  EXPECT_GT(checked, 20);
  EXPECT_GT(max_maps, 0);
  EXPECT_GT(max_reduces, 0);
  EXPECT_EQ(sim.fault_injector()->stats().crashes, 2);
}

TEST(FlightRecorder, TraceDetailAddsPhaseSpans) {
  SimulationOptions sopt;
  sopt.seed = 33;
  sopt.observe = true;
  sopt.trace_detail = true;
  Simulation sim(sopt);
  (void)sim.run_job(small_terasort(sim, 24));
  const auto& trace = sim.recorder()->trace();
  EXPECT_GT(trace.span_count("phase"), 0u);
  EXPECT_EQ(trace.open_spans(), 0u);
}

TEST(FlightRecorder, AggressiveAuditMatchesOutcome) {
  SimulationOptions sopt;
  sopt.seed = 34;
  sopt.observe = true;
  Simulation sim(sopt);
  JobSpec spec = small_terasort(sim);
  OnlineTuner tuner(small_options(TuningStrategy::Aggressive));
  JobResult result;
  auto& am = sim.submit_job(spec, [&](const JobResult& r) { result = r; });
  tuner.attach(am);
  sim.run();

  const auto& out = tuner.outcome(am.id());
  ASSERT_NE(out.decisions, nullptr);
  const std::int64_t job = am.id().value();

  // Every configuration the search tried has its config_assign event.
  EXPECT_GT(out.configs_tried, 0);
  EXPECT_EQ(out.decisions->count(job, "config_assign"),
            static_cast<std::size_t>(out.configs_tried));
  // One wave span per wave, on the tuner's synthetic trace process.
  EXPECT_EQ(sim.recorder()->trace().span_count("tuner"),
            static_cast<std::size_t>(out.waves));
  // One task span per attempt (killed speculative backups report nothing).
  const std::size_t attempts =
      result.map_reports.size() + result.reduce_reports.size() +
      static_cast<std::size_t>(result.speculative_launches);
  EXPECT_EQ(sim.recorder()->trace().span_count("task"), attempts);
  EXPECT_EQ(sim.recorder()->trace().open_spans(), 0u);

  // The decision flow is bracketed: attach, then waves, then finalize.
  EXPECT_EQ(out.decisions->count(job, "attach"), 1u);
  EXPECT_GE(out.decisions->count(job, "wave_start"),
            out.decisions->count(job, "wave_complete"));
  EXPECT_EQ(out.decisions->count(job, "finalize"), 2u);  // map + reduce
  EXPECT_GT(out.decisions->count(job, "climber_step"), 0u);

  // The exports are structurally sound JSON.
  std::ostringstream trace_os, audit_os;
  sim.recorder()->trace().write_chrome_json(trace_os);
  sim.recorder()->audit().write_jsonl(audit_os);
  int depth = 0;
  for (char ch : trace_os.str()) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(audit_os.str().find("\"kind\":\"config_assign\""),
            std::string::npos);
}

TEST(FlightRecorder, ConservativeAuditsEveryRuleFiring) {
  SimulationOptions sopt;
  sopt.seed = 35;
  sopt.observe = true;
  Simulation sim(sopt);
  JobSpec spec = small_terasort(sim, 200);
  OnlineTuner tuner(small_options(TuningStrategy::Conservative));
  auto& am = sim.submit_job(spec);
  tuner.attach(am);
  sim.run();

  const auto& out = tuner.outcome(am.id());
  ASSERT_NE(out.decisions, nullptr);
  const std::int64_t job = am.id().value();
  ASSERT_GT(out.conservative_adjustments, 0);
  EXPECT_EQ(out.decisions->count(job, "conservative_adjust"),
            static_cast<std::size_t>(out.conservative_adjustments));
  // Each adjustment is justified by at least one named Section-6 rule.
  EXPECT_GE(out.decisions->count(job, "rule_fire"),
            out.decisions->count(job, "conservative_adjust"));
  // Category-III pushes into running tasks leave config_push events.
  EXPECT_GT(out.decisions->count(job, "config_push"), 0u);
  // No aggressive machinery ran.
  EXPECT_EQ(out.decisions->count(job, "wave_start"), 0u);
}

TEST(FlightRecorder, AuditLogFiltersByJob) {
  SimulationOptions sopt;
  sopt.seed = 36;
  sopt.observe = true;
  sopt.fair_scheduler = true;
  Simulation sim(sopt);
  OnlineTuner tuner(small_options(TuningStrategy::Conservative));
  auto& am_a = sim.submit_job(small_terasort(sim, 80));
  auto& am_b = sim.submit_job(workloads::make_bbp(20));
  tuner.attach(am_a);
  tuner.attach(am_b);
  sim.run();

  const auto& audit = sim.recorder()->audit();
  EXPECT_EQ(audit.count(am_a.id().value(), "attach"), 1u);
  EXPECT_EQ(audit.count(am_b.id().value(), "attach"), 1u);
  const auto a_events = audit.for_job(am_a.id().value());
  for (const auto* ev : a_events) {
    EXPECT_EQ(ev->job, am_a.id().value());
  }
  EXPECT_EQ(audit.count(-1, "attach"), 2u);
}

}  // namespace
}  // namespace mron::tuner

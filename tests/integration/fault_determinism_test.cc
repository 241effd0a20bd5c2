// Fault-run determinism A/B: the acceptance contract from FAULTS.md.
// The same plan + seed must reproduce the run exactly — including every
// injected failure, retry, and speculative race — and under observation the
// exported run report must be byte-identical. A different plan seed must
// change the injection pattern.
#include <gtest/gtest.h>

#include <string>

#include "cluster/cluster_spec.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "mapreduce/report_rollup.h"
#include "mapreduce/simulation.h"
#include "workloads/benchmarks.h"

namespace mron::mapreduce {
namespace {

const char* kPlan =
    "seed 21\n"
    "heartbeat period=0.5 timeout=3\n"
    "taskfail prob=0.05\n"
    "crash node=2 at=45 restart=80\n"
    "degrade node=3 from=5 until=120 disk=0.1 nic=0.3\n";

struct RunOutcome {
  JobResult result;
  faults::FaultStats stats;
  std::string report;  // empty unless built with observation on
};

RunOutcome run_once(std::uint64_t plan_seed, bool observe) {
  SimulationOptions opt;
  opt.cluster = cluster::scaled_spec(6, 3);
  opt.seed = 17;
  opt.observe = observe;
  opt.fault_plan = faults::FaultPlan::parse(kPlan);
  opt.fault_plan.seed = plan_seed;
  Simulation sim(opt);
  JobSpec spec = workloads::make_terasort(sim, mebibytes(128.0 * 24), 6);
  spec.speculative_execution = true;
  const JobConfig config = spec.config;
  RunOutcome out;
  sim.submit_job(std::move(spec),
                 [&](const JobResult& r) { out.result = r; });
  sim.run();
  out.stats = sim.fault_injector()->stats();
  if (observe) {
    out.report = run_report_json(sim, {{&out.result, &config}},
                                 {{"app", "terasort"}, {"faulted", "1"}});
  }
  return out;
}

TEST(FaultDeterminism, SamePlanSameSeedReproducesTheRunExactly) {
  const RunOutcome a = run_once(21, false);
  const RunOutcome b = run_once(21, false);
  EXPECT_DOUBLE_EQ(a.result.finish_time, b.result.finish_time);
  EXPECT_EQ(a.result.injected_failures, b.result.injected_failures);
  EXPECT_EQ(a.result.lost_maps_reexecuted, b.result.lost_maps_reexecuted);
  EXPECT_EQ(a.result.speculative_launches, b.result.speculative_launches);
  EXPECT_EQ(a.result.speculative_wins, b.result.speculative_wins);
  EXPECT_EQ(a.stats.injected_task_failures, b.stats.injected_task_failures);
  EXPECT_EQ(a.stats.crashes, b.stats.crashes);
  EXPECT_EQ(a.stats.restarts, b.stats.restarts);
  ASSERT_EQ(a.result.map_reports.size(), b.result.map_reports.size());
  for (std::size_t i = 0; i < a.result.map_reports.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.result.map_reports[i].start_time,
                     b.result.map_reports[i].start_time);
    EXPECT_DOUBLE_EQ(a.result.map_reports[i].end_time,
                     b.result.map_reports[i].end_time);
    EXPECT_EQ(a.result.map_reports[i].node.value(),
              b.result.map_reports[i].node.value());
  }
  // The faulted run actually exercised recovery, not a clean pass.
  EXPECT_EQ(a.stats.crashes, 1);
  EXPECT_GT(a.result.injected_failures + a.result.lost_maps_reexecuted, 0);
}

TEST(FaultDeterminism, DifferentPlanSeedsChangeTheInjectionPattern) {
  const RunOutcome a = run_once(21, false);
  const RunOutcome b = run_once(1021, false);
  // Crash/degrade schedules are fixed by the plan; only the hash draws
  // move. With prob=0.05 over ~30 tasks the two seeds must not reproduce
  // the identical run.
  const bool identical =
      a.result.injected_failures == b.result.injected_failures &&
      a.result.finish_time == b.result.finish_time;
  EXPECT_FALSE(identical);
  EXPECT_EQ(b.stats.crashes, 1);  // planned events unchanged
}

TEST(FaultDeterminism, RunReportIsByteIdenticalAcrossRepeats) {
  const RunOutcome a = run_once(21, true);
  const RunOutcome b = run_once(21, true);
  ASSERT_FALSE(a.report.empty());
  EXPECT_EQ(a.report, b.report);
  // The report carries the schema/2 faults block with the planned crash.
  EXPECT_NE(a.report.find("\"schema\":\"mron.run_report/4\""),
            std::string::npos);
  EXPECT_NE(a.report.find("\"faults\":"), std::string::npos);
  EXPECT_NE(a.report.find("\"crashes\""), std::string::npos);
}

}  // namespace
}  // namespace mron::mapreduce

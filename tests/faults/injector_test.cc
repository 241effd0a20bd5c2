// FaultInjector behavior against a live cluster: order-independent failure
// draws, fault-window queries, crash -> heartbeat-timeout declaration ->
// restart re-registration, degradation slowing real work, and the
// FaultStats tally the run report's `faults` block is built from.
#include "cluster/cluster_spec.h"
#include "faults/injector.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/check.h"
#include "faults/fault_plan.h"
#include "mapreduce/simulation.h"

namespace mron::faults {
namespace {

using mapreduce::JobResult;
using mapreduce::JobSpec;
using mapreduce::Simulation;
using mapreduce::SimulationOptions;

SimulationOptions small_cluster(std::uint64_t seed, const char* plan) {
  SimulationOptions opt;
  opt.cluster = cluster::scaled_spec(6, 3);
  opt.seed = seed;
  opt.fault_plan = FaultPlan::parse(plan);
  return opt;
}

JobSpec job(Simulation& sim, int blocks, int reduces) {
  JobSpec spec;
  spec.name = "victim";
  spec.input = sim.load_dataset("in", mebibytes(128.0 * blocks));
  spec.num_reduces = reduces;
  spec.profile.map_cpu_secs_per_mib = 0.3;
  spec.profile.map_output_ratio = 1.0;
  return spec;
}

TEST(FaultInjector, AbsentWhenPlanIsEmpty) {
  SimulationOptions opt;
  opt.cluster = cluster::scaled_spec(6, 3);
  Simulation sim(opt);
  EXPECT_EQ(sim.fault_injector(), nullptr);
}

TEST(FaultInjector, SimulationRejectsInvalidHeartbeatOnlyPlan) {
  // A heartbeat-only plan is empty() (it arms no injector), but the
  // Simulation must still validate it rather than silently ignore it.
  const SimulationOptions bad =
      small_cluster(1, "heartbeat period=0 timeout=0");
  ASSERT_TRUE(bad.fault_plan.empty());
  EXPECT_THROW(Simulation{bad}, CheckError);
  // A default (empty) plan validates.
  EXPECT_NO_THROW(Simulation{small_cluster(1, "")});
}

TEST(FaultInjector, FailureDrawsAreOrderIndependent) {
  Simulation sim(small_cluster(1, "seed 9\ntaskfail prob=0.5"));
  const FaultInjector* inj = sim.fault_injector();
  ASSERT_NE(inj, nullptr);
  // Record every verdict over a grid of (job, kind, task, attempt), then
  // query the same grid backwards: identical verdicts and strike points.
  // This is the property that keeps fault runs byte-identical at any
  // --jobs level — verdicts depend on identity, not on draw order.
  struct Draw {
    bool fail;
    double frac;
  };
  std::vector<Draw> forward;
  for (int job_id = 0; job_id < 3; ++job_id) {
    for (int kind = 0; kind < 2; ++kind) {
      for (int task = 0; task < 16; ++task) {
        for (int attempt = 1; attempt <= 3; ++attempt) {
          double frac = -1.0;
          const bool fail =
              inj->should_fail_attempt(job_id, kind, task, attempt, &frac);
          if (fail) {
            EXPECT_GT(frac, 0.0);
            EXPECT_LT(frac, 1.0);
          }
          forward.push_back({fail, frac});
        }
      }
    }
  }
  std::size_t i = forward.size();
  int fails = 0;
  for (int job_id = 2; job_id >= 0; --job_id) {
    for (int kind = 1; kind >= 0; --kind) {
      for (int task = 15; task >= 0; --task) {
        for (int attempt = 3; attempt >= 1; --attempt) {
          double frac = -1.0;
          const bool fail =
              inj->should_fail_attempt(job_id, kind, task, attempt, &frac);
          // forward was filled in the opposite nesting order; index from
          // the matching forward position.
          const std::size_t fwd =
              static_cast<std::size_t>(job_id) * 2 * 16 * 3 +
              static_cast<std::size_t>(kind) * 16 * 3 +
              static_cast<std::size_t>(task) * 3 +
              static_cast<std::size_t>(attempt - 1);
          EXPECT_EQ(fail, forward[fwd].fail);
          if (fail) {
            EXPECT_DOUBLE_EQ(frac, forward[fwd].frac);
          }
          fails += fail ? 1 : 0;
          --i;
        }
      }
    }
  }
  // prob=0.5 over 288 draws: both outcomes must occur.
  EXPECT_GT(fails, 0);
  EXPECT_LT(fails, 288);
}

TEST(FaultInjector, DifferentPlanSeedsChangeTheDraws) {
  Simulation sim_a(small_cluster(1, "seed 1\ntaskfail prob=0.5"));
  Simulation sim_b(small_cluster(1, "seed 2\ntaskfail prob=0.5"));
  int differ = 0;
  double frac = 0.0;
  for (int task = 0; task < 64; ++task) {
    const bool a =
        sim_a.fault_injector()->should_fail_attempt(0, 0, task, 1, &frac);
    const bool b =
        sim_b.fault_injector()->should_fail_attempt(0, 0, task, 1, &frac);
    differ += a != b ? 1 : 0;
  }
  EXPECT_GT(differ, 0);
}

TEST(FaultInjector, NodeFaultedDuringCoversWindowsAndCrashes) {
  Simulation sim(small_cluster(
      2,
      "seed 3\n"
      "degrade node=1 from=10 until=20 disk=0.5\n"
      "crash node=2 at=30 restart=40"));
  const FaultInjector* inj = sim.fault_injector();
  ASSERT_NE(inj, nullptr);
  // Degradation window overlap, including partial overlaps at both edges.
  EXPECT_TRUE(inj->node_faulted_during(1, 12.0, 18.0));
  EXPECT_TRUE(inj->node_faulted_during(1, 5.0, 11.0));
  EXPECT_TRUE(inj->node_faulted_during(1, 19.0, 50.0));
  EXPECT_FALSE(inj->node_faulted_during(1, 0.0, 9.0));
  EXPECT_FALSE(inj->node_faulted_during(1, 21.0, 30.0));
  EXPECT_FALSE(inj->node_faulted_during(0, 12.0, 18.0));  // wrong node
  // Crash interval [at, restart) counts as faulted.
  EXPECT_TRUE(inj->node_faulted_during(2, 25.0, 35.0));
  EXPECT_TRUE(inj->node_faulted_during(2, 35.0, 38.0));
  EXPECT_FALSE(inj->node_faulted_during(2, 0.0, 29.0));
}

TEST(FaultInjector, CrashFlowsThroughHeartbeatTimeoutAndRestarts) {
  Simulation sim(small_cluster(4,
                               "seed 5\n"
                               "heartbeat period=0.5 timeout=3\n"
                               "crash node=2 at=10 restart=25"));
  // Probe the RM's view around the planned crash. The node goes silent at
  // t=10 but is only declared lost once the watchdog sees `timeout`
  // seconds of silence — detection is delayed, like a real RM.
  bool alive_before = false, alive_just_after_crash = false;
  bool alive_after_timeout = true, alive_after_restart = false;
  sim.engine().schedule_at(9.0, [&] {
    alive_before = sim.rm().node_alive(cluster::NodeId(2));
  });
  sim.engine().schedule_at(10.25, [&] {
    alive_just_after_crash = sim.rm().node_alive(cluster::NodeId(2));
  });
  sim.engine().schedule_at(16.0, [&] {
    alive_after_timeout = sim.rm().node_alive(cluster::NodeId(2));
  });
  sim.engine().schedule_at(30.0, [&] {
    alive_after_restart = sim.rm().node_alive(cluster::NodeId(2));
  });
  sim.run();
  EXPECT_TRUE(alive_before);
  EXPECT_TRUE(alive_just_after_crash);  // silent, not yet declared
  EXPECT_FALSE(alive_after_timeout);
  EXPECT_TRUE(alive_after_restart);
  const FaultStats& stats = sim.fault_injector()->stats();
  EXPECT_EQ(stats.crashes, 1);
  EXPECT_EQ(stats.restarts, 1);
}

TEST(FaultInjector, DegradationSlowsRealWork) {
  // Same workload, same seed; the second run degrades every node's disk to
  // a tenth of its bandwidth for the whole run. Stats count one window per
  // directive and the job must take visibly longer.
  auto run = [](const char* plan) {
    Simulation sim(small_cluster(6, plan));
    JobResult result;
    sim.submit_job(job(sim, 12, 4), [&](const JobResult& r) { result = r; });
    sim.run();
    return std::make_pair(result.exec_time(),
                          sim.fault_injector()->stats().degrade_windows);
  };
  // A degenerate window far past the job keeps the injector armed but
  // leaves the run clean.
  const auto [clean_secs, clean_windows] =
      run("seed 1\ndegrade node=0 from=100000 until=100001 disk=0.5");
  const auto [slow_secs, slow_windows] = run(
      "seed 1\n"
      "degrade node=0 from=0 until=100000 disk=0.1\n"
      "degrade node=1 from=0 until=100000 disk=0.1\n"
      "degrade node=2 from=0 until=100000 disk=0.1\n"
      "degrade node=3 from=0 until=100000 disk=0.1\n"
      "degrade node=4 from=0 until=100000 disk=0.1\n"
      "degrade node=5 from=0 until=100000 disk=0.1");
  EXPECT_EQ(clean_windows, 1);
  EXPECT_EQ(slow_windows, 6);
  EXPECT_GT(slow_secs, clean_secs * 1.2);
}

}  // namespace
}  // namespace mron::faults

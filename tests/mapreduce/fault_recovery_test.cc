// Failure recovery under a declarative FaultPlan: injected attempt kills
// retry to completion, a mid-job crash re-executes the completed maps that
// died with the node, and the kill-every-node-once smoke — each node in the
// cluster crashes once, staggered so the cluster never empties, and the job
// still finishes with every map accounted for. A source crash in the
// middle of a reducer's host visit fails exactly that visit's segments.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "cluster/fabric.h"
#include "cluster/node.h"
#include "cluster/topology.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "mapreduce/reduce_task.h"
#include "mapreduce/simulation.h"

namespace mron::mapreduce {
namespace {

SimulationOptions small_cluster(std::uint64_t seed, const char* plan) {
  SimulationOptions opt;
  opt.cluster.num_slaves = 6;
  opt.cluster.rack_sizes = {3, 3};
  opt.seed = seed;
  opt.fault_plan = faults::FaultPlan::parse(plan);
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

TEST(FaultRecovery, InjectedFailuresAreRetriedToCompletion) {
  Simulation sim(small_cluster(11, "seed 11\ntaskfail prob=0.3"));
  JobResult result;
  bool done = false;
  sim.submit_job(job(sim, 16, 4), [&](const JobResult& r) {
    result = r;
    done = true;
  });
  sim.run();
  ASSERT_TRUE(done);
  // prob=0.3 over 20 tasks: some attempts certainly died, yet every task
  // eventually succeeded within max_task_attempts.
  EXPECT_GT(result.injected_failures, 0);
  EXPECT_EQ(result.injected_failures,
            sim.fault_injector()->stats().injected_task_failures);
  int map_successes = 0, injected_reports = 0;
  for (const auto& r : result.map_reports) {
    if (r.failed_injected) {
      ++injected_reports;
    } else if (!r.failed_oom) {
      ++map_successes;
    }
  }
  EXPECT_EQ(map_successes, 16);
  EXPECT_GT(injected_reports, 0);
  int reduce_successes = 0;
  for (const auto& r : result.reduce_reports) {
    if (!r.failed_oom && !r.failed_injected) ++reduce_successes;
  }
  EXPECT_EQ(reduce_successes, 4);
}

TEST(FaultRecovery, RetriesNeverExceedMaxAttemptsEvenAtProbOne) {
  // prob=1.0 would kill every attempt forever; the injector guarantee that
  // the final allowed attempt is never injected is what lets the job finish.
  Simulation sim(small_cluster(12, "seed 12\ntaskfail prob=1.0"));
  JobResult result;
  bool done = false;
  JobSpec spec = job(sim, 8, 2);
  sim.submit_job(std::move(spec), [&](const JobResult& r) {
    result = r;
    done = true;
  });
  sim.run();
  ASSERT_TRUE(done);
  int max_attempt = 0;
  for (const auto& r : result.map_reports) {
    max_attempt = std::max(max_attempt, r.attempt);
  }
  EXPECT_LE(max_attempt, JobSpec{}.max_task_attempts);
  // Every non-final map attempt was killed. Reduces can escape: the strike
  // lands at a fraction of the *estimated* runtime, and an attempt that
  // finishes first out-runs its kill — so the tally is bounded, not exact.
  EXPECT_GE(result.injected_failures, (JobSpec{}.max_task_attempts - 1) * 8);
  EXPECT_LE(result.injected_failures,
            (JobSpec{}.max_task_attempts - 1) * (8 + 2));
}

TEST(FaultRecovery, PlannedCrashReexecutesLostMapOutputs) {
  // slowstart=1.0 parks the reducers until every map is done, so the crash
  // at t=60 — between the first and second map waves — strictly loses
  // *completed* map outputs that no reducer has fetched yet.
  Simulation sim(small_cluster(13,
                               "seed 13\n"
                               "heartbeat period=0.5 timeout=3\n"
                               "crash node=0 at=60"));
  JobSpec spec = job(sim, 48, 4);
  spec.slowstart = 1.0;
  JobResult result;
  bool done = false;
  auto& am = sim.submit_job(std::move(spec), [&](const JobResult& r) {
    result = r;
    done = true;
  });
  int completed_when_crashed = -1;
  sim.engine().schedule_at(60.0, [&] {
    completed_when_crashed = am.completed_maps();
  });
  sim.run();
  ASSERT_TRUE(done);
  ASSERT_GT(completed_when_crashed, 0);
  ASSERT_LT(completed_when_crashed, 48);
  EXPECT_GT(result.lost_maps_reexecuted, 0);
  EXPECT_EQ(result.lost_maps_reexecuted,
            sim.fault_injector()->stats().lost_map_reexecutions);
  // The re-executed maps still produce exactly one surviving success each.
  int successes = 0;
  for (const auto& r : result.map_reports) {
    if (!r.failed_oom && !r.failed_injected) ++successes;
  }
  EXPECT_GE(successes, 48);
}

TEST(FaultRecovery, KillEveryNodeOnceSmoke) {
  // Each of the six nodes crashes once, staggered 12 s apart with an 8 s
  // outage, so at most one node is ever down and the cluster never empties.
  // A background 2% attempt-kill probability runs throughout.
  Simulation sim(small_cluster(14,
                               "seed 14\n"
                               "heartbeat period=0.5 timeout=3\n"
                               "taskfail prob=0.02\n"
                               "crash node=0 at=20 restart=28\n"
                               "crash node=1 at=32 restart=40\n"
                               "crash node=2 at=44 restart=52\n"
                               "crash node=3 at=56 restart=64\n"
                               "crash node=4 at=68 restart=76\n"
                               "crash node=5 at=80 restart=88"));
  JobResult result;
  bool done = false;
  sim.submit_job(job(sim, 24, 6), [&](const JobResult& r) {
    result = r;
    done = true;
  });
  sim.run();
  ASSERT_TRUE(done);
  const faults::FaultStats& stats = sim.fault_injector()->stats();
  EXPECT_EQ(stats.crashes, 6);
  EXPECT_EQ(stats.restarts, 6);
  int map_successes = 0;
  for (const auto& r : result.map_reports) {
    if (!r.failed_oom && !r.failed_injected) ++map_successes;
  }
  EXPECT_GE(map_successes, 24);
  int reduce_successes = 0;
  for (const auto& r : result.reduce_reports) {
    if (!r.failed_oom && !r.failed_injected) ++reduce_successes;
  }
  EXPECT_GE(reduce_successes, 6);
}

TEST(FaultRecovery, FaultedReportsAreStamped) {
  // Attempts overlapping the degradation window carry TaskReport::faulted —
  // the tuner's signal to discard them as cost samples.
  Simulation sim(small_cluster(15,
                               "seed 15\n"
                               "degrade node=1 from=0 until=100000 disk=0.2"));
  JobResult result;
  sim.submit_job(job(sim, 12, 4), [&](const JobResult& r) { result = r; });
  sim.run();
  int faulted = 0, clean = 0;
  for (const auto& r : result.map_reports) {
    if (r.faulted) {
      ++faulted;
      EXPECT_EQ(r.node.value(), 1);
    } else {
      ++clean;
    }
  }
  EXPECT_GT(faulted, 0);
  EXPECT_GT(clean, 0);
}

// One reducer on node 0 with parallelcopies 2. Host 2 holds maps 0-29 (a
// visit of 20, then 10 queued behind it); host 3 holds maps 30-39. Host 2
// dies while its first visit is transferring. A stand-in AM answers the
// availability query from liveness, drops the reducer's queued host-2
// segments (invalidate_source) and re-runs every lost map on host 4, as
// MrAppMaster does. `with_epochs` also hands the reducer a loss-epoch
// table, stamps each delivery with its source's epoch and bumps host 2's
// when it dies, as MrAppMaster does.
void source_crash_mid_visit(bool with_epochs) {
  sim::Engine eng;
  cluster::ClusterSpec spec;
  spec.num_slaves = 6;
  spec.rack_sizes = {3, 3};
  cluster::Topology topo(spec);
  std::vector<std::unique_ptr<cluster::Node>> nodes;
  std::vector<cluster::Node*> ptrs;
  for (int i = 0; i < 6; ++i) {
    nodes.push_back(
        std::make_unique<cluster::Node>(eng, cluster::NodeId(i), spec));
    ptrs.push_back(nodes.back().get());
  }
  cluster::Fabric fabric(eng, spec, topo, ptrs);
  AppProfile profile;
  profile.task_startup_secs = 0.0;
  JobConfig cfg;
  cfg.shuffle_parallelcopies = 2;
  ReduceTask::Inputs in;
  in.task = TaskRef{TaskKind::Reduce, 0};
  in.total_maps = 40;
  in.num_nodes = 6;
  std::optional<TaskReport> report;
  ReduceTask r(
      eng, *nodes[0], fabric,
      [&](cluster::NodeId n) -> cluster::Node& {
        return *nodes[static_cast<std::size_t>(n.value())];
      },
      profile, cfg, in, Rng(5), [&](const TaskReport& t) { report = t; });

  const Bytes seg = mebibytes(4);
  std::vector<cluster::NodeId> ran_on(40);
  for (int i = 0; i < 40; ++i) {
    ran_on[static_cast<std::size_t>(i)] = cluster::NodeId(i < 30 ? 2 : 3);
  }
  bool host2_alive = true;
  std::vector<int> failed;
  int queries = 0;
  ReduceTask::HostEpochs epochs(6, 0);
  r.set_output_query(
      [&](int mi, cluster::NodeId src) {
        ++queries;
        return ran_on[static_cast<std::size_t>(mi)] == src &&
               (src.value() != 2 || host2_alive);
      },
      with_epochs ? &epochs : nullptr);
  auto deliver = [&](int mi, cluster::NodeId src) {
    r.add_map_output(mi, src, seg,
                     epochs[static_cast<std::size_t>(src.value())]);
  };
  r.set_fetch_failure([&](int mi, cluster::NodeId) {
    failed.push_back(mi);
    deliver(mi, ran_on[static_cast<std::size_t>(mi)]);
  });
  for (int i = 0; i < 40; ++i) deliver(i, ran_on[static_cast<std::size_t>(i)]);
  int in_flight_to_host2 = -1;
  eng.schedule_at(0.3, [&] {
    r.for_each_visit([&](cluster::NodeId host, int segments) {
      if (host.value() == 2) in_flight_to_host2 = segments;
    });
    host2_alive = false;
    ++epochs[2];
    for (int i = 0; i < 30; ++i) {
      ran_on[static_cast<std::size_t>(i)] = cluster::NodeId(4);
    }
    r.invalidate_source(cluster::NodeId(2));
    for (int i = 20; i < 30; ++i) deliver(i, cluster::NodeId(4));
  });
  r.start();
  eng.run();

  ASSERT_TRUE(report.has_value());
  ASSERT_EQ(in_flight_to_host2, kMaxSegmentsPerFetch);
  // Exactly the in-flight visit's segments failed, each once, in order;
  // the queued ones were dropped without a failure.
  std::vector<int> expected;
  for (int i = 0; i < kMaxSegmentsPerFetch; ++i) expected.push_back(i);
  EXPECT_EQ(failed, expected);
  // Every map's partition landed exactly once.
  EXPECT_EQ(report->counters.shuffle_bytes, seg * 40.0);
  EXPECT_EQ(r.tracked_hosts(), 0);
  // Without epochs every segment is asked about at connect and at landing
  // (the re-run maps 0-19 twice more). With them only the doomed visit's
  // landing asks, once per segment.
  EXPECT_EQ(queries, with_epochs ? kMaxSegmentsPerFetch : 2 * 40 + 2 * 20);
}

TEST(FaultRecovery, SourceCrashMidVisitFailsOnlyThatVisit) {
  source_crash_mid_visit(/*with_epochs=*/false);
}

TEST(FaultRecovery, SourceCrashMidVisitFailsOnlyThatVisitByEpoch) {
  source_crash_mid_visit(/*with_epochs=*/true);
}

TEST(FaultRecovery, LossEpochsMoveWithNodeLossAndLostOutput) {
  // The AM bumps a node's loss epoch once when the node is lost, even
  // with no output there, and once more for each completed map whose
  // output died with it. Node 5 dies before any map completes; node 0
  // dies at t=60 holding completed output that no reducer has fetched.
  Simulation sim(small_cluster(13, "seed 13"));
  JobSpec spec = job(sim, 48, 4);
  spec.slowstart = 1.0;
  JobResult result;
  auto& am = sim.submit_job(std::move(spec),
                            [&](const JobResult& r) { result = r; });
  int completed_at_first_loss = -1;
  std::uint32_t epoch5_after = 0;
  sim.engine().schedule_at(1.0, [&] {
    completed_at_first_loss = am.completed_maps();
    sim.rm().fail_node(cluster::NodeId(5));
    epoch5_after = am.host_epochs()[5];
  });
  sim.engine().schedule_at(60.0,
                           [&] { sim.rm().fail_node(cluster::NodeId(0)); });
  sim.run();
  ASSERT_EQ(completed_at_first_loss, 0);
  EXPECT_EQ(epoch5_after, 1U);
  ASSERT_GT(result.lost_maps_reexecuted, 0);
  EXPECT_EQ(am.host_epochs()[0],
            1U + static_cast<std::uint32_t>(result.lost_maps_reexecuted));
  for (int n = 1; n < 5; ++n) {
    EXPECT_EQ(am.host_epochs()[static_cast<std::size_t>(n)], 0U) << n;
  }
}

}  // namespace
}  // namespace mron::mapreduce

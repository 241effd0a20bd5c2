// Failure injection: fail-stop a node mid-job and verify the MapReduce
// layer recovers — running tasks re-execute, completed map outputs that
// died with the node are regenerated, reducers deduplicate re-delivered
// partitions, and the dead node receives no further containers. The
// CompletionLog tests pin how the AM's map-completion log feeds reducer
// attempts: retries take earlier completions in map-index order, and a lost
// map's entry is never fed.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <vector>

#include "mapreduce/simulation.h"
#include "workloads/benchmarks.h"

namespace mron::mapreduce {
namespace {

SimulationOptions small_cluster(std::uint64_t seed) {
  SimulationOptions opt;
  opt.cluster.num_slaves = 6;
  opt.cluster.rack_sizes = {3, 3};
  opt.seed = seed;
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

TEST(NodeFailure, JobCompletesAfterMidJobFailure) {
  Simulation sim(small_cluster(3));
  JobResult result;
  bool done = false;
  sim.submit_job(job(sim, 24, 6), [&](const JobResult& r) {
    result = r;
    done = true;
  });
  sim.engine().schedule_at(30.0, [&] {
    sim.rm().fail_node(cluster::NodeId(2));
  });
  sim.run();
  ASSERT_TRUE(done);
  // Every map ran; re-executions mean at least num_maps reports and at
  // least one extra attempt somewhere.
  EXPECT_GE(result.map_reports.size(), 24u);
  EXPECT_EQ(result.reduce_reports.back().failed_oom, false);
}

TEST(NodeFailure, DeadNodeGetsNoNewContainers) {
  Simulation sim(small_cluster(4));
  std::set<std::int64_t> nodes_after_failure;
  bool failed = false;
  auto& am = sim.submit_job(job(sim, 30, 6));
  am.set_task_listener([&](const TaskReport& r) {
    if (failed && r.start_time > 31.0) {
      nodes_after_failure.insert(r.node.value());
    }
  });
  sim.engine().schedule_at(30.0, [&] {
    sim.rm().fail_node(cluster::NodeId(1));
    failed = true;
  });
  sim.run();
  EXPECT_FALSE(nodes_after_failure.empty());
  EXPECT_EQ(nodes_after_failure.count(1), 0u);
}

TEST(NodeFailure, LostMapOutputsAreRegenerated) {
  Simulation sim(small_cluster(5));
  JobResult result;
  auto& am = sim.submit_job(job(sim, 18, 4),
                            [&](const JobResult& r) { result = r; });
  // Fail a node after some maps finished but before reducers fetched
  // everything.
  int completed_when_failed = -1;
  sim.engine().schedule_at(60.0, [&] {
    completed_when_failed = am.completed_maps();
    sim.rm().fail_node(cluster::NodeId(0));
  });
  sim.run();
  ASSERT_GT(completed_when_failed, 0);
  // Total successful map completions still equals the task count exactly
  // once each at the end; reports may exceed it (re-executions).
  int successes = 0;
  for (const auto& r : result.map_reports) {
    if (!r.failed_oom) ++successes;
  }
  EXPECT_GE(successes, 18);
  // Shuffle conservation: every reducer received every map's partition
  // exactly once despite duplicates being re-delivered.
  Bytes shuffled{0};
  for (const auto& r : result.reduce_reports) {
    shuffled += r.counters.shuffle_bytes;
  }
  // Expected = sum of final combined outputs = 18 blocks * 128 MiB * ratio.
  EXPECT_NEAR(shuffled.as_double(), mebibytes(128.0 * 18).as_double(),
              mebibytes(128.0 * 18).as_double() * 0.02);
}

TEST(NodeFailure, SurvivesFailureDuringReducePhase) {
  Simulation sim(small_cluster(6));
  JobSpec spec = job(sim, 12, 8);
  spec.slowstart = 1.0;  // reducers start after all maps: failure hits them
  bool done = false;
  sim.submit_job(std::move(spec), [&](const JobResult&) { done = true; });
  // Fail late, when reducers are up.
  sim.engine().schedule_at(220.0, [&] {
    if (!done) sim.rm().fail_node(cluster::NodeId(3));
  });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(NodeFailure, IdempotentAndQueryable) {
  Simulation sim(small_cluster(7));
  EXPECT_TRUE(sim.rm().node_alive(cluster::NodeId(2)));
  sim.rm().fail_node(cluster::NodeId(2));
  sim.rm().fail_node(cluster::NodeId(2));  // no effect
  EXPECT_FALSE(sim.rm().node_alive(cluster::NodeId(2)));
  sim.run();
}

TEST(NodeFailure, MultipleFailuresStillComplete) {
  Simulation sim(small_cluster(8));
  bool done = false;
  sim.submit_job(job(sim, 20, 4), [&](const JobResult&) { done = true; });
  sim.engine().schedule_at(25.0,
                           [&] { sim.rm().fail_node(cluster::NodeId(4)); });
  sim.engine().schedule_at(70.0,
                           [&] { sim.rm().fail_node(cluster::NodeId(5)); });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(CompletionLog, RetriedReducerTakesEarlierCompletionsInMapOrder) {
  // One reducer, held back until every map is done, whose first attempt
  // OOMs. The retry must take the completions logged before it in
  // map-index order, so with one parallel copy its first shuffle visit
  // goes to map 0's host. Observe that by failing map 0's host while the
  // first visit transfers: a visit there fails its segments (a fetch
  // failure); a visit elsewhere leaves that host's segments queued, and
  // the node loss drops them without one.
  Simulation sim(small_cluster(3));
  JobSpec spec = job(sim, 12, 1);
  spec.config.shuffle_parallelcopies = 1;
  JobResult result;
  bool done = false;
  auto& am = sim.submit_job(spec, [&](const JobResult& r) {
    result = r;
    done = true;
  });
  am.set_launch_budget(TaskKind::Reduce, 0);
  JobConfig oom = spec.config;
  oom.reduce_memory_mb = 512;
  oom.shuffle_input_buffer_percent = 0.9;  // 461 MiB buffer + ws > 512
  ASSERT_TRUE(am.set_task_config(TaskRef{TaskKind::Reduce, 0}, oom));

  std::vector<TaskReport> maps;  // successful map attempts, in order
  cluster::NodeId map0_host;
  cluster::NodeId reducer_node;
  // The job's only network traffic once the maps are done is the retried
  // reducer's shuffle: the first NIC stream is its first visit.
  std::function<void()> poll = [&] {
    for (int n = 0; n < sim.rm().num_nodes(); ++n) {
      if (sim.rm().node(cluster::NodeId(n)).nic_in().active() > 0) {
        reducer_node = cluster::NodeId(n);
        sim.rm().fail_node(map0_host);
        return;
      }
    }
    sim.engine().schedule_after(0.001, poll);
  };
  am.set_task_listener([&](const TaskReport& r) {
    if (r.task.kind == TaskKind::Reduce) {
      if (r.failed_oom) sim.engine().schedule_after(0.001, poll);
      return;
    }
    if (maps.size() == 12u) return;  // a lost map's re-execution
    maps.push_back(r);
    if (r.task.index == 0) map0_host = r.node;
    // The AM books the completion after this listener returns.
    if (maps.size() == 12u) {
      sim.engine().schedule_after(
          0.0, [&] { am.set_launch_budget(TaskKind::Reduce, -1); });
    }
  });
  sim.run();
  ASSERT_TRUE(done);

  // The scenario tells the orders apart: the first logged completion ran
  // on another host than map 0, and neither ran beside the reducer.
  const cluster::NodeId first_logged_host = maps.front().node;
  ASSERT_NE(maps.front().task.index, 0);
  ASSERT_NE(first_logged_host, map0_host);
  ASSERT_TRUE(reducer_node.valid());
  ASSERT_NE(reducer_node, map0_host);
  ASSERT_NE(reducer_node, first_logged_host);
  ASSERT_EQ(result.reduce_reports.size(), 2u);
  EXPECT_TRUE(result.reduce_reports[0].failed_oom);

  EXPECT_GE(result.fetch_failures, 1);
}

TEST(CompletionLog, LostMapEntryIsNeverFed) {
  // Reducers launch after a node holding map outputs died but before its
  // maps re-complete: the log still holds the lost maps' entries, and no
  // reducer may be fed one (it would fetch from the dead host).
  Simulation sim(small_cluster(5));
  JobSpec spec = job(sim, 18, 4);
  JobResult result;
  bool done = false;
  auto& am = sim.submit_job(spec, [&](const JobResult& r) {
    result = r;
    done = true;
  });
  am.set_launch_budget(TaskKind::Reduce, 0);
  int maps_done = 0;
  SimTime failed_at = -1.0;
  cluster::NodeId victim;
  am.set_task_listener([&](const TaskReport& r) {
    if (r.task.kind != TaskKind::Map || ++maps_done != 18) return;
    victim = r.node;
    sim.engine().schedule_after(0.0, [&] {
      failed_at = sim.engine().now();
      sim.rm().fail_node(victim);
      am.set_launch_budget(TaskKind::Reduce, -1);
    });
  });
  sim.run();
  ASSERT_TRUE(done);
  ASSERT_GT(result.lost_maps_reexecuted, 0);

  // Every reducer started before the first lost map re-completed.
  SimTime first_rerun_done = std::numeric_limits<SimTime>::infinity();
  for (const auto& r : result.map_reports) {
    if (r.start_time >= failed_at) {
      first_rerun_done = std::min(first_rerun_done, r.end_time);
    }
  }
  for (const auto& r : result.reduce_reports) {
    ASSERT_LT(r.start_time, first_rerun_done);
  }

  EXPECT_EQ(result.fetch_failures, 0);
  Bytes shuffled{0};
  for (const auto& r : result.reduce_reports) {
    shuffled += r.counters.shuffle_bytes;
  }
  EXPECT_NEAR(shuffled.as_double(), mebibytes(128.0 * 18).as_double(),
              mebibytes(128.0 * 18).as_double() * 0.02);
}

}  // namespace
}  // namespace mron::mapreduce

// Speculative execution: straggling maps get backup attempts; the first
// finisher wins and the loser is killed. Stragglers are induced two ways —
// high service-time variance, and a node whose disk is hogged by an
// external load.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "mapreduce/simulation.h"

namespace mron::mapreduce {
namespace {

SimulationOptions cluster_opts(std::uint64_t seed) {
  SimulationOptions opt;
  opt.cluster.num_slaves = 6;
  opt.cluster.rack_sizes = {3, 3};
  opt.seed = seed;
  return opt;
}

JobSpec noisy_job(Simulation& sim, int blocks, double noise_cv,
                  bool speculative) {
  JobSpec spec;
  spec.name = "straggly";
  spec.input = sim.load_dataset("in", mebibytes(128.0 * blocks));
  spec.num_reduces = 4;
  spec.profile.map_cpu_secs_per_mib = 0.5;
  spec.noise_cv = noise_cv;
  spec.speculative_execution = speculative;
  return spec;
}

TEST(Speculation, DisabledByDefault) {
  Simulation sim(cluster_opts(1));
  JobSpec spec = noisy_job(sim, 24, 0.8, /*speculative=*/false);
  const JobResult r = sim.run_job(std::move(spec));
  EXPECT_EQ(r.speculative_launches, 0);
  EXPECT_EQ(r.speculative_wins, 0);
}

TEST(Speculation, LaunchesBackupsUnderHighVariance) {
  Simulation sim(cluster_opts(2));
  JobSpec spec = noisy_job(sim, 24, 1.2, /*speculative=*/true);
  const JobResult r = sim.run_job(std::move(spec));
  EXPECT_GT(r.speculative_launches, 0);
  EXPECT_GE(r.speculative_launches, r.speculative_wins);
  // Every map still completed exactly once.
  int successes = 0;
  for (const auto& rep : r.map_reports) {
    if (!rep.failed_oom) ++successes;
  }
  EXPECT_EQ(successes, 24);
}

TEST(Speculation, CutsTheTailUnderHighVariance) {
  // Stragglers come from heavy-tailed service noise; a backup attempt draws
  // fresh (likely much faster) service time and wins the race.
  auto run = [](bool speculative, std::uint64_t seed) {
    Simulation sim(cluster_opts(seed));
    JobSpec spec;
    spec.name = "noisy";
    spec.input = sim.dfs().create_dataset("in", mebibytes(128.0 * 24));
    spec.num_reduces = 4;
    spec.profile.map_cpu_secs_per_mib = 0.5;
    spec.noise_cv = 1.2;
    spec.speculative_execution = speculative;
    return sim.run_job(std::move(spec));
  };
  const JobResult without = run(false, 5);
  const JobResult with = run(true, 5);
  EXPECT_GT(with.speculative_launches, 0);
  EXPECT_GT(with.speculative_wins, 0);
  EXPECT_LT(with.exec_time(), without.exec_time() * 0.9);
}

TEST(Speculation, HotReplicaHazardDocumented) {
  // The known speculative-execution hazard (present in real Hadoop too):
  // when the straggler's cause is a hot *replica* disk, the backup re-reads
  // from the same hot replica and can even add load. The feature must stay
  // correct — every map completes exactly once — even when it cannot help.
  Simulation sim(cluster_opts(3));
  sim.engine().schedule_at(1.0, [&sim] {
    for (int i = 0; i < 10; ++i) {
      sim.rm().node(cluster::NodeId(0)).disk().submit(1e12, [] {});
    }
  });
  JobSpec spec;
  spec.name = "hot-node";
  spec.input = sim.dfs().create_dataset("in", mebibytes(128.0 * 24));
  spec.num_reduces = 4;
  spec.profile.map_cpu_secs_per_mib = 0.05;  // read-dominated
  spec.speculative_execution = true;
  const JobResult r = sim.run_job(std::move(spec));
  EXPECT_GT(r.speculative_launches, 0);
  int successes = 0;
  for (const auto& rep : r.map_reports) {
    if (!rep.failed_oom) ++successes;
  }
  EXPECT_EQ(successes, 24);
}

TEST(Speculation, NoBackupsWhenTasksAreUniform) {
  Simulation sim(cluster_opts(4));
  JobSpec spec = noisy_job(sim, 24, 0.0, /*speculative=*/true);
  spec.speculative_slowdown = 2.0;
  const JobResult r = sim.run_job(std::move(spec));
  EXPECT_EQ(r.speculative_launches, 0);
}

TEST(Speculation, SurvivesNodeFailureDuringRace) {
  Simulation sim(cluster_opts(5));
  JobSpec spec = noisy_job(sim, 24, 1.2, /*speculative=*/true);
  bool done = false;
  sim.submit_job(std::move(spec), [&](const JobResult&) { done = true; });
  sim.engine().schedule_at(40.0,
                           [&] { sim.rm().fail_node(cluster::NodeId(2)); });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Speculation, EveryAttemptOfAMapHasItsOwnNumber) {
  // A backup that wins and whose output then dies with its node: the
  // re-execution is a new attempt and must not reuse the backup's number,
  // or two successful reports share (map, attempt) and the re-execution
  // re-stamps the backup's critical-path nodes. On each of these seeds a
  // crash of node seed % 6 at t=70 re-executes such a map.
  for (const std::uint64_t seed : {2, 4, 25, 36}) {
    Simulation sim(cluster_opts(seed));
    JobSpec spec = noisy_job(sim, 24, 1.2, /*speculative=*/true);
    JobResult result;
    bool done = false;
    sim.submit_job(std::move(spec), [&](const JobResult& r) {
      result = r;
      done = true;
    });
    const cluster::NodeId victim(static_cast<std::int64_t>(seed % 6));
    sim.engine().schedule_at(70.0, [&] { sim.rm().fail_node(victim); });
    sim.run();
    ASSERT_TRUE(done) << "seed " << seed;
    EXPECT_GT(result.speculative_wins, 0) << "seed " << seed;
    EXPECT_GT(result.lost_maps_reexecuted, 0) << "seed " << seed;
    std::set<std::pair<int, int>> seen;
    for (const auto& r : result.map_reports) {
      if (r.failed_oom || r.failed_injected) continue;
      EXPECT_TRUE(seen.insert({r.task.index, r.attempt}).second)
          << "seed " << seed << ": map " << r.task.index << " attempt "
          << r.attempt << " succeeded twice";
    }
  }
}

}  // namespace
}  // namespace mron::mapreduce

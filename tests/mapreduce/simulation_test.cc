// The Simulation facade: wiring, dataset loading, concurrent jobs, and the
// optional hot-spot / delay-scheduling toggles.
#include <gtest/gtest.h>

#include "common/check.h"
#include "mapreduce/simulation.h"

namespace mron::mapreduce {
namespace {

SimulationOptions small(std::uint64_t seed) {
  SimulationOptions opt;
  opt.cluster.num_slaves = 4;
  opt.cluster.rack_sizes = {2, 2};
  opt.seed = seed;
  return opt;
}

JobSpec tiny_job(Simulation& sim, const char* name, int blocks) {
  JobSpec spec;
  spec.name = name;
  spec.input = sim.load_dataset(name, mebibytes(128.0 * blocks));
  spec.num_reduces = 2;
  return spec;
}

TEST(Simulation, WiresPaperClusterByDefault) {
  Simulation sim;
  EXPECT_EQ(sim.topology().num_nodes(), 18);
  EXPECT_EQ(sim.rm().num_nodes(), 18);
  EXPECT_EQ(sim.rm().cluster_memory_capacity(), gibibytes(6 * 18));
}

TEST(Simulation, LoadDatasetPlacesBlocks) {
  Simulation sim(small(1));
  const auto id = sim.load_dataset("d", gibibytes(1));
  EXPECT_EQ(sim.dfs().dataset(id).blocks.size(), 8u);
}

TEST(Simulation, RunJobsExecutesConcurrently) {
  Simulation sim(small(2));
  std::vector<JobSpec> specs;
  specs.push_back(tiny_job(sim, "a", 6));
  specs.push_back(tiny_job(sim, "b", 6));
  const auto results = sim.run_jobs(std::move(specs));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "a");
  EXPECT_EQ(results[1].name, "b");
  // Concurrent, not serial: the second job started before the first ended.
  double a_end = results[0].finish_time;
  double b_first_start = 1e18;
  for (const auto& r : results[1].map_reports) {
    b_first_start = std::min(b_first_start, r.start_time);
  }
  EXPECT_LT(b_first_start, a_end);
}

TEST(Simulation, FairSchedulerSplitsBetweenJobs) {
  auto run = [](bool fair) {
    auto opt = small(3);
    opt.fair_scheduler = fair;
    Simulation sim(opt);
    std::vector<JobSpec> specs;
    specs.push_back(tiny_job(sim, "big", 24));
    specs.push_back(tiny_job(sim, "small", 4));
    const auto results = sim.run_jobs(std::move(specs));
    return results[1].exec_time();  // the small job's latency
  };
  // Under FIFO the small job waits behind the big one; fair sharing lets
  // it finish substantially earlier.
  EXPECT_LT(run(true), run(false));
}

TEST(Simulation, RunJobChecksCompletion) {
  Simulation sim(small(5));
  JobSpec bad;
  bad.name = "no-input";
  bad.num_maps_override = 0;  // invalid: no input and no maps
  EXPECT_THROW((void)sim.run_job(std::move(bad)), CheckError);
}

TEST(Simulation, SeparateSimulationsAreIndependent) {
  Simulation a(small(6)), b(small(6));
  const double ta = a.run_job(tiny_job(a, "x", 6)).exec_time();
  const double tb = b.run_job(tiny_job(b, "x", 6)).exec_time();
  EXPECT_DOUBLE_EQ(ta, tb);
}

}  // namespace
}  // namespace mron::mapreduce

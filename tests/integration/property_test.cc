// Cross-module property tests: invariants that must hold for any workload
// shape, checked over randomized job specifications.
#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/cluster_spec.h"
#include "common/rng.h"
#include "mapreduce/simulation.h"

namespace mron {
namespace {

using mapreduce::JobConfig;
using mapreduce::JobResult;
using mapreduce::JobSpec;
using mapreduce::Simulation;
using mapreduce::SimulationOptions;

SimulationOptions tiny_cluster(std::uint64_t seed) {
  SimulationOptions opt;
  opt.cluster = cluster::scaled_spec(4, 2);
  opt.seed = seed;
  return opt;
}

JobSpec random_job(Simulation& sim, Rng& rng) {
  JobSpec spec;
  spec.name = "random";
  const int blocks = static_cast<int>(rng.uniform_int(4, 24));
  spec.input =
      sim.load_dataset("in", mebibytes(128.0 * blocks));
  spec.num_reduces = static_cast<int>(rng.uniform_int(1, 8));
  spec.profile.map_cpu_secs_per_mib = rng.uniform(0.02, 0.8);
  spec.profile.map_output_ratio = rng.uniform(0.05, 1.5);
  spec.profile.combiner_ratio = rng.uniform(0.2, 1.0);
  spec.profile.map_record_bytes = rng.uniform(16, 400);
  spec.profile.reduce_cpu_secs_per_mib = rng.uniform(0.02, 0.3);
  spec.profile.reduce_output_ratio = rng.uniform(0.1, 1.0);
  spec.profile.partition_skew_cv = rng.uniform(0.0, 0.5);
  return spec;
}

JobConfig random_config(Rng& rng) {
  const auto& reg = mapreduce::ParamRegistry::standard();
  JobConfig cfg;
  for (std::size_t i = 0; i < reg.size(); ++i) {
    const auto& p = reg.at(i);
    reg.set(cfg, i, rng.uniform(p.min, p.max));
  }
  mapreduce::clamp_constraints(cfg);
  return cfg;
}

// Property: for any job/config combination, the job completes, every byte
// of combined map output reaches exactly one reducer, and spill records are
// at least the optimal count.
TEST(EndToEndProperty, ConservationAndBoundsForRandomJobs) {
  Rng rng(20260706);
  for (int trial = 0; trial < 12; ++trial) {
    Simulation sim(tiny_cluster(1000 + static_cast<std::uint64_t>(trial)));
    JobSpec spec = random_job(sim, rng);
    spec.config = random_config(rng);
    const bool has_reducers = spec.num_reduces > 0;
    const JobResult r = sim.run_job(std::move(spec));

    // Completion.
    ASSERT_GT(r.exec_time(), 0.0) << "trial " << trial;

    // Spill lower bound.
    ASSERT_GE(r.counters.map.spilled_records,
              r.counters.map.combine_output_records)
        << "trial " << trial;

    // Shuffle conservation (within rounding): reducers received the
    // combiner output.
    if (has_reducers) {
      Bytes shuffled{0};
      for (const auto& rep : r.reduce_reports) {
        shuffled += rep.counters.shuffle_bytes;
      }
      // Expected combined output can be derived from the map counters.
      // combined bytes = output bytes * combiner ratio; reconstruct from
      // records to avoid relying on profile internals.
      const double expect =
          r.counters.map.map_output_bytes.as_double() *
          (static_cast<double>(r.counters.map.combine_output_records) /
           std::max<double>(
               1.0,
               static_cast<double>(r.counters.map.map_output_records)));
      ASSERT_NEAR(shuffled.as_double(), expect, expect * 0.05 + 1e6)
          << "trial " << trial;
    }
  }
}

// Property: determinism — identical seeds give identical results, for any
// random spec.
TEST(EndToEndProperty, DeterministicUnderRandomSpecs) {
  Rng rng_a(7), rng_b(7);
  for (int trial = 0; trial < 4; ++trial) {
    Simulation sim_a(tiny_cluster(50 + static_cast<std::uint64_t>(trial)));
    Simulation sim_b(tiny_cluster(50 + static_cast<std::uint64_t>(trial)));
    JobSpec spec_a = random_job(sim_a, rng_a);
    JobSpec spec_b = random_job(sim_b, rng_b);
    const JobResult ra = sim_a.run_job(std::move(spec_a));
    const JobResult rb = sim_b.run_job(std::move(spec_b));
    ASSERT_DOUBLE_EQ(ra.exec_time(), rb.exec_time()) << trial;
    ASSERT_EQ(ra.counters.map.spilled_records,
              rb.counters.map.spilled_records);
  }
}

// Property: growing io.sort.mb (with everything else fixed) never increases
// map-side spill records end-to-end.
TEST(EndToEndProperty, SpillsMonotoneInSortBuffer) {
  std::int64_t prev = -1;
  for (double sort_mb : {64.0, 128.0, 256.0, 512.0, 768.0}) {
    Simulation sim(tiny_cluster(99));
    JobSpec spec;
    spec.name = "mono";
    spec.input = sim.load_dataset("in", mebibytes(128.0 * 8));
    spec.num_reduces = 2;
    spec.config.io_sort_mb = sort_mb;
    spec.config.map_memory_mb = 1536;  // room for the largest buffer
    const JobResult r = sim.run_job(std::move(spec));
    if (prev >= 0) {
      ASSERT_LE(r.counters.map.spilled_records, prev) << sort_mb;
    }
    prev = r.counters.map.spilled_records;
  }
}

// Property: the scheduler never over-commits a node, under any random mix
// of concurrent jobs (checked implicitly by Node::allocate's invariant
// CHECK; this test just drives the mix).
TEST(EndToEndProperty, ConcurrentRandomJobsNeverOvercommit) {
  Rng rng(31);
  Simulation sim(tiny_cluster(123));
  int done = 0;
  for (int j = 0; j < 3; ++j) {
    JobSpec spec = random_job(sim, rng);
    spec.config = random_config(rng);
    sim.submit_job(std::move(spec),
                   [&](const JobResult&) { ++done; });
  }
  sim.run();
  EXPECT_EQ(done, 3);
}

}  // namespace
}  // namespace mron

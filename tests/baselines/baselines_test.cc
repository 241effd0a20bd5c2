#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <vector>

#include "baselines/genetic_tuner.h"
#include "cluster/cluster_spec.h"
#include "common/check.h"
#include "baselines/offline_guide.h"
#include "workloads/benchmarks.h"

namespace mron::baselines {
namespace {

using mapreduce::JobConfig;
using mapreduce::JobSpec;
using mapreduce::Simulation;
using mapreduce::SimulationOptions;
using workloads::Benchmark;
using workloads::Corpus;

TEST(OfflineGuide, SizesSortBufferForSingleSpill) {
  SimulationOptions opt;
  opt.cluster = cluster::scaled_spec(2, 1);
  Simulation sim(opt);
  const JobSpec spec = workloads::make_terasort(sim, gibibytes(10));
  const JobConfig cfg = offline_guide_config(spec, mebibytes(128), 80);
  // Terasort map output = 128 MiB per split; the buffer must hold it.
  EXPECT_GT(cfg.io_sort_mb, 128);
  EXPECT_DOUBLE_EQ(cfg.sort_spill_percent, 0.99);
  JobConfig copy = cfg;
  EXPECT_EQ(mapreduce::clamp_constraints(copy), 0);  // already consistent
}

TEST(OfflineGuide, ContainerFitsWorkingSetAndBuffer) {
  SimulationOptions opt;
  opt.cluster = cluster::scaled_spec(2, 1);
  Simulation sim(opt);
  const JobSpec spec = workloads::make_terasort(sim, gibibytes(10));
  const JobConfig cfg = offline_guide_config(spec, mebibytes(128), 80);
  EXPECT_GE(cfg.map_memory_mb,
            spec.profile.map_working_set.mib() + cfg.io_sort_mb);
}

TEST(OfflineGuide, ComputeJobGetsMoreVcores) {
  const JobSpec bbp = workloads::make_bbp(100);
  const JobConfig cfg = offline_guide_config(bbp, Bytes(0), 100);
  EXPECT_GE(cfg.map_cpu_vcores, 2);  // BBP's map demand is 2 cores
}

TEST(OfflineGuide, ReduceBuffersAvoidSpillsWhenPartitionFits) {
  SimulationOptions opt;
  opt.cluster = cluster::scaled_spec(2, 1);
  Simulation sim(opt);
  // Small Terasort: 16 maps x 128 MiB -> 4 reducers x ~512 MiB... too big.
  // WordCount: 16 maps, combiner shrinks shuffle to ~43 MiB/reducer: fits.
  JobSpec spec;
  spec.name = "wc";
  spec.input = sim.load_dataset("in", mebibytes(128 * 16));
  spec.num_reduces = 16;
  spec.profile = workloads::profile_for(Benchmark::WordCount,
                                        Corpus::Wikipedia);
  const JobConfig cfg = offline_guide_config(spec, mebibytes(128), 16);
  EXPECT_GT(cfg.reduce_input_buffer_percent, 0.0);
  EXPECT_DOUBLE_EQ(cfg.merge_inmem_threshold, 0);
}

TEST(OptimalSpills, MatchesCombinerOutput) {
  const auto profile =
      workloads::profile_for(Benchmark::Terasort, Corpus::Synthetic);
  const auto records =
      optimal_map_spill_records(profile, gibibytes(100), 800);
  // 100 GiB of 100-byte records.
  EXPECT_NEAR(static_cast<double>(records),
              gibibytes(100).as_double() / 100.0, 1e6);
}

/// A config as the extended registry's values, for set membership.
std::vector<double> values_of(const JobConfig& cfg) {
  const auto& reg = mapreduce::ParamRegistry::extended();
  std::vector<double> v(reg.size());
  for (std::size_t i = 0; i < reg.size(); ++i) v[i] = reg.get(cfg, i);
  return v;
}

/// Bowl centered at io.sort.mb = 400, map mem = 1500.
double bowl(const JobConfig& cfg) {
  const double a = (cfg.io_sort_mb - 400) / 1000.0;
  const double b = (cfg.map_memory_mb - 1500) / 2560.0;
  return a * a + b * b;
}

TEST(GeneticTuner, StaysWithinRunBudget) {
  GeneticOfflineTuner ga;
  int evals = 0;
  const JobConfig best = ga.tune(
      [&](const JobConfig& cfg) {
        ++evals;
        return 100.0 + cfg.io_sort_mb;  // cheaper with a small buffer
      },
      25);
  EXPECT_EQ(evals, 25);
  EXPECT_EQ(ga.runs_used(), 25);
  EXPECT_LT(best.io_sort_mb, 300);  // pressure worked
}

TEST(GeneticTuner, FindsAnalyticOptimum) {
  GeneticOfflineTuner ga;
  const JobConfig best = ga.tune(bowl, 40);
  EXPECT_NEAR(best.io_sort_mb, 400, 250);
  EXPECT_NEAR(best.map_memory_mb, 1500, 700);
  EXPECT_LT(ga.best_seconds(), 0.1);
}

TEST(GeneticTuner, NeverWorseThanSeededDefault) {
  GeneticOfflineTuner ga;
  // Only the (integer-valued, exactly representable) default buffer/memory
  // pair scores well; everything else is worse. The seeded default
  // individual guarantees the GA never ends above it.
  const double def_fitness = 5.0;
  ga.tune(
      [&](const JobConfig& cfg) {
        const bool is_default = std::abs(cfg.io_sort_mb - 100) < 0.5 &&
                                std::abs(cfg.map_memory_mb - 1024) < 0.5;
        return is_default ? def_fitness : def_fitness + 1.0;
      },
      20);
  EXPECT_LE(ga.best_seconds(), def_fitness);
}

TEST(GeneticTuner, IdenticalAtAnyJobs) {
  struct Outcome {
    JobConfig best;
    double best_seconds;
    std::multiset<std::vector<double>> evaluated;
  };
  auto run = [](int jobs) {
    GeneticOptions opt;
    opt.jobs = jobs;
    GeneticOfflineTuner ga(opt);
    Outcome out;
    std::mutex mu;
    out.best = ga.tune(
        [&](const JobConfig& cfg) {
          const std::lock_guard<std::mutex> lock(mu);
          out.evaluated.insert(values_of(cfg));
          return bowl(cfg);
        },
        30);
    out.best_seconds = ga.best_seconds();
    return out;
  };
  const Outcome serial = run(1);
  const Outcome wide = run(4);
  EXPECT_EQ(serial.best, wide.best);
  EXPECT_EQ(serial.best_seconds, wide.best_seconds);
  EXPECT_EQ(serial.evaluated, wide.evaluated);
}

TEST(GeneticTuner, EvaluatesEachDistinctConfigOnce) {
  // Without mutation a small population's crossovers repeat genomes.
  GeneticOptions opt;
  opt.population = 4;
  opt.mutation_rate = 0.0;
  GeneticOfflineTuner ga(opt);
  std::set<std::vector<double>> seen;
  int evals = 0;
  ga.tune(
      [&](const JobConfig& cfg) {
        ++evals;
        JobConfig clamped = cfg;
        mapreduce::clamp_constraints(clamped);
        EXPECT_TRUE(seen.insert(values_of(clamped)).second)
            << "config evaluated twice";
        return bowl(cfg);
      },
      30);
  EXPECT_EQ(ga.runs_used(), 30);
  EXPECT_LT(evals, ga.runs_used());
}

TEST(GeneticTuner, RejectsTinyBudget) {
  GeneticOfflineTuner ga;
  EXPECT_THROW(
      ga.tune([](const JobConfig&) { return 1.0; }, 2),
      CheckError);
}

}  // namespace
}  // namespace mron::baselines

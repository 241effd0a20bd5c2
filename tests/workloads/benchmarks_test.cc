#include "workloads/benchmarks.h"

#include <gtest/gtest.h>

#include "cluster/cluster_spec.h"

namespace mron::workloads {
namespace {

TEST(Table3, HasTenRowsMatchingThePaper) {
  const auto rows = table3();
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows[0].name, "Bigram");
  EXPECT_EQ(rows[0].input_name, "Wikipedia");
  EXPECT_EQ(rows[0].num_maps, 676);
  EXPECT_EQ(rows[0].num_reduces, 200);
  EXPECT_EQ(rows[0].job_type, "Shuffle");
  EXPECT_EQ(rows[8].name, "Terasort");
  EXPECT_EQ(rows[8].num_maps, 752);
  EXPECT_EQ(rows[9].name, "BBP");
  EXPECT_EQ(rows[9].num_maps, 100);
  EXPECT_EQ(rows[9].num_reduces, 1);
}

TEST(Profiles, ShuffleSelectivitiesMatchTable3) {
  // shuffle bytes = input * map_output_ratio * combiner_ratio.
  struct Case {
    Benchmark b;
    Corpus c;
    double input_gb;
    double shuffle_gb;
  };
  const Case cases[] = {
      {Benchmark::Bigram, Corpus::Wikipedia, 90.5, 80.8},
      {Benchmark::InvertedIndex, Corpus::Wikipedia, 90.5, 38.0},
      {Benchmark::WordCount, Corpus::Wikipedia, 90.5, 30.3},
      {Benchmark::TextSearch, Corpus::Wikipedia, 90.5, 2.3},
      {Benchmark::Bigram, Corpus::Freebase, 100.8, 84.8},
      {Benchmark::InvertedIndex, Corpus::Freebase, 100.8, 21.0},
      {Benchmark::WordCount, Corpus::Freebase, 100.8, 16.7},
      {Benchmark::TextSearch, Corpus::Freebase, 100.8, 0.906},
      {Benchmark::Terasort, Corpus::Synthetic, 100.0, 100.0},
  };
  for (const auto& c : cases) {
    const auto p = profile_for(c.b, c.c);
    const double got = c.input_gb * p.map_output_ratio * p.combiner_ratio;
    EXPECT_NEAR(got, c.shuffle_gb, c.shuffle_gb * 0.05)
        << benchmark_name(c.b) << "/" << corpus_name(c.c);
  }
}

TEST(Profiles, OutputSelectivitiesMatchTable3) {
  struct Case {
    Benchmark b;
    Corpus c;
    double shuffle_gb;
    double output_gb;
  };
  const Case cases[] = {
      {Benchmark::Bigram, Corpus::Wikipedia, 80.8, 27.6},
      {Benchmark::WordCount, Corpus::Freebase, 16.7, 9.4},
      {Benchmark::Terasort, Corpus::Synthetic, 100.0, 100.0},
  };
  for (const auto& c : cases) {
    const auto p = profile_for(c.b, c.c);
    EXPECT_NEAR(c.shuffle_gb * p.reduce_output_ratio, c.output_gb,
                c.output_gb * 0.05)
        << benchmark_name(c.b);
  }
}

TEST(Profiles, JobTypesReflectCpuIntensity) {
  // Compute-intensive jobs must have higher map CPU cost than shuffle-heavy
  // ones (the paper's classification).
  const auto grep = profile_for(Benchmark::TextSearch, Corpus::Wikipedia);
  const auto tera = profile_for(Benchmark::Terasort, Corpus::Synthetic);
  EXPECT_GT(grep.map_cpu_secs_per_mib, 3 * tera.map_cpu_secs_per_mib);
  const auto bbp = profile_for(Benchmark::Bbp, Corpus::None);
  EXPECT_GT(bbp.map_cpu_secs_fixed, 0.0);
  EXPECT_GT(bbp.map_cpu_demand_cores, 1.0);
}

TEST(MakeJob, BuildsPaperSizedJobs) {
  mapreduce::SimulationOptions opt;
  opt.cluster = cluster::scaled_spec(4, 2);
  mapreduce::Simulation sim(opt);
  const auto spec = make_job(sim, Benchmark::WordCount, Corpus::Wikipedia);
  EXPECT_EQ(sim.dfs().dataset(spec.input).blocks.size(), 676u);
  EXPECT_EQ(spec.num_reduces, 200);
}

TEST(MakeTerasort, ReducersQuarterOfMaps) {
  mapreduce::SimulationOptions opt;
  opt.cluster = cluster::scaled_spec(4, 2);
  mapreduce::Simulation sim(opt);
  const auto spec = make_terasort(sim, gibibytes(2));
  EXPECT_EQ(sim.dfs().dataset(spec.input).blocks.size(), 16u);
  EXPECT_EQ(spec.num_reduces, 4);
}

TEST(MakeBbp, ComputeOnlyShape) {
  const auto spec = make_bbp();
  EXPECT_FALSE(spec.input.valid());
  EXPECT_EQ(spec.num_maps_override, 100);
  EXPECT_EQ(spec.num_reduces, 1);
}

}  // namespace
}  // namespace mron::workloads

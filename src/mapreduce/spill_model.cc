#include "mapreduce/spill_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace mron::mapreduce {

MergeCost plan_disk_merge(std::vector<Bytes> file_sizes, int factor) {
  MRON_CHECK(factor >= 2);
  MergeCost cost;
  std::sort(file_sizes.begin(), file_sizes.end());
  while (static_cast<int>(file_sizes.size()) > factor) {
    // Merge the `factor` smallest files into one.
    Bytes merged{0};
    for (int i = 0; i < factor; ++i) merged += file_sizes[static_cast<std::size_t>(i)];
    file_sizes.erase(file_sizes.begin(), file_sizes.begin() + factor);
    cost.read += merged;
    cost.write += merged;
    ++cost.rounds;
    // Keep sorted: insert the merged file at its position.
    file_sizes.insert(
        std::lower_bound(file_sizes.begin(), file_sizes.end(), merged),
        merged);
  }
  return cost;
}

MapSpillPlan plan_map_spills(Bytes map_output_bytes,
                             std::int64_t map_output_records,
                             double combiner_ratio, const JobConfig& cfg) {
  MapSpillPlan plan;
  if (map_output_bytes <= Bytes(0) || map_output_records <= 0) return plan;
  MRON_CHECK(combiner_ratio > 0.0 && combiner_ratio <= 1.0);

  const double record_bytes = map_output_bytes.as_double() /
                              static_cast<double>(map_output_records);
  const double data_fraction =
      record_bytes / (record_bytes + kSpillMetadataBytes);
  const Bytes trigger =
      mebibytes(cfg.io_sort_mb) * cfg.sort_spill_percent * data_fraction;
  MRON_CHECK_MSG(trigger > Bytes(0), "empty sort buffer");
  plan.num_spills = static_cast<int>(
      std::ceil(map_output_bytes.as_double() / trigger.as_double()));
  plan.num_spills = std::max(plan.num_spills, 1);

  // The combiner runs per spill; records/bytes hitting disk are combined.
  const Bytes combined_bytes = map_output_bytes * combiner_ratio;
  const auto combined_records = static_cast<std::int64_t>(
      std::llround(static_cast<double>(map_output_records) * combiner_ratio));

  // Initial spills: every combined record written once.
  plan.spill_records = combined_records;
  plan.disk_write_bytes = combined_bytes;

  if (plan.num_spills > 1) {
    // Merge phase. Intermediate rounds while files > io.sort.factor ...
    const Bytes per_spill = combined_bytes * (1.0 / plan.num_spills);
    std::vector<Bytes> files(static_cast<std::size_t>(plan.num_spills),
                             per_spill);
    const MergeCost mid =
        plan_disk_merge(files, static_cast<int>(cfg.io_sort_factor));
    // ... then one final round writes the single map output file.
    plan.disk_read_bytes = mid.read + combined_bytes;
    plan.disk_write_bytes += mid.write + combined_bytes;
    plan.merge_rounds = mid.rounds + 1;
    const double rewrite_ratio =
        (mid.write + combined_bytes) / combined_bytes;
    plan.spill_records += static_cast<std::int64_t>(std::llround(
        static_cast<double>(combined_records) * rewrite_ratio));
  }
  return plan;
}

ShuffleBufferModel::ShuffleBufferModel(const JobConfig& cfg,
                                       double record_bytes)
    : record_bytes_(record_bytes) {
  MRON_CHECK(record_bytes_ > 0.0);
  task_memory_ = mebibytes(cfg.reduce_memory_mb) * kHeapFraction;
  shuffle_buffer_ = task_memory_ * cfg.shuffle_input_buffer_percent;
  update_live_params(cfg);
}

void ShuffleBufferModel::update_live_params(const JobConfig& cfg) {
  // Category-III parameters may change while the task runs; buffer sizes
  // themselves (category II) are fixed at construction.
  merge_trigger_ = task_memory_ * cfg.shuffle_input_buffer_percent *
                   cfg.shuffle_merge_percent;
  inmem_threshold_ =
      static_cast<std::int64_t>(std::llround(cfg.merge_inmem_threshold));
  reduce_input_buffer_percent_ = cfg.reduce_input_buffer_percent;
  segment_limit_ = task_memory_ * cfg.shuffle_input_buffer_percent *
                   cfg.shuffle_memory_limit_percent;
}

Bytes ShuffleBufferModel::add_segment(Bytes segment) {
  MRON_CHECK(!finalized_);
  if (segment <= Bytes(0)) return Bytes(0);
  if (segment > segment_limit_) {
    // Oversized segment: fetched straight to a disk file.
    disk_write_ += segment;
    disk_files_.push_back(segment);
    spilled_records_ += static_cast<std::int64_t>(
        std::llround(segment.as_double() / record_bytes_));
    return segment;
  }
  pool_ += segment;
  ++pool_segments_;
  const bool over_bytes = pool_ >= merge_trigger_;
  const bool over_count =
      inmem_threshold_ > 0 && pool_segments_ >= inmem_threshold_;
  if (over_bytes || over_count) {
    const Bytes flushed = pool_;
    flush_pool();
    return flushed;
  }
  return Bytes(0);
}

Bytes ShuffleBufferModel::add_segments(int count, Bytes segment) {
  MRON_CHECK(!finalized_);
  MRON_CHECK(count >= 0);
  if (count == 0 || segment <= Bytes(0)) return Bytes(0);
  const auto n = static_cast<std::int64_t>(count);
  const std::int64_t s = segment.count();

  if (segment > segment_limit_) {
    // Every copy bypasses the pool and lands in its own disk file.
    const auto records_each = static_cast<std::int64_t>(
        std::llround(segment.as_double() / record_bytes_));
    disk_write_ += Bytes(n * s);
    disk_files_.insert(disk_files_.end(), static_cast<std::size_t>(n),
                       segment);
    spilled_records_ += n * records_each;
    return Bytes(n * s);
  }

  // Number of adds, starting from a pool of `pool` bytes / `segs` segments,
  // until the pool flushes. The incremental loop flushes after the add that
  // makes pool >= merge_trigger_ or (when the threshold is on) segment count
  // >= inmem_threshold_ — so a pool already at/over a limit (possible after
  // update_live_params() lowered it) flushes on the very next add.
  const std::int64_t trigger = merge_trigger_.count();
  const std::int64_t threshold = inmem_threshold_;
  const auto adds_until_flush = [&](std::int64_t pool,
                                    std::int64_t segs) -> std::int64_t {
    std::int64_t k =
        trigger > pool ? (trigger - pool + s - 1) / s : std::int64_t{1};
    if (threshold > 0) {
      k = std::min(k, std::max<std::int64_t>(1, threshold - segs));
    }
    return std::max<std::int64_t>(k, 1);
  };

  const std::int64_t first = adds_until_flush(pool_.count(), pool_segments_);
  if (n < first) {
    // The whole run is absorbed; nothing observable happens.
    pool_ += Bytes(n * s);
    pool_segments_ += count;
    return Bytes(0);
  }

  // First flush drains the partially filled pool...
  const Bytes first_flush = pool_ + Bytes(first * s);
  disk_write_ += first_flush;
  disk_files_.push_back(first_flush);
  spilled_records_ += static_cast<std::int64_t>(
      std::llround(first_flush.as_double() / record_bytes_));
  ++inmem_merges_;
  Bytes flushed_total = first_flush;

  // ...then the cycle repeats from empty: absorb `cycle` segments, flush
  // cycle*s bytes. Each full cycle is byte-identical, so one flush's
  // accounting times the cycle count reproduces the incremental loop.
  const std::int64_t rest = n - first;
  const std::int64_t cycle = adds_until_flush(0, 0);
  const std::int64_t full_cycles = rest / cycle;
  const std::int64_t leftover = rest % cycle;
  if (full_cycles > 0) {
    const Bytes cycle_flush{cycle * s};
    const auto cycle_records = static_cast<std::int64_t>(
        std::llround(cycle_flush.as_double() / record_bytes_));
    disk_write_ += Bytes(full_cycles * cycle_flush.count());
    disk_files_.insert(disk_files_.end(),
                       static_cast<std::size_t>(full_cycles), cycle_flush);
    spilled_records_ += full_cycles * cycle_records;
    inmem_merges_ += static_cast<int>(full_cycles);
    flushed_total += Bytes(full_cycles * cycle_flush.count());
  }
  pool_ = Bytes(leftover * s);
  pool_segments_ = static_cast<int>(leftover);
  return flushed_total;
}

void ShuffleBufferModel::flush_pool() {
  if (pool_ <= Bytes(0)) return;
  ++inmem_merges_;
  disk_write_ += pool_;
  disk_files_.push_back(pool_);
  spilled_records_ += static_cast<std::int64_t>(
      std::llround(pool_.as_double() / record_bytes_));
  pool_ = Bytes(0);
  pool_segments_ = 0;
}

Bytes ShuffleBufferModel::finalize() {
  MRON_CHECK(!finalized_);
  finalized_ = true;
  const Bytes reduce_budget = task_memory_ * reduce_input_buffer_percent_;
  if (pool_ <= reduce_budget) {
    kept_in_memory_ = pool_;
    pool_ = Bytes(0);
    pool_segments_ = 0;
    return Bytes(0);
  }
  const Bytes flushed = pool_;
  flush_pool();
  return flushed;
}

}  // namespace mron::mapreduce

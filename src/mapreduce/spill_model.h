// Pure (engine-free) models of the map-side sort/spill pipeline and the
// reduce-side shuffle buffer — the mechanics that the Table-2 memory
// parameters control and that Figures 7-9 of the paper measure.
//
// Map side: output records stream into a circular sort buffer of
// io.sort.mb; a background spill is triggered every time the buffer reaches
// sort.spill.percent of capacity, and whatever remains is flushed when the
// map finishes. One spill file means the file is simply renamed to the map
// output (the optimal case: every record written exactly once). More than
// one spill file forces a merge: intermediate rounds happen while the file
// count exceeds io.sort.factor, then a final round writes the single map
// output file — every merge write re-counts its records as spilled, which
// is how Hadoop's SPILLED_RECORDS reaches ~3x map-output records in the
// worst case.
//
// Reduce side: fetched map segments go straight to disk when larger than
// shuffle.memory.limit.percent of the shuffle buffer
// (= memory.mb * shuffle.input.buffer.percent); otherwise they accumulate
// in memory until shuffle.merge.percent of the buffer is filled or
// merge.inmem.threshold segments are buffered, at which point the in-memory
// pool is merged and flushed to one disk file. After the last fetch,
// reduce.input.buffer.percent of the task memory may keep segments in
// memory for the reduce phase; the rest is flushed. Disk files above
// io.sort.factor cost intermediate merge rounds.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "mapreduce/params.h"

namespace mron::mapreduce {

/// Per-record accounting overhead in the map sort buffer (Hadoop keeps
/// 16 bytes of index metadata per record alongside the serialized record),
/// which shrinks the buffer's effective data capacity — sharply so for
/// small records like WordCount's.
constexpr double kSpillMetadataBytes = 16.0;

/// JVM heap as a fraction of the container's memory (Hadoop sets
/// -Xmx to ~80% of the container so native/metaspace overhead fits).
/// Shuffle buffers are percentages of the heap, not the container.
constexpr double kHeapFraction = 0.8;

/// Snappy-like intermediate-compression model (extension parameter
/// mapreduce.map.output.compress): on-disk/on-wire bytes shrink to this
/// fraction of the raw bytes...
constexpr double kCodecCompressionRatio = 0.45;
/// ...at these CPU prices per raw MiB, on the map (compress) and reduce
/// (decompress) sides.
constexpr double kCompressCpuSecsPerMib = 0.010;
constexpr double kDecompressCpuSecsPerMib = 0.005;

/// Cost of merging `file_sizes` down to at most `factor` files by repeatedly
/// merging the `factor` smallest (Hadoop's merge policy, simplified): bytes
/// re-read and re-written by intermediate rounds only.
struct MergeCost {
  Bytes read{0};
  Bytes write{0};
  int rounds = 0;
};
MergeCost plan_disk_merge(std::vector<Bytes> file_sizes, int factor);

/// Map-side spill plan for one task.
struct MapSpillPlan {
  int num_spills = 0;                 ///< spill files written during the map
  std::int64_t spill_records = 0;     ///< SPILLED_RECORDS contribution
  Bytes disk_write_bytes{0};          ///< all local writes (spills + merges)
  Bytes disk_read_bytes{0};           ///< merge re-reads
  int merge_rounds = 0;               ///< rounds beyond the initial spills
};
MapSpillPlan plan_map_spills(Bytes map_output_bytes,
                             std::int64_t map_output_records,
                             double combiner_ratio, const JobConfig& cfg);

/// Incremental reduce-side shuffle buffer accounting. Records are derived
/// from bytes via `record_bytes`.
class ShuffleBufferModel {
 public:
  ShuffleBufferModel(const JobConfig& cfg, double record_bytes);

  /// Account one fetched segment. Returns bytes written to disk *now* (0 if
  /// the segment was absorbed into the in-memory pool without a flush).
  Bytes add_segment(Bytes segment);

  /// Account `count` equal-sized segments in one call, computing the
  /// steady-state fill→merge→flush cycle in closed form. Bit-exact against
  /// calling add_segment(segment) `count` times: identical pool state,
  /// disk-file list, spilled-record and merge counts, and the same total
  /// flushed bytes (the sum of what the incremental calls would return).
  /// O(1) in `count` except for appending the flushed-file entries.
  Bytes add_segments(int count, Bytes segment);

  /// Account end-of-shuffle: applies reduce.input.buffer.percent and
  /// returns bytes flushed by the final spill (0 if everything left in
  /// memory fits the reduce-phase budget).
  Bytes finalize();

  // --- results (valid after finalize) ---------------------------------------
  [[nodiscard]] Bytes bytes_kept_in_memory() const { return kept_in_memory_; }
  [[nodiscard]] Bytes disk_write_bytes() const { return disk_write_; }
  [[nodiscard]] std::int64_t spilled_records() const { return spilled_records_; }
  [[nodiscard]] const std::vector<Bytes>& disk_files() const {
    return disk_files_;
  }
  [[nodiscard]] int inmem_merges() const { return inmem_merges_; }

  [[nodiscard]] Bytes shuffle_buffer() const { return shuffle_buffer_; }

  /// Live re-tuning (category-III parameters): refresh thresholds from a
  /// changed config without losing pool state.
  void update_live_params(const JobConfig& cfg);

 private:
  void flush_pool();

  double record_bytes_;
  Bytes task_memory_;
  Bytes shuffle_buffer_;
  Bytes segment_limit_;
  Bytes merge_trigger_;
  std::int64_t inmem_threshold_;
  double reduce_input_buffer_percent_;

  Bytes pool_{0};
  int pool_segments_ = 0;
  Bytes kept_in_memory_{0};
  Bytes disk_write_{0};
  std::int64_t spilled_records_ = 0;
  std::vector<Bytes> disk_files_;
  int inmem_merges_ = 0;
  bool finalized_ = false;
};

}  // namespace mron::mapreduce

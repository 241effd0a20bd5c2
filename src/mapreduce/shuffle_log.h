// One job's shuffle log: every map completion, bucketed by the host that
// holds its output, read by the job's reduce attempts through cursors.
//
// This is Hadoop 2's TaskCompletionEvent model. The AM appends one entry
// per map completion (a re-executed map appends again) and never writes
// into a reducer; each reduce attempt keeps, per source host, a cursor into
// that host's list and reads up to kMaxSegmentsPerFetch consecutive entries
// per fetch visit (reduce_task.h). A map completion therefore costs one
// append plus a wake-up for each reader whose queue on that host is empty,
// and a reducer launch costs O(hosts), not O(maps).
//
// Each entry records its map, the map's whole output (a reducer's segment
// is that times its partition weight), the "map_done" critical-path node,
// and the log clock at which it died (a lost output). The clock ticks on
// every death, so a reader compares it with the clock at its launch: an
// entry already dead then was never delivered to it, while one that died
// later stays queued and fails the visit's availability check.
//
// Each host also carries its loss epoch. It moves whenever output there
// may stop being available: the node was lost, or a map that ran there
// was invalidated. A visit whose source's epoch has not moved since its
// segments were delivered skips the per-segment availability query.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/node.h"
#include "common/units.h"
#include "obs/critical_path.h"

namespace mron::mapreduce {

class ReduceTask;

class ShuffleLog {
 public:
  static constexpr std::uint32_t kAlive =
      std::numeric_limits<std::uint32_t>::max();

  struct Entry {
    int map = -1;
    std::int32_t host = -1;   ///< host slot (see node())
    std::int32_t index = -1;  ///< position in that host's list
    /// The map's previous entry (dead by now), -1 for its first.
    std::int32_t prev = -1;
    std::uint32_t died = kAlive;  ///< log clock at death
    Bytes output{0};              ///< all partitions
    obs::CpNode cp = obs::kInvalidCpNode;  ///< the completion's "map_done"
  };

  /// `num_nodes` bounds the NodeId values seen; `num_reduces` the reader
  /// indices (ReduceTask::Inputs::task.index).
  ShuffleLog(int num_maps, int num_reduces, int num_nodes);

  ShuffleLog(const ShuffleLog&) = delete;
  ShuffleLog& operator=(const ShuffleLog&) = delete;

  // --- the AM's side --------------------------------------------------------
  /// Map `map` completed at `node` with `output` bytes over all partitions.
  /// Readers still holding an older copy of the map ignore the entry; every
  /// other reader whose queue on `node` is empty is woken, in reader-index
  /// order.
  void append(int map, cluster::NodeId node, Bytes output, obs::CpNode cp);
  /// The map's live output is lost: its entry dies and its host's epoch
  /// moves.
  void lose_output(int map);
  /// `node` is lost: its epoch moves. Its entries die through lose_output.
  void lose_host(cluster::NodeId node);

  // --- queries --------------------------------------------------------------
  [[nodiscard]] int num_maps() const { return static_cast<int>(live_.size()); }
  /// True while the map has a live entry.
  [[nodiscard]] bool done(int map) const { return live(map) >= 0; }
  /// The map's live entry, -1 while it has none.
  [[nodiscard]] std::int32_t live(int map) const {
    return live_[static_cast<std::size_t>(map)];
  }
  /// Whether the map's live output sits at `node`.
  [[nodiscard]] bool available(int map, cluster::NodeId node) const;
  /// Loss epoch of `node` (0 until it first moves).
  [[nodiscard]] std::uint32_t epoch(cluster::NodeId node) const;
  /// The log's end; a retried reducer's cursor.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const Entry& entry(std::int32_t pos) const {
    return entries_[static_cast<std::size_t>(pos)];
  }
  /// Host slots: every node that has held output or lost its epoch, in the
  /// order the log first saw it.
  [[nodiscard]] std::int32_t num_hosts() const {
    return static_cast<std::int32_t>(hosts_.size());
  }
  [[nodiscard]] cluster::NodeId node(std::int32_t host) const {
    return hosts_[static_cast<std::size_t>(host)].node;
  }
  [[nodiscard]] std::uint32_t host_epoch(std::int32_t host) const {
    return hosts_[static_cast<std::size_t>(host)].epoch;
  }
  /// The host's entries (positions into the log), in completion order.
  [[nodiscard]] const std::vector<std::int32_t>& list(
      std::int32_t host) const {
    return hosts_[static_cast<std::size_t>(host)].list;
  }
  /// The host slot of `node`, -1 if the log has not seen it.
  [[nodiscard]] std::int32_t host_of(cluster::NodeId node) const {
    return slot_of_[static_cast<std::size_t>(node.value())];
  }
  /// Ticks on every death; see the header.
  [[nodiscard]] std::uint32_t clock() const { return clock_; }

 private:
  friend class ReduceTask;

  struct Host {
    cluster::NodeId node;
    std::uint32_t epoch = 0;
    std::vector<std::int32_t> list;
    /// One bit per reader index: the reader's queue here is empty, so the
    /// next entry wakes it. A bit left by an attempt that has since gone is
    /// harmless: the reader checks its own state when woken.
    std::vector<std::uint64_t> waiters;
  };

  std::int32_t slot_for(cluster::NodeId node);
  // Readers: attached reduce attempts whose shuffle is open.
  void subscribe(int reader, ReduceTask* task);
  void unsubscribe(int reader, const ReduceTask* task);
  void wait_on(std::int32_t host, int reader);

  std::vector<Entry> entries_;
  std::vector<Host> hosts_;
  std::vector<std::int32_t> slot_of_;  ///< NodeId value -> host slot
  std::vector<std::int32_t> live_;     ///< map -> live entry
  std::vector<std::int32_t> last_;     ///< map -> newest entry, live or not
  std::vector<ReduceTask*> readers_;   ///< by reader index
  std::vector<std::uint64_t> subscribed_;  ///< bits of readers_ != null
  std::uint32_t clock_ = 0;
};

}  // namespace mron::mapreduce

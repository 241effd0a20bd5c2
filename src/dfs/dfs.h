// HDFS-like distributed file system model.
//
// Tracks datasets as sequences of fixed-size blocks placed by HDFS's
// rack-aware policy (first replica on a random node, second off its rack,
// third beside the second).
// Map input splits are one-per-block; the scheduler queries replica
// locations to make locality-aware container placements.
//
// The DFS is a live participant in failure and recovery: the Simulation
// wires the RM watchdog's node-lost/recovered events into on_node_lost()/
// on_node_recovered(), so pick_replica()/locality() skip dead hosts, every
// block's live-replica count is tracked incrementally (per-node block
// indexes, O(blocks on the node) per event), and blocks whose live count
// falls below target enter the under-replication queue that drives the
// Rereplicator (rereplicator.h). Readers of a block with no live replica
// park a waiter and are resumed — in registration order — the moment a
// replica returns (node recovery restores its disks, HDFS-style, or a
// re-replication copy completes). On a reliable cluster none of this state
// ever changes after placement, so fault-free runs are event-for-event
// identical to the pre-liveness DFS.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/topology.h"
#include "common/rng.h"
#include "common/strong_id.h"
#include "common/units.h"

namespace mron::dfs {

struct DatasetTag {};
using DatasetId = StrongId<DatasetTag>;

enum class Locality { NodeLocal, RackLocal, OffRack };

struct Block {
  Bytes size;
  std::vector<cluster::NodeId> replicas;
  /// Replication target: how many replicas placement produced. The
  /// re-replication pipeline restores the block to this count after
  /// permanent node loss.
  int target = 0;
  /// Replicas currently on live nodes; maintained incrementally by the
  /// node-lost/recovered handlers and add_replica().
  int live = 0;
};

struct Dataset {
  DatasetId id;
  std::string name;
  Bytes total_size;
  std::vector<Block> blocks;
};

class Dfs {
 public:
  using BlockWaiter = std::function<void()>;
  /// Under-replication priority key: fewest live replicas first (most
  /// endangered blocks re-replicate first), ties in (dataset, block) order.
  using UnderKey = std::tuple<int, std::int64_t, std::int64_t>;

  Dfs(const cluster::Topology& topo, Rng rng,
      Bytes block_size = mebibytes(128), int replication = 3);

  /// Create a dataset of `total_size` bytes, split into ceil(size/block)
  /// blocks, the last one partial. `replication` overrides the DFS default
  /// for this dataset (-1 = default); it is clamped to the node count.
  DatasetId create_dataset(const std::string& name, Bytes total_size,
                           int replication = -1);

  [[nodiscard]] const Dataset& dataset(DatasetId id) const;
  [[nodiscard]] Bytes block_size() const { return block_size_; }
  [[nodiscard]] int default_replication() const { return replication_; }

  /// Locality class of reading `block` of `ds` from node `reader`,
  /// considering live replicas only (OffRack when none is live).
  [[nodiscard]] Locality locality(DatasetId ds, std::size_t block,
                                  cluster::NodeId reader) const;
  /// Replica to fetch from for a reader: the live local one if present,
  /// else a live rack-local one, else the closest live replica (first in
  /// placement order — all remaining candidates are equally remote).
  /// Invalid NodeId when no replica is live (guard with has_live_replica).
  [[nodiscard]] cluster::NodeId pick_replica(DatasetId ds, std::size_t block,
                                             cluster::NodeId reader) const;

  // --- liveness (wired to the RM watchdog by the Simulation) ----------------
  /// A node was declared lost: its replicas stop serving reads and their
  /// blocks' live counts drop (entering the under-replication queue when
  /// they fall below target). Idempotent.
  void on_node_lost(cluster::NodeId node);
  /// The node came back: its disks survived the restart (HDFS semantics),
  /// so every replica it holds serves again; blocks back at target leave
  /// the under-replication queue and dead-block waiters fire. Idempotent.
  void on_node_recovered(cluster::NodeId node);
  [[nodiscard]] bool node_alive(cluster::NodeId node) const {
    return alive_[static_cast<std::size_t>(node.value())];
  }

  [[nodiscard]] int live_replicas(DatasetId ds, std::size_t block) const;
  [[nodiscard]] bool has_live_replica(DatasetId ds, std::size_t block) const {
    return live_replicas(ds, block) > 0;
  }

  /// Park `cb` until `block` has a live replica again; fires immediately
  /// (synchronously) when it already does. Waiters for one block fire in
  /// registration order. The AM's map path uses this to block
  /// deterministically on an unavailable split instead of reading a corpse.
  void wait_for_block(DatasetId ds, std::size_t block, BlockWaiter cb);

  /// A re-replication copy landed: `node` (alive, not yet a replica) now
  /// serves the block. Updates live counts, the under-replication queue,
  /// and fires dead-block waiters.
  void add_replica(DatasetId ds, std::size_t block, cluster::NodeId node);

  // --- under-replication queue ----------------------------------------------
  /// Blocks with live < target, most endangered first. The Rereplicator
  /// walks this to schedule copies; membership updates are O(log n) per
  /// liveness event.
  [[nodiscard]] const std::set<UnderKey>& under_replicated() const {
    return under_;
  }
  [[nodiscard]] std::size_t under_replicated_blocks() const {
    return under_.size();
  }
  [[nodiscard]] std::size_t total_blocks() const { return total_blocks_; }
  /// Replica count hosted on `node` (dead or alive) — the re-replication
  /// target selector's balance signal.
  [[nodiscard]] std::int64_t blocks_hosted(cluster::NodeId node) const {
    return static_cast<std::int64_t>(
        node_blocks_[static_cast<std::size_t>(node.value())].size());
  }

  [[nodiscard]] const cluster::Topology& topology() const { return topo_; }

 private:
  /// One replica's reverse-index entry: which block of which dataset.
  struct BlockRef {
    std::int64_t ds;
    std::int64_t block;
  };

  /// The bulk-placement pass behind create_dataset(): fills `replicas` of
  /// every block in one sweep, with per-dataset invariants (node count,
  /// replica target) hoisted out of the per-block loop. It draws from rng_
  /// exactly as the legacy per-block placement did — same RNG stream, same
  /// placements (pinned by the placement equivalence suite).
  void place_replicas_bulk(std::vector<Block>& blocks, int want);

  [[nodiscard]] Block& block_at(DatasetId ds, std::size_t block);
  /// Re-file the block in the under-replication queue after its live count
  /// moved from `old_live`.
  void refile_under(std::int64_t ds, std::int64_t block, int old_live);
  /// live went 0 -> 1: resume every parked reader, in registration order.
  void fire_waiters(std::int64_t ds, std::int64_t block);

  const cluster::Topology& topo_;
  Rng rng_;
  Bytes block_size_;
  int replication_;
  std::vector<Dataset> datasets_;
  std::size_t total_blocks_ = 0;
  /// Node liveness as the DFS sees it (fed by the RM watchdog).
  std::vector<bool> alive_;
  /// Per node: every replica it hosts, appended at placement/add_replica —
  /// makes node-lost/recovered O(blocks on that node).
  std::vector<std::vector<BlockRef>> node_blocks_;
  std::set<UnderKey> under_;
  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<BlockWaiter>>
      waiters_;
};

const char* locality_name(Locality loc);

}  // namespace mron::dfs

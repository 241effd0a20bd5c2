#include "dfs/dfs.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "cluster/cluster_spec.h"
#include "common/rng.h"

namespace mron::dfs {
namespace {

/// Distinct in-range replicas, and a target equal to what placement
/// produced, so a degenerate placement never parks in the
/// under-replication queue.
void expect_valid_placement(const cluster::Topology& topo, const Block& b) {
  const std::set<cluster::NodeId> uniq(b.replicas.begin(), b.replicas.end());
  EXPECT_EQ(uniq.size(), b.replicas.size()) << "duplicate replica";
  EXPECT_LE(static_cast<int>(b.replicas.size()), topo.num_nodes());
  EXPECT_EQ(b.target, static_cast<int>(b.replicas.size()));
  EXPECT_EQ(b.live, b.target);
  for (auto r : b.replicas) {
    EXPECT_GE(r.value(), 0);
    EXPECT_LT(r.value(), topo.num_nodes());
  }
}

class DfsTest : public ::testing::Test {
 protected:
  cluster::ClusterSpec spec;
  cluster::Topology topo{spec};
  Dfs dfs{topo, Rng(42)};
};

TEST_F(DfsTest, BlockCountAndSizes) {
  const auto id = dfs.create_dataset("wiki", gibibytes(1));
  const auto& ds = dfs.dataset(id);
  // 1 GiB / 128 MiB = 8 full blocks.
  EXPECT_EQ(ds.blocks.size(), 8u);
  Bytes total{0};
  for (const auto& b : ds.blocks) total += b.size;
  EXPECT_EQ(total, gibibytes(1));
}

TEST_F(DfsTest, PartialLastBlock) {
  const auto id = dfs.create_dataset("odd", mebibytes(300));
  const auto& ds = dfs.dataset(id);
  ASSERT_EQ(ds.blocks.size(), 3u);
  EXPECT_EQ(ds.blocks[0].size, mebibytes(128));
  EXPECT_EQ(ds.blocks[1].size, mebibytes(128));
  EXPECT_EQ(ds.blocks[2].size, mebibytes(44));
}

TEST_F(DfsTest, ReplicationPolicy) {
  const auto id = dfs.create_dataset("d", gibibytes(10));
  for (const auto& b : dfs.dataset(id).blocks) {
    ASSERT_EQ(b.replicas.size(), 3u);
    // All replicas distinct.
    std::set<cluster::NodeId> uniq(b.replicas.begin(), b.replicas.end());
    EXPECT_EQ(uniq.size(), 3u);
    // Second replica off the first's rack; third on the second's rack.
    EXPECT_FALSE(topo.same_rack(b.replicas[0], b.replicas[1]));
    EXPECT_TRUE(topo.same_rack(b.replicas[1], b.replicas[2]));
  }
}

TEST_F(DfsTest, LocalityClassification) {
  const auto id = dfs.create_dataset("d", mebibytes(128));
  const auto& block = dfs.dataset(id).blocks[0];
  EXPECT_EQ(dfs.locality(id, 0, block.replicas[0]), Locality::NodeLocal);
  // A rack-mate of a replica that is not itself a replica.
  for (auto n : topo.all_nodes()) {
    const bool is_replica =
        std::find(block.replicas.begin(), block.replicas.end(), n) !=
        block.replicas.end();
    if (is_replica) continue;
    bool rack_of_replica = false;
    for (auto r : block.replicas) {
      if (topo.same_rack(n, r)) rack_of_replica = true;
    }
    EXPECT_EQ(dfs.locality(id, 0, n),
              rack_of_replica ? Locality::RackLocal : Locality::OffRack);
  }
}

TEST_F(DfsTest, PickReplicaPrefersLocalThenRack) {
  const auto id = dfs.create_dataset("d", mebibytes(128));
  const auto& block = dfs.dataset(id).blocks[0];
  EXPECT_EQ(dfs.pick_replica(id, 0, block.replicas[1]), block.replicas[1]);
  // A non-replica rack-mate of replica 0 gets replica 0 (rack local).
  for (auto n : topo.nodes_in_rack(topo.rack_of(block.replicas[0]))) {
    if (std::find(block.replicas.begin(), block.replicas.end(), n) !=
        block.replicas.end()) {
      continue;
    }
    const auto picked = dfs.pick_replica(id, 0, n);
    EXPECT_TRUE(topo.same_rack(picked, n));
    break;
  }
}

TEST_F(DfsTest, PlacementIsRoughlyBalanced) {
  const auto id = dfs.create_dataset("big", gibibytes(90));
  std::vector<int> per_node(static_cast<std::size_t>(topo.num_nodes()), 0);
  int total = 0;
  for (const auto& b : dfs.dataset(id).blocks) {
    for (auto r : b.replicas) {
      ++per_node[static_cast<std::size_t>(r.value())];
      ++total;
    }
  }
  const double avg = static_cast<double>(total) / topo.num_nodes();
  for (int c : per_node) {
    EXPECT_GT(c, avg * 0.5);
    EXPECT_LT(c, avg * 1.5);
  }
}

TEST_F(DfsTest, EmptyDatasetHasNoBlocks) {
  const auto id = dfs.create_dataset("empty", Bytes(0));
  EXPECT_TRUE(dfs.dataset(id).blocks.empty());
}

// --- placement on degenerate topologies and replication overrides ----------

TEST(PlacementPolicyEdge, ReplicationAboveNodeCountClamps) {
  const cluster::Topology topo(cluster::scaled_spec(4, 2));
  Dfs dfs(topo, Rng(7), mebibytes(128), /*replication=*/10);
  const auto id = dfs.create_dataset("d", mebibytes(128.0 * 6));
  for (const auto& b : dfs.dataset(id).blocks) {
    expect_valid_placement(topo, b);
    EXPECT_LE(static_cast<int>(b.replicas.size()), 4);
    EXPECT_GE(static_cast<int>(b.replicas.size()), 1);
  }
  EXPECT_EQ(dfs.under_replicated_blocks(), 0u);
}

TEST(PlacementPolicyEdge, OneNodeCluster) {
  const cluster::Topology topo(cluster::scaled_spec(1, 1));
  Dfs dfs(topo, Rng(7), mebibytes(128), /*replication=*/3);
  const auto id = dfs.create_dataset("d", mebibytes(300));
  for (const auto& b : dfs.dataset(id).blocks) {
    expect_valid_placement(topo, b);
    ASSERT_EQ(b.replicas.size(), 1u);
    EXPECT_EQ(b.replicas[0], cluster::NodeId(0));
  }
  EXPECT_EQ(dfs.under_replicated_blocks(), 0u);
}

TEST(PlacementPolicyEdge, SingleRackTopology) {
  const cluster::Topology topo(cluster::scaled_spec(5, 5));
  Dfs dfs(topo, Rng(7), mebibytes(128), /*replication=*/3);
  const auto id = dfs.create_dataset("d", mebibytes(128.0 * 8));
  for (const auto& b : dfs.dataset(id).blocks) {
    expect_valid_placement(topo, b);
    // With one rack nothing can be isolated across racks; placement must
    // still put three distinct in-rack replicas rather than loop or bail.
    EXPECT_EQ(b.replicas.size(), 3u);
  }
  EXPECT_EQ(dfs.under_replicated_blocks(), 0u);
}

TEST(PlacementPolicyShape, RackAwareIsolatesAcrossTwoRacks) {
  // The HDFS shape on the smallest topology that can satisfy it.
  const cluster::Topology topo(cluster::scaled_spec(8, 4));
  Dfs dfs(topo, Rng(11), mebibytes(128), 3);
  const auto id = dfs.create_dataset("d", mebibytes(128.0 * 16));
  for (const auto& b : dfs.dataset(id).blocks) {
    ASSERT_EQ(b.replicas.size(), 3u);
    EXPECT_NE(topo.rack_of(b.replicas[0]), topo.rack_of(b.replicas[1]));
    EXPECT_EQ(topo.rack_of(b.replicas[1]), topo.rack_of(b.replicas[2]));
  }
}

TEST(PlacementPolicyShape, PerDatasetReplicationOverride) {
  const cluster::Topology topo(cluster::scaled_spec(8, 4));
  Dfs dfs(topo, Rng(11), mebibytes(128), 3);
  const auto one = dfs.create_dataset("single", mebibytes(256), 1);
  const auto five = dfs.create_dataset("wide", mebibytes(256), 5);
  const auto dflt = dfs.create_dataset("default", mebibytes(256));
  for (const auto& b : dfs.dataset(one).blocks) {
    EXPECT_EQ(b.replicas.size(), 1u);
  }
  for (const auto& b : dfs.dataset(five).blocks) {
    expect_valid_placement(topo, b);
    EXPECT_EQ(b.replicas.size(), 5u);
  }
  for (const auto& b : dfs.dataset(dflt).blocks) {
    EXPECT_EQ(b.replicas.size(), 3u);
  }
}

// --- liveness: dead-replica awareness ---------------------------------------

// Three racks so a reader can be genuinely off-rack from every replica;
// one block keeps the replica set small enough to enumerate.
class DfsLivenessTest : public ::testing::Test {
 protected:
  cluster::ClusterSpec spec = cluster::scaled_spec(9, 3);
  cluster::Topology topo{spec};
  Dfs dfs{topo, Rng(42)};
};

TEST_F(DfsLivenessTest, PickReplicaSkipsDeadHosts) {
  const auto id = dfs.create_dataset("d", mebibytes(128));
  const auto& block = dfs.dataset(id).blocks[0];
  ASSERT_EQ(block.replicas.size(), 3u);
  dfs.on_node_lost(block.replicas[0]);
  // The dead host's own read falls through to a live replica.
  const auto picked = dfs.pick_replica(id, 0, block.replicas[0]);
  ASSERT_TRUE(picked.valid());
  EXPECT_NE(picked, block.replicas[0]);
  EXPECT_TRUE(picked == block.replicas[1] || picked == block.replicas[2]);
  // Liveness classification follows: the dead local replica no longer
  // counts as NodeLocal.
  EXPECT_NE(dfs.locality(id, 0, block.replicas[0]), Locality::NodeLocal);
}

TEST_F(DfsLivenessTest, OffRackReaderGetsClosestLiveReplica) {
  // Regression for the pick_replica fallback: with no node-local or
  // rack-local candidate it used to return replicas[0] unconditionally —
  // even when that host was dead.
  const auto id = dfs.create_dataset("d", mebibytes(128));
  const auto& block = dfs.dataset(id).blocks[0];
  std::set<cluster::RackId> replica_racks;
  for (auto r : block.replicas) replica_racks.insert(topo.rack_of(r));
  cluster::NodeId off_rack_reader;
  for (auto n : topo.all_nodes()) {
    if (replica_racks.count(topo.rack_of(n)) == 0) off_rack_reader = n;
  }
  ASSERT_TRUE(off_rack_reader.valid());
  ASSERT_EQ(dfs.locality(id, 0, off_rack_reader), Locality::OffRack);
  EXPECT_EQ(dfs.pick_replica(id, 0, off_rack_reader), block.replicas[0]);
  dfs.on_node_lost(block.replicas[0]);
  const auto picked = dfs.pick_replica(id, 0, off_rack_reader);
  ASSERT_TRUE(picked.valid());
  EXPECT_NE(picked, block.replicas[0]);
  EXPECT_TRUE(dfs.node_alive(picked));
}

TEST_F(DfsLivenessTest, NoLiveReplicaParksWaitersInFifoOrder) {
  const auto id = dfs.create_dataset("d", mebibytes(128));
  const auto replicas = dfs.dataset(id).blocks[0].replicas;
  for (auto r : replicas) dfs.on_node_lost(r);
  EXPECT_FALSE(dfs.has_live_replica(id, 0));
  EXPECT_FALSE(dfs.pick_replica(id, 0, cluster::NodeId(0)).valid());
  EXPECT_EQ(dfs.under_replicated_blocks(), 1u);

  std::vector<int> order;
  dfs.wait_for_block(id, 0, [&] { order.push_back(1); });
  dfs.wait_for_block(id, 0, [&] { order.push_back(2); });
  EXPECT_TRUE(order.empty());
  dfs.on_node_recovered(replicas[1]);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(dfs.has_live_replica(id, 0));
}

TEST_F(DfsLivenessTest, WaiterFiresSynchronouslyWhenAlreadyLive) {
  const auto id = dfs.create_dataset("d", mebibytes(128));
  bool fired = false;
  dfs.wait_for_block(id, 0, [&] { fired = true; });
  EXPECT_TRUE(fired);
}

TEST_F(DfsLivenessTest, AddReplicaRestoresServiceAndFiresWaiters) {
  const auto id = dfs.create_dataset("d", mebibytes(128));
  const auto replicas = dfs.dataset(id).blocks[0].replicas;
  for (auto r : replicas) dfs.on_node_lost(r);
  bool fired = false;
  dfs.wait_for_block(id, 0, [&] { fired = true; });

  cluster::NodeId fresh;
  for (auto n : topo.all_nodes()) {
    if (std::find(replicas.begin(), replicas.end(), n) == replicas.end()) {
      fresh = n;
      break;
    }
  }
  dfs.add_replica(id, 0, fresh);
  EXPECT_TRUE(fired);
  EXPECT_EQ(dfs.live_replicas(id, 0), 1);
  EXPECT_EQ(dfs.pick_replica(id, 0, fresh), fresh);
  const auto& block = dfs.dataset(id).blocks[0];
  EXPECT_NE(std::find(block.replicas.begin(), block.replicas.end(), fresh),
            block.replicas.end());
}

TEST_F(DfsLivenessTest, UnderReplicationQueueOrdersMostEndangeredFirst) {
  const auto a = dfs.create_dataset("a", mebibytes(128));
  const auto b = dfs.create_dataset("b", mebibytes(128));
  const auto& ra = dfs.dataset(a).blocks[0].replicas;
  const auto& rb = dfs.dataset(b).blocks[0].replicas;
  // Drop dataset b's block to one live replica; a loses at least one host
  // too (replica sets overlap on nine nodes). The queue must list blocks
  // in ascending live order with keys that match the actual live counts.
  dfs.on_node_lost(ra[0]);
  for (auto r : rb) {
    if (dfs.live_replicas(b, 0) > 1) dfs.on_node_lost(r);
  }
  ASSERT_EQ(dfs.live_replicas(b, 0), 1);
  ASSERT_GE(dfs.under_replicated_blocks(), 2u);
  int last_live = 0;
  for (const auto& [live, ds, block] : dfs.under_replicated()) {
    EXPECT_GE(live, last_live);
    last_live = live;
    EXPECT_EQ(live, dfs.live_replicas(DatasetId(ds),
                                      static_cast<std::size_t>(block)));
  }
  // The head is a most-endangered block: one live replica.
  EXPECT_EQ(std::get<0>(*dfs.under_replicated().begin()), 1);
}

TEST_F(DfsLivenessTest, LivenessEventsAreIdempotent) {
  const auto id = dfs.create_dataset("d", mebibytes(128));
  const auto& block = dfs.dataset(id).blocks[0];
  dfs.on_node_lost(block.replicas[0]);
  dfs.on_node_lost(block.replicas[0]);
  EXPECT_EQ(dfs.live_replicas(id, 0), 2);
  EXPECT_EQ(dfs.under_replicated_blocks(), 1u);
  dfs.on_node_recovered(block.replicas[0]);
  dfs.on_node_recovered(block.replicas[0]);
  EXPECT_EQ(dfs.live_replicas(id, 0), 3);
  EXPECT_EQ(dfs.under_replicated_blocks(), 0u);
}

TEST(DfsSingleRack, SecondReplicaFallsBackToSameRack) {
  cluster::ClusterSpec spec = cluster::scaled_spec(3, 3);
  cluster::Topology topo(spec);
  Dfs dfs(topo, Rng(1));
  const auto id = dfs.create_dataset("d", mebibytes(256));
  for (const auto& b : dfs.dataset(id).blocks) {
    ASSERT_GE(b.replicas.size(), 2u);
    EXPECT_NE(b.replicas[0], b.replicas[1]);
  }
}

}  // namespace
}  // namespace mron::dfs

// The indexed place_replicas must reproduce the legacy list-materializing
// placement draw for draw: same RNG consumption, same winners.
// The
// reference below *is* the legacy algorithm (build the candidate vector,
// index it with one uniform draw); the production code replaced the vectors
// with rack-range arithmetic, and this test pins the equivalence across
// homogeneous, heterogeneous, and degenerate topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/cluster_spec.h"
#include "common/rng.h"
#include "dfs/dfs.h"

namespace mron::dfs {
namespace {

using cluster::NodeId;
using cluster::Topology;

std::vector<NodeId> reference_place(const Topology& topo, Rng& rng) {
  const int n = topo.num_nodes();
  const int want = std::min(3, n);  // default replication factor is 3
  std::vector<NodeId> replicas;

  const NodeId first(rng.uniform_int(0, n - 1));
  replicas.push_back(first);
  if (want == 1) return replicas;

  // Second: materialize every off-rack node, ascending, and draw one.
  std::vector<NodeId> off_rack;
  for (int i = 0; i < n; ++i) {
    if (!topo.same_rack(NodeId(i), first)) off_rack.emplace_back(i);
  }
  NodeId second = first;
  if (!off_rack.empty()) {
    second = off_rack[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(off_rack.size()) - 1))];
  } else {
    while (second == first && n > 1) {
      second = NodeId(rng.uniform_int(0, n - 1));
    }
  }
  replicas.push_back(second);
  if (want == 2) return replicas;

  // Third: materialize the second's rackmates minus {first, second}.
  std::vector<NodeId> rackmates;
  for (int i = 0; i < n; ++i) {
    const NodeId cand(i);
    if (topo.same_rack(cand, second) && cand != second && cand != first) {
      rackmates.push_back(cand);
    }
  }
  NodeId third = first;
  if (!rackmates.empty()) {
    third = rackmates[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(rackmates.size()) - 1))];
  }
  if (third != first && third != second) replicas.push_back(third);
  return replicas;
}

void expect_equivalent(const cluster::ClusterSpec& spec, std::uint64_t seed,
                       int blocks) {
  const Topology topo(spec);
  Dfs dfs(topo, Rng(seed));
  const auto id =
      dfs.create_dataset("placement", mebibytes(128.0 * blocks));
  Rng ref_rng(seed);
  const auto& ds = dfs.dataset(id);
  ASSERT_EQ(ds.blocks.size(), static_cast<std::size_t>(blocks));
  for (std::size_t b = 0; b < ds.blocks.size(); ++b) {
    const auto expected = reference_place(topo, ref_rng);
    EXPECT_EQ(ds.blocks[b].replicas, expected)
        << "block " << b << " seed " << seed;
  }
}

TEST(PlacementEquivalence, TestbedTopology) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    expect_equivalent(cluster::ClusterSpec{}, seed, 200);
  }
}

TEST(PlacementEquivalence, HeterogeneousUnevenRacks) {
  const auto spec = cluster::parse_cluster_spec(
      "group name=a racks=2 nodes=3\n"
      "group name=b racks=1 nodes=11 mem_gb=32\n"
      "group name=c racks=3 nodes=5");
  for (std::uint64_t seed : {2u, 9u, 77u}) {
    expect_equivalent(spec, seed, 150);
  }
}

TEST(PlacementEquivalence, LargeScaledCluster) {
  expect_equivalent(cluster::scaled_spec(1023), 5, 100);
}

TEST(PlacementEquivalence, DegenerateTopologies) {
  // Single rack (off-rack fallback path), two nodes, single node.
  cluster::ClusterSpec one_rack = cluster::scaled_spec(5, 5);
  expect_equivalent(one_rack, 3, 60);

  cluster::ClusterSpec two_nodes = cluster::scaled_spec(2, 1);
  expect_equivalent(two_nodes, 11, 40);

  cluster::ClusterSpec single = cluster::scaled_spec(1, 1);
  expect_equivalent(single, 13, 20);
}

}  // namespace
}  // namespace mron::dfs

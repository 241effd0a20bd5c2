#include "cluster/topology.h"

#include <gtest/gtest.h>

#include "cluster/cluster_spec.h"
#include "common/check.h"

namespace mron::cluster {
namespace {

TEST(ClusterSpec, PaperDefaults) {
  ClusterSpec spec;
  EXPECT_EQ(spec.total_slaves(), 18);
  ASSERT_EQ(spec.groups.size(), 1u);
  const NodeHardware& hw = spec.groups.front().hardware;
  EXPECT_EQ(hw.container_vcores, 28);
  EXPECT_EQ(hw.container_memory, gibibytes(6));
  // 28 of 32 vcores on 8 physical cores minus 1 core of daemon overhead
  // -> 6 core-units for containers.
  EXPECT_DOUBLE_EQ(hw.container_core_units(), 6.0);
  EXPECT_DOUBLE_EQ(hw.core_units_per_vcore(), 0.25);
}

TEST(Topology, RackAssignment) {
  ClusterSpec spec;
  Topology topo(spec);
  EXPECT_EQ(topo.num_nodes(), 18);
  EXPECT_EQ(topo.num_racks(), 2);
  EXPECT_EQ(topo.rack_of(NodeId(0)), RackId(0));
  EXPECT_EQ(topo.rack_of(NodeId(8)), RackId(0));
  EXPECT_EQ(topo.rack_of(NodeId(9)), RackId(1));
  EXPECT_EQ(topo.rack_of(NodeId(17)), RackId(1));
  EXPECT_TRUE(topo.same_rack(NodeId(0), NodeId(8)));
  EXPECT_FALSE(topo.same_rack(NodeId(8), NodeId(9)));
}

TEST(Topology, NodesInRack) {
  ClusterSpec spec;
  Topology topo(spec);
  const auto rack0 = topo.nodes_in_rack(RackId(0));
  EXPECT_EQ(rack0.size(), 9u);
  for (auto n : rack0) EXPECT_EQ(topo.rack_of(n), RackId(0));
  EXPECT_EQ(topo.all_nodes().size(), 18u);
}

TEST(Topology, CustomShape) {
  Topology topo(scaled_spec(4, 2));
  EXPECT_EQ(topo.num_nodes(), 4);
  EXPECT_THROW((void)topo.rack_of(NodeId(4)), CheckError);
}

}  // namespace
}  // namespace mron::cluster

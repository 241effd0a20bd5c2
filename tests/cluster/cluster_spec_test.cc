#include "cluster/cluster_spec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/check.h"

namespace mron::cluster {
namespace {

TEST(ClusterSpecPresets, EmptyAndNamedArgsGiveTheTestbed) {
  for (const char* arg : {"", "testbed19", "default"}) {
    const ClusterSpec spec = load_cluster_spec(arg);
    EXPECT_EQ(spec.total_slaves(), 18) << arg;
    EXPECT_EQ(spec.rack_sizes, (std::vector<int>{9, 9})) << arg;
    EXPECT_TRUE(spec.groups.empty()) << arg;
  }
}

TEST(ClusterSpecPresets, NodesPresetPacksRacksOf64) {
  const ClusterSpec spec = load_cluster_spec("nodes:1023");
  EXPECT_EQ(spec.total_slaves(), 1023);
  // 15 full racks of 64 plus a 63-node tail rack.
  ASSERT_EQ(spec.groups.size(), 2u);
  EXPECT_EQ(spec.groups[0].racks, 15);
  EXPECT_EQ(spec.groups[0].nodes_per_rack, 64);
  EXPECT_EQ(spec.groups[1].racks, 1);
  EXPECT_EQ(spec.groups[1].nodes_per_rack, 63);
  const Topology topo(spec);
  EXPECT_EQ(topo.num_nodes(), 1023);
  EXPECT_EQ(topo.num_racks(), 16);
}

TEST(ClusterSpecPresets, NodesPresetHonorsRackSize) {
  const ClusterSpec spec = load_cluster_spec("nodes:100,rack:10");
  EXPECT_EQ(spec.total_slaves(), 100);
  ASSERT_EQ(spec.groups.size(), 1u);
  EXPECT_EQ(spec.groups[0].racks, 10);
  EXPECT_EQ(spec.groups[0].nodes_per_rack, 10);
  EXPECT_THROW((void)load_cluster_spec("nodes:100,stride:10"), CheckError);
}

TEST(ScaledSpec, KeepsTestbedHardwareAndValidates) {
  const ClusterSpec spec = scaled_spec(130, 32);
  EXPECT_EQ(spec.total_slaves(), 130);
  ASSERT_EQ(spec.groups.size(), 2u);
  EXPECT_EQ(spec.groups[0].racks, 4);
  EXPECT_EQ(spec.groups[1].nodes_per_rack, 2);
  // Scaled nodes run testbed-class hardware.
  const ClusterSpec testbed;
  EXPECT_EQ(spec.groups[0].hardware.container_vcores,
            testbed.container_vcores);
  EXPECT_EQ(spec.groups[0].hardware.node_memory, testbed.node_memory);
  EXPECT_THROW((void)scaled_spec(0), CheckError);
  EXPECT_THROW((void)scaled_spec(10, 0), CheckError);
}

TEST(ParseClusterSpec, InlineGroupsCommentsAndSemicolons) {
  const ClusterSpec spec = parse_cluster_spec(
      "inter_rack_factor 0.7; # ToR oversubscription\n"
      "group name=std racks=2 nodes=4\n"
      "group name=bigmem racks=1 nodes=2 cores=16 vcores=64 mem_gb=32 "
      "container_mem_gb=28 nic_gbps=10");
  EXPECT_DOUBLE_EQ(spec.inter_rack_factor, 0.7);
  ASSERT_EQ(spec.groups.size(), 2u);
  EXPECT_EQ(spec.total_slaves(), 2 * 4 + 2);
  // Omitted keys keep the testbed defaults.
  const ClusterSpec testbed;
  EXPECT_EQ(spec.groups[0].hardware.physical_cores, testbed.physical_cores);
  EXPECT_EQ(spec.groups[0].hardware.node_memory, testbed.node_memory);
  EXPECT_EQ(spec.groups[1].hardware.physical_cores, 16);
  EXPECT_EQ(spec.groups[1].hardware.total_vcores, 64);
  EXPECT_EQ(spec.groups[1].hardware.node_memory, gibibytes(32));
  EXPECT_DOUBLE_EQ(spec.groups[1].hardware.nic_bandwidth.rate(),
                   gbit_per_sec(10).rate());
  // sync_totals mirrors the groups into the legacy totals.
  EXPECT_EQ(spec.num_slaves, 10);
  EXPECT_EQ(spec.rack_sizes, (std::vector<int>{4, 4, 2}));
}

TEST(ParseClusterSpec, RoundTripsThroughRender) {
  const std::string text =
      "inter_rack_factor 0.25\n"
      "group name=a racks=3 nodes=7 cores=4 vcores=16 container_vcores=12 "
      "mem_gb=16 container_mem_gb=12 disk_mbps=120 seek_penalty=0.08 "
      "nic_gbps=10 daemon_reserve=0.5\n"
      "group name=b racks=1 nodes=3\n";
  const ClusterSpec spec = parse_cluster_spec(text);
  const std::string rendered = render_cluster_spec(spec);
  const ClusterSpec again = parse_cluster_spec(rendered);
  EXPECT_EQ(render_cluster_spec(again), rendered);
  EXPECT_EQ(again.total_slaves(), spec.total_slaves());
  ASSERT_EQ(again.groups.size(), spec.groups.size());
  for (std::size_t i = 0; i < spec.groups.size(); ++i) {
    EXPECT_EQ(again.groups[i].name, spec.groups[i].name);
    EXPECT_EQ(again.groups[i].racks, spec.groups[i].racks);
    EXPECT_EQ(again.groups[i].nodes_per_rack, spec.groups[i].nodes_per_rack);
    EXPECT_EQ(again.groups[i].hardware.node_memory,
              spec.groups[i].hardware.node_memory);
    EXPECT_DOUBLE_EQ(again.groups[i].hardware.disk_bandwidth.rate(),
                     spec.groups[i].hardware.disk_bandwidth.rate());
  }
}

TEST(ParseClusterSpec, HomogeneousSpecRendersAndRoundTrips) {
  // A groupless spec renders as one group per run of equal rack sizes and
  // parses back into the same topology shape.
  ClusterSpec spec;  // the 19-node testbed, rack_sizes {9, 9}
  const ClusterSpec again = parse_cluster_spec(render_cluster_spec(spec));
  EXPECT_EQ(again.total_slaves(), 18);
  ASSERT_EQ(again.groups.size(), 1u);
  EXPECT_EQ(again.groups[0].racks, 2);
  EXPECT_EQ(again.groups[0].nodes_per_rack, 9);
  EXPECT_EQ(again.groups[0].hardware.container_memory,
            spec.container_memory);
}

TEST(ParseClusterSpec, RejectsMalformedInput) {
  // Unknown statement, group without racks/nodes, bad number, unknown key,
  // no groups at all.
  EXPECT_THROW((void)parse_cluster_spec("racks 4"), CheckError);
  EXPECT_THROW((void)parse_cluster_spec("group name=a racks=2"), CheckError);
  EXPECT_THROW((void)parse_cluster_spec("group racks=two nodes=4"),
               CheckError);
  EXPECT_THROW((void)parse_cluster_spec("group racks=2 nodes=4 color=red"),
               CheckError);
  EXPECT_THROW((void)parse_cluster_spec("# only a comment"), CheckError);
  EXPECT_THROW((void)parse_cluster_spec("group racks=2.5 nodes=4"),
               CheckError);
  // All of them are user errors with a bare message (no check location).
  try {
    (void)parse_cluster_spec("racks 4");
    ADD_FAILURE() << "'racks 4' was accepted";
  } catch (const InputError& e) {
    EXPECT_EQ(std::string(e.what()), "unknown cluster spec statement: racks 4");
  }
  EXPECT_THROW((void)load_cluster_spec("nodes:0"), InputError);
}

TEST(ValidateClusterSpec, RejectsInvalidHardware) {
  // Container memory above node memory.
  EXPECT_THROW(
      (void)parse_cluster_spec(
          "group racks=1 nodes=2 mem_gb=8 container_mem_gb=16"),
      CheckError);
  // A daemon reserve that eats every core leaves no container core-units.
  EXPECT_THROW(
      (void)parse_cluster_spec(
          "group racks=1 nodes=2 cores=4 daemon_reserve=4"),
      CheckError);
  EXPECT_THROW(
      (void)parse_cluster_spec(
          "inter_rack_factor 0\ngroup racks=1 nodes=2"),
      CheckError);
  ClusterSpec mismatched;
  mismatched.num_slaves = 10;  // rack_sizes still {9, 9}
  EXPECT_THROW(validate_cluster_spec(mismatched), CheckError);
}

TEST(ValidateClusterSpec, RejectsClustersAboveTheNodeLimit) {
  // An unbounded request would be an out-of-memory kill at Simulation
  // construction; the spec layer rejects it with a message instead.
  EXPECT_EQ(load_cluster_spec("nodes:131072").total_slaves(),
            kMaxClusterNodes);
  EXPECT_THROW((void)load_cluster_spec("nodes:131073"), CheckError);
  try {
    (void)load_cluster_spec("nodes:100000000");
    ADD_FAILURE() << "nodes:100000000 was accepted";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("exceeds the 131072-node limit"), std::string::npos)
        << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
  // racks x nodes overflows an int; the limit check must not wrap.
  EXPECT_THROW((void)parse_cluster_spec("group racks=100000 nodes=100000"),
               CheckError);
  EXPECT_THROW((void)parse_cluster_spec(
                   "group racks=1024 nodes=64; group racks=1024 nodes=65"),
               CheckError);
  ClusterSpec flat;
  flat.num_slaves = kMaxClusterNodes + 1;
  flat.rack_sizes = {kMaxClusterNodes + 1};
  EXPECT_THROW(validate_cluster_spec(flat), CheckError);
}

TEST(LoadClusterSpec, ReadsSpecFiles) {
  const std::string path = ::testing::TempDir() + "cluster_spec_test.spec";
  {
    std::ofstream out(path);
    out << "inter_rack_factor 0.5\n"
        << "group name=std racks=2 nodes=3 mem_gb=16\n";
  }
  const ClusterSpec spec = load_cluster_spec(path);
  EXPECT_EQ(spec.total_slaves(), 6);
  ASSERT_EQ(spec.groups.size(), 1u);
  EXPECT_EQ(spec.groups[0].hardware.node_memory, gibibytes(16));
  std::remove(path.c_str());
  EXPECT_THROW((void)load_cluster_spec("/nonexistent/cluster.spec"),
               CheckError);
}

TEST(Topology, GroupedRacksAreContiguousAndHomogeneous) {
  const ClusterSpec spec = parse_cluster_spec(
      "group name=small racks=2 nodes=3 mem_gb=8\n"
      "group name=big racks=1 nodes=5 mem_gb=32 cores=16");
  const Topology topo(spec);
  ASSERT_EQ(topo.num_nodes(), 11);
  ASSERT_EQ(topo.num_racks(), 3);
  // Racks are contiguous id ranges assigned group by group.
  EXPECT_EQ(topo.rack_first_node(RackId(0)), 0);
  EXPECT_EQ(topo.rack_size(RackId(0)), 3);
  EXPECT_EQ(topo.rack_first_node(RackId(1)), 3);
  EXPECT_EQ(topo.rack_first_node(RackId(2)), 6);
  EXPECT_EQ(topo.rack_size(RackId(2)), 5);
  for (int id = 0; id < topo.num_nodes(); ++id) {
    const auto rack = topo.rack_of(NodeId(id));
    EXPECT_GE(id, topo.rack_first_node(rack));
    EXPECT_LT(id, topo.rack_first_node(rack) + topo.rack_size(rack));
    // Every node of a rack runs the rack's hardware class.
    EXPECT_EQ(&topo.hardware(NodeId(id)), &topo.rack_hardware(rack));
  }
  EXPECT_EQ(topo.hardware(NodeId(0)).node_memory, gibibytes(8));
  EXPECT_EQ(topo.hardware(NodeId(6)).node_memory, gibibytes(32));
  EXPECT_EQ(topo.hardware(NodeId(10)).physical_cores, 16);
}

}  // namespace
}  // namespace mron::cluster

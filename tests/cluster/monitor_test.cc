#include "cluster/monitor.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_spec.h"
#include "obs/recorder.h"

namespace mron::cluster {
namespace {

/// Nodes on one engine with a recorder attached: the monitor publishes into
/// it, and the tests read the published gauges back.
struct Cluster {
  /// `num_nodes` (even) nodes in two racks.
  explicit Cluster(int num_nodes)
      : topo(std::make_unique<Topology>(
            scaled_spec(num_nodes, num_nodes / 2))) {
    eng.set_recorder(&rec);
    for (int i = 0; i < num_nodes; ++i) {
      nodes.push_back(
          std::make_unique<Node>(eng, NodeId(i), topo->hardware(NodeId(i))));
      ptrs.push_back(nodes.back().get());
    }
  }
  /// Bytes one node's disk moves in a second with a single stream.
  [[nodiscard]] double disk_rate() const {
    return topo->hardware(NodeId(0)).disk_bandwidth.rate();
  }
  [[nodiscard]] double gauge(const std::string& name) const {
    EXPECT_TRUE(rec.metrics().has(name)) << name;
    return rec.metrics().value(name);
  }
  [[nodiscard]] bool has_metric_prefixed(const std::string& prefix) const {
    for (const auto& name : rec.metrics().names()) {
      if (name.rfind(prefix, 0) == 0) return true;
    }
    return false;
  }

  sim::Engine eng;
  obs::Recorder rec;
  std::unique_ptr<Topology> topo;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<Node*> ptrs;
};

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : monitor(c.eng, c.ptrs, *c.topo) {}

  Cluster c{2};
  ClusterMonitor monitor;
};

TEST_F(MonitorTest, IdleClusterReportsZeroUtilization) {
  monitor.start();
  c.eng.run_until(5.0);
  EXPECT_DOUBLE_EQ(c.gauge("cluster.node0.cpu_util"), 0.0);
  EXPECT_DOUBLE_EQ(c.gauge("cluster.node1.disk_util"), 0.0);
  EXPECT_DOUBLE_EQ(c.gauge("cluster.node0.mem_used_frac"), 0.0);
}

TEST_F(MonitorTest, BusyDiskShowsUtilization) {
  monitor.start();
  // Keep node 0's disk busy for the whole window.
  c.nodes[0]->disk().submit(c.disk_rate() * 10.0, [] {});
  c.eng.run_until(2.5);
  EXPECT_NEAR(c.gauge("cluster.node0.disk_util"), 1.0, 1e-6);
  EXPECT_NEAR(c.gauge("cluster.node1.disk_util"), 0.0, 1e-9);
  c.eng.run();
}

TEST_F(MonitorTest, MemoryFractionsTrackAllocations) {
  monitor.start();
  c.nodes[0]->allocate(gibibytes(3), 4);
  c.nodes[0]->add_used_memory(mebibytes(1536));
  c.eng.run_until(1.5);
  EXPECT_NEAR(c.gauge("cluster.node0.mem_alloc_frac"), 0.5, 1e-9);
  EXPECT_NEAR(c.gauge("cluster.node0.mem_used_frac"), 0.25, 1e-9);
  c.eng.run();
}

TEST_F(MonitorTest, TicksStopWhenTheEngineDrains) {
  monitor.start();
  c.nodes[0]->disk().submit(c.disk_rate() * 2.5, [] {});
  c.eng.run();  // must drain without the periodic tick re-arming forever
  EXPECT_TRUE(c.eng.empty());
  // Ticks at 1 and 2 see the stream pending; the tick at 3 finds the
  // engine quiescent and does not re-arm.
  EXPECT_DOUBLE_EQ(c.gauge("monitor.samples"), 3.0);
}

TEST(MonitorRackAggregation, KicksInAboveTheNodeSeriesLimit) {
  // 66 nodes, over the 64-node series limit -> per-rack means.
  Cluster big(66);
  ClusterMonitor monitor(big.eng, big.ptrs, *big.topo);
  monitor.start();
  big.nodes[40]->disk().submit(big.disk_rate() * 100.0, [] {});
  big.nodes[40]->allocate(gibibytes(3), 4);
  big.nodes[41]->allocate(gibibytes(3), 4);
  big.eng.run_until(1.5);
  EXPECT_NEAR(big.gauge("cluster.rack1.disk_util"), 1.0 / 33.0, 1e-6);
  EXPECT_DOUBLE_EQ(big.gauge("cluster.rack1.mem_alloc_frac"),
                   (0.5 + 0.5) / 33.0);
  EXPECT_DOUBLE_EQ(big.gauge("cluster.rack0.disk_util"), 0.0);
  EXPECT_DOUBLE_EQ(big.gauge("cluster.rack0.mem_alloc_frac"), 0.0);
  EXPECT_FALSE(big.has_metric_prefixed("cluster.node"));
  EXPECT_EQ(big.rec.series().find("cluster.node40.disk_util"), nullptr);
  big.eng.run();

  // At the limit publishing stays per-node.
  Cluster at_limit(64);
  ClusterMonitor per_node(at_limit.eng, at_limit.ptrs, *at_limit.topo);
  per_node.start();
  at_limit.nodes[63]->disk().submit(at_limit.disk_rate() * 100.0, [] {});
  at_limit.eng.run_until(1.5);
  EXPECT_NEAR(at_limit.gauge("cluster.node63.disk_util"), 1.0, 1e-6);
  EXPECT_FALSE(at_limit.has_metric_prefixed("cluster.rack"));
  at_limit.eng.run();
}

}  // namespace
}  // namespace mron::cluster

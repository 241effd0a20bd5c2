#include "cluster/fabric.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/cluster_spec.h"
#include "sim/engine.h"

namespace mron::cluster {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec = scaled_spec(4, 2);
    topo = std::make_unique<Topology>(spec);
    for (int i = 0; i < 4; ++i) {
      nodes.push_back(
          std::make_unique<Node>(eng, NodeId(i), topo->hardware(NodeId(i))));
    }
    std::vector<Node*> ptrs;
    for (auto& n : nodes) ptrs.push_back(n.get());
    fabric = std::make_unique<Fabric>(eng, spec, *topo, ptrs);
  }

  sim::Engine eng;
  ClusterSpec spec;
  std::unique_ptr<Topology> topo;
  std::vector<std::unique_ptr<Node>> nodes;
  std::unique_ptr<Fabric> fabric;
};

TEST_F(FabricTest, LocalTransferIsFree) {
  double done = -1;
  fabric->transfer(NodeId(0), NodeId(0), gibibytes(1),
                   [&] { done = eng.now(); });
  eng.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST_F(FabricTest, IntraRackAtNicRate) {
  double done = -1;
  const Bytes size(125'000'000);  // 1 second at 1 Gbps
  fabric->transfer(NodeId(0), NodeId(1), size, [&] { done = eng.now(); });
  eng.run();
  EXPECT_NEAR(done, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(fabric->inter_rack_bytes(), 0.0);
}

TEST_F(FabricTest, CrossRackCountsUplinkBytes) {
  double done = -1;
  const Bytes size(125'000'000);
  fabric->transfer(NodeId(0), NodeId(2), size, [&] { done = eng.now(); });
  eng.run();
  EXPECT_GT(done, 0.0);
  EXPECT_DOUBLE_EQ(fabric->inter_rack_bytes(), size.as_double());
}

TEST_F(FabricTest, CrossRackUplinkContention) {
  // Saturate rack 1's uplink with many flows into different nodes: the
  // shared uplink must stretch completion beyond the solo time.
  const Bytes size(125'000'000);
  double solo = -1;
  fabric->transfer(NodeId(0), NodeId(2), size, [&] { solo = eng.now(); });
  eng.run();

  sim::Engine eng2;
  std::vector<std::unique_ptr<Node>> nodes2;
  for (int i = 0; i < 4; ++i) {
    nodes2.push_back(
        std::make_unique<Node>(eng2, NodeId(i), topo->hardware(NodeId(i))));
  }
  std::vector<Node*> ptrs;
  for (auto& n : nodes2) ptrs.push_back(n.get());
  Fabric fabric2(eng2, spec, *topo, ptrs);
  int completed = 0;
  double last = 0.0;
  for (int i = 0; i < 8; ++i) {
    fabric2.transfer(NodeId(i % 2), NodeId(2 + (i % 2)), size, [&] {
      ++completed;
      last = eng2.now();
    });
  }
  eng2.run();
  EXPECT_EQ(completed, 8);
  EXPECT_GT(last, solo);
}

TEST_F(FabricTest, ZeroBytesCompletesImmediately) {
  bool done = false;
  fabric->transfer(NodeId(0), NodeId(3), Bytes(0), [&] { done = true; });
  eng.run();
  EXPECT_TRUE(done);
}

TEST_F(FabricTest, ManyToOneContendsAtReceiver) {
  const Bytes size(125'000'000);
  std::vector<double> done(3, -1.0);
  // Three senders in the same rack to one receiver: receiver NIC is the
  // bottleneck -> ~3 seconds each.
  // Use rack-0 nodes only so the uplink is not involved.
  fabric->transfer(NodeId(1), NodeId(0), size, [&] { done[0] = eng.now(); });
  fabric->transfer(NodeId(1), NodeId(0), size, [&] { done[1] = eng.now(); });
  fabric->transfer(NodeId(1), NodeId(0), size, [&] { done[2] = eng.now(); });
  eng.run();
  for (double d : done) EXPECT_NEAR(d, 3.0, 1e-6);
}

}  // namespace
}  // namespace mron::cluster

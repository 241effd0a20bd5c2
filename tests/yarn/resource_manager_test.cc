#include "yarn/resource_manager.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/check.h"
#include "obs/recorder.h"

namespace mron::yarn {
namespace {

class RmTest : public ::testing::Test {
 protected:
  void SetUp() override { make_rm(make_fifo_policy()); }

  void make_rm(std::unique_ptr<SchedulingPolicy> policy) {
    rm.reset();  // the RM observes its nodes: destroy it before them
    spec.num_slaves = 4;
    spec.rack_sizes = {2, 2};
    topo = std::make_unique<cluster::Topology>(spec);
    nodes.clear();
    for (int i = 0; i < 4; ++i) {
      nodes.push_back(std::make_unique<cluster::Node>(
          eng, cluster::NodeId(i), spec));
    }
    std::vector<cluster::Node*> ptrs;
    for (auto& n : nodes) ptrs.push_back(n.get());
    rm = std::make_unique<ResourceManager>(eng, *topo, ptrs,
                                           std::move(policy));
  }

  sim::Engine eng;
  cluster::ClusterSpec spec;
  std::unique_ptr<cluster::Topology> topo;
  std::vector<std::unique_ptr<cluster::Node>> nodes;
  std::unique_ptr<ResourceManager> rm;
};

TEST_F(RmTest, AllocatesPreferredNode) {
  const AppId app = rm->register_app("a");
  std::vector<Container> got;
  rm->request_container(app, {gibibytes(1), 1}, {cluster::NodeId(2)},
                        [&](const Container& c) { got.push_back(c); });
  eng.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].node, cluster::NodeId(2));
  EXPECT_EQ(got[0].resource.memory, gibibytes(1));
  EXPECT_EQ(rm->app_allocated_memory(app), gibibytes(1));
  EXPECT_EQ(rm->live_containers(), 1u);
}

TEST_F(RmTest, FallsBackToRackThenAnywhere) {
  const AppId app = rm->register_app("a");
  // Fill node 2 completely; request preferring node 2 should land on its
  // rack-mate node 3.
  nodes[2]->allocate(gibibytes(6), 1);
  std::vector<Container> got;
  rm->request_container(app, {gibibytes(1), 1}, {cluster::NodeId(2)},
                        [&](const Container& c) { got.push_back(c); });
  eng.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].node, cluster::NodeId(3));

  // Fill the whole rack; next request lands off-rack.
  nodes[3]->allocate(nodes[3]->memory_available(), 1);
  rm->request_container(app, {gibibytes(1), 1}, {cluster::NodeId(2)},
                        [&](const Container& c) { got.push_back(c); });
  eng.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[1].node == cluster::NodeId(0) ||
              got[1].node == cluster::NodeId(1));
}

TEST_F(RmTest, QueuesUntilRelease) {
  const AppId app = rm->register_app("a");
  std::vector<Container> got;
  auto grab = [&](const Container& c) { got.push_back(c); };
  // 4 nodes * 6 GiB: 24 one-GiB containers fit plus pending 25th.
  for (int i = 0; i < 25; ++i) {
    rm->request_container(app, {gibibytes(1), 1}, {}, grab);
  }
  eng.run();
  EXPECT_EQ(got.size(), 24u);
  EXPECT_EQ(rm->pending_requests(), 1u);
  rm->release_container(got[0]);
  eng.run();
  EXPECT_EQ(got.size(), 25u);
  EXPECT_EQ(rm->pending_requests(), 0u);
}

TEST_F(RmTest, VcoresAlsoConstrain) {
  const AppId app = rm->register_app("a");
  std::vector<Container> got;
  // 28 vcores per node; 16-vcore containers: only one per node.
  for (int i = 0; i < 5; ++i) {
    rm->request_container(app, {mebibytes(512), 16}, {},
                          [&](const Container& c) { got.push_back(c); });
  }
  eng.run();
  EXPECT_EQ(got.size(), 4u);
  EXPECT_EQ(rm->pending_requests(), 1u);
}

TEST_F(RmTest, VariableSizedContainersDontHeadOfLineBlock) {
  const AppId app = rm->register_app("a");
  // Fill the cluster except 512 MiB on node 0.
  for (auto& n : nodes) n->allocate(n->memory_available() - mebibytes(512), 1);
  std::vector<Container> got;
  // Head request (2 GiB) cannot fit; the smaller one behind it must still
  // be served — MRONLINE's variable-sized container semantics.
  rm->request_container(app, {gibibytes(2), 1}, {},
                        [&](const Container& c) { got.push_back(c); });
  rm->request_container(app, {mebibytes(256), 1}, {},
                        [&](const Container& c) { got.push_back(c); });
  eng.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].resource.memory, mebibytes(256));
}

TEST_F(RmTest, CancelRequestRemovesFromQueue) {
  const AppId app = rm->register_app("a");
  for (auto& n : nodes) n->allocate(n->memory_available(), 1);
  bool fired = false;
  const RequestId req = rm->request_container(
      app, {gibibytes(1), 1}, {}, [&](const Container&) { fired = true; });
  eng.run();
  rm->cancel_request(req);
  // Free space and trigger a pass with a fresh request: only the fresh
  // request may be served; the cancelled one is gone.
  nodes[0]->release(gibibytes(1), 0);
  bool fresh_fired = false;
  rm->request_container(app, {mebibytes(512), 1}, {},
                        [&](const Container&) { fresh_fired = true; });
  eng.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(fresh_fired);
}

TEST_F(RmTest, UnregisterWithLiveContainersThrows) {
  const AppId app = rm->register_app("a");
  std::vector<Container> got;
  rm->request_container(app, {gibibytes(1), 1}, {},
                        [&](const Container& c) { got.push_back(c); });
  eng.run();
  EXPECT_THROW(rm->unregister_app(app), CheckError);
  rm->release_container(got[0]);
  rm->unregister_app(app);
}

TEST_F(RmTest, FairPolicySplitsClusterBetweenApps) {
  make_rm(make_fair_policy());
  const AppId a = rm->register_app("a");
  const AppId b = rm->register_app("b");
  int got_a = 0, got_b = 0;
  for (int i = 0; i < 40; ++i) {
    rm->request_container(a, {gibibytes(1), 1}, {},
                          [&](const Container&) { ++got_a; });
    rm->request_container(b, {gibibytes(1), 1}, {},
                          [&](const Container&) { ++got_b; });
  }
  eng.run();
  // 24 containers fit; fair share is 12/12.
  EXPECT_EQ(got_a + got_b, 24);
  EXPECT_EQ(got_a, 12);
  EXPECT_EQ(got_b, 12);
}

TEST_F(RmTest, FifoPolicyServesFirstAppFirst) {
  const AppId a = rm->register_app("a");
  const AppId b = rm->register_app("b");
  int got_a = 0, got_b = 0;
  for (int i = 0; i < 30; ++i) {
    rm->request_container(b, {gibibytes(1), 1}, {},
                          [&](const Container&) { ++got_b; });
  }
  for (int i = 0; i < 30; ++i) {
    rm->request_container(a, {gibibytes(1), 1}, {},
                          [&](const Container&) { ++got_a; });
  }
  eng.run();
  // App a registered first: FIFO gives it all 24 slots even though b's
  // requests arrived first.
  EXPECT_EQ(got_a, 24);
  EXPECT_EQ(got_b, 0);
}

// Runs one placement pass over `unplaceable` requests that no node can take
// (more vcores than any node has) queued ahead of one request that is not
// dominated by them (more memory, fewer vcores) and fits. Returns the
// yarn.alloc.index_probes the pass spent; `granted` reports the last one.
double probes_for_one_pass(int unplaceable, bool& granted) {
  sim::Engine eng;
  obs::Recorder rec;
  eng.set_recorder(&rec);
  cluster::ClusterSpec spec;
  spec.num_slaves = 4;
  spec.rack_sizes = {2, 2};
  const cluster::Topology topo(spec);
  std::vector<std::unique_ptr<cluster::Node>> nodes;
  std::vector<cluster::Node*> ptrs;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(
        std::make_unique<cluster::Node>(eng, cluster::NodeId(i), spec));
    ptrs.push_back(nodes.back().get());
  }
  granted = false;
  {
    ResourceManager rm(eng, topo, ptrs, make_fifo_policy());
    const AppId app = rm.register_app("a");
    for (int i = 0; i < unplaceable; ++i) {
      rm.request_container(app, {gibibytes(1), 29}, {},
                           [](const Container&) { FAIL() << "placed"; });
    }
    rm.request_container(app, {gibibytes(2), 1}, {},
                         [&](const Container&) { granted = true; });
    eng.run();
    EXPECT_EQ(rm.pending_requests(), static_cast<std::size_t>(unplaceable));
  }
  eng.set_recorder(nullptr);
  return rec.metrics().counter("yarn.alloc.index_probes").value();
}

TEST(ResourceManager, FailedShapeIsSearchedOncePerPass) {
  // Within a pass free resources only shrink, so once a shape found no node
  // anywhere, every request of that shape (or larger in both dimensions)
  // fails without touching the index: the pass's search cost does not grow
  // with the number of stuck requests.
  bool granted_one = false;
  bool granted_many = false;
  const double one = probes_for_one_pass(1, granted_one);
  const double many = probes_for_one_pass(50, granted_many);
  EXPECT_TRUE(granted_one);
  EXPECT_TRUE(granted_many);
  EXPECT_GT(one, 0.0);
  EXPECT_EQ(one, many);
}

}  // namespace
}  // namespace mron::yarn

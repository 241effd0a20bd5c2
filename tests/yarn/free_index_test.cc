// Equivalence of the indexed allocator with the legacy full-scan policy.
//
// find_node historically scanned every node per placement level (local /
// rack / anywhere) picking the alive, fitting node with the most free
// memory, ties to the lowest id. The free-resource index answers the same
// query in O(log n); this test drives a heterogeneous cluster through a
// deterministic churn of requests, releases, failures, and restores, and
// checks every grant against a reference scan over public node state.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "cluster/cluster_spec.h"
#include "common/rng.h"
#include "yarn/resource_manager.h"

namespace mron::yarn {
namespace {

using cluster::NodeId;

class FreeIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Three racks, three hardware classes: 8 GiB, 32 GiB, and 16 GiB of
    // container memory with differing vcore budgets.
    spec = cluster::parse_cluster_spec(
        "group name=small racks=1 nodes=4 mem_gb=8 container_mem_gb=6\n"
        "group name=big racks=1 nodes=4 mem_gb=32 container_mem_gb=28 "
        "vcores=64 container_vcores=56\n"
        "group name=mid racks=1 nodes=4 mem_gb=16 container_mem_gb=12");
    topo = std::make_unique<cluster::Topology>(spec);
    for (int i = 0; i < topo->num_nodes(); ++i) {
      const NodeId id(i);
      nodes.push_back(std::make_unique<cluster::Node>(
          eng, id, topo->hardware(id)));
      alive.insert(i);
    }
    std::vector<cluster::Node*> ptrs;
    for (auto& n : nodes) ptrs.push_back(n.get());
    rm = std::make_unique<ResourceManager>(eng, *topo, ptrs,
                                           make_fifo_policy());
  }

  void TearDown() override {
    rm.reset();  // the RM observes its nodes: destroy it before them
  }

  /// Free (memory, vcores) of every node right now; dead nodes have none.
  std::vector<Resource> free_now() const {
    std::vector<Resource> free;
    for (const auto& n : nodes) {
      if (alive.count(static_cast<int>(n->id().value())) != 0) {
        free.push_back({n->memory_available(), n->vcores_available()});
      } else {
        free.push_back({Bytes(-1), -1});
      }
    }
    return free;
  }

  /// The legacy placement scan over the free snapshot `free`: first
  /// fitting preferred node, else the fitting node with the most free
  /// memory on a preferred rack (racks in preference order, strict
  /// greater-than between racks), else the fitting node with the most
  /// free memory anywhere; ties to lowest id.
  std::optional<NodeId> reference_find(const Resource& r,
                                       const std::vector<NodeId>& pref,
                                       const std::vector<Resource>& free) {
    auto fits = [&](std::size_t i) {
      return r.fits_in(free[i].memory, free[i].vcores);
    };
    for (NodeId p : pref) {
      if (fits(static_cast<std::size_t>(p.value()))) return p;
    }
    std::optional<std::size_t> best;
    auto more_free = [&](std::size_t i, std::optional<std::size_t> than) {
      return !than.has_value() || free[i].memory > free[*than].memory;
    };
    for (NodeId p : pref) {
      const auto rack = topo->rack_of(p);
      std::optional<std::size_t> rack_best;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (topo->rack_of(NodeId(static_cast<std::int64_t>(i))) != rack ||
            !fits(i)) {
          continue;
        }
        if (more_free(i, rack_best)) rack_best = i;
      }
      if (rack_best.has_value() && more_free(*rack_best, best)) {
        best = rack_best;
      }
    }
    if (!best.has_value()) {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (fits(i) && more_free(i, best)) best = i;
      }
    }
    if (!best.has_value()) return std::nullopt;
    return NodeId(static_cast<std::int64_t>(*best));
  }

  sim::Engine eng;
  cluster::ClusterSpec spec;
  std::unique_ptr<cluster::Topology> topo;
  std::vector<std::unique_ptr<cluster::Node>> nodes;
  std::unique_ptr<ResourceManager> rm;
  std::set<int> alive;
};

TEST_F(FreeIndexTest, GrantsMatchTheReferenceScanUnderChurn) {
  const AppId app = rm->register_app("churn");
  Rng rng(2024);
  std::vector<Container> held;
  int grants = 0;
  int starved = 0;
  for (int step = 0; step < 600; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    if (op < 6) {
      // A batch of 1-3 requests queued together, so they share one
      // placement pass. Sizes reach past the mid-class containers so the
      // largest requests depend on big-node headroom and can genuinely
      // starve under churn. A third of the requests are vcore-heavy (past
      // what the small and mid nodes offer, sometimes past any node), so a
      // request that fails on vcores is often followed in the same pass by
      // one with more memory but fewer vcores that still fits.
      const auto batch = static_cast<std::size_t>(rng.uniform_int(1, 3));
      std::vector<Resource> free = free_now();
      std::vector<std::optional<NodeId>> expected;
      std::vector<RequestId> reqs;
      std::vector<std::vector<Container>> got(batch);
      for (std::size_t b = 0; b < batch; ++b) {
        Resource r;
        r.memory =
            gibibytes(0.5 * static_cast<double>(rng.uniform_int(1, 32)));
        r.vcores = rng.uniform_int(0, 2) == 0
                       ? static_cast<int>(rng.uniform_int(24, 60))
                       : static_cast<int>(rng.uniform_int(1, 8));
        std::vector<NodeId> pref;
        for (std::int64_t k = rng.uniform_int(0, 2); k > 0; --k) {
          pref.emplace_back(rng.uniform_int(0, topo->num_nodes() - 1));
        }
        // Within a pass the queue is served in order and a request that
        // fails stays failed, so each expectation is the reference scan
        // after the grants queued ahead of it.
        expected.push_back(reference_find(r, pref, free));
        if (expected.back().has_value()) {
          const auto i = static_cast<std::size_t>(expected.back()->value());
          Resource& f = free[i];
          f.memory -= r.memory;
          f.vcores -= r.vcores;
        }
        reqs.push_back(rm->request_container(
            app, r, pref,
            [&got, b](const Container& c) { got[b].push_back(c); }));
      }
      eng.run();
      for (std::size_t b = 0; b < batch; ++b) {
        if (expected[b].has_value()) {
          ASSERT_EQ(got[b].size(), 1u) << "step " << step << " #" << b;
          EXPECT_EQ(got[b][0].node, *expected[b])
              << "step " << step << " #" << b;
          held.push_back(got[b][0]);
          ++grants;
        } else {
          // Nothing fits: the request must stay pending, not misplace.
          EXPECT_TRUE(got[b].empty()) << "step " << step << " #" << b;
          rm->cancel_request(reqs[b]);
          ++starved;
        }
      }
    } else if (op < 8 && !held.empty()) {
      // Release a pseudo-random held container.
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(held.size()) - 1));
      rm->release_container(held[idx]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(idx));
      eng.run();
    } else if (op == 8 && alive.size() > 6) {
      // Fail a node: its containers are reclaimed from the ledger too.
      const NodeId victim(rng.uniform_int(0, topo->num_nodes() - 1));
      if (alive.erase(static_cast<int>(victim.value())) != 0) {
        rm->fail_node(victim);
        for (auto it = held.begin(); it != held.end();) {
          it = it->node == victim ? held.erase(it) : it + 1;
        }
        eng.run();
      }
    } else {
      // Restore the lowest failed node, if any.
      for (int i = 0; i < topo->num_nodes(); ++i) {
        if (alive.count(i) == 0) {
          rm->recover_node(NodeId(i));
          alive.insert(i);
          eng.run();
          break;
        }
      }
    }
  }
  // The churn must have exercised both grant paths and starvation.
  EXPECT_GT(grants, 100);
  EXPECT_GT(starved, 0);
  EXPECT_EQ(rm->live_containers(), held.size());
}

TEST_F(FreeIndexTest, IndexTracksDirectNodeMutations) {
  // Schedulers are not the only writers: tests and the fault injector
  // allocate on nodes directly. The observer hook must keep the index
  // coherent, so a grant after a direct mutation still matches the scan.
  nodes[5]->allocate(nodes[5]->memory_available(), 1);  // big node, filled
  nodes[10]->allocate(gibibytes(4), 2);
  const AppId app = rm->register_app("direct");
  Resource r;
  r.memory = gibibytes(8);
  r.vcores = 4;
  const auto expected = reference_find(r, {}, free_now());
  ASSERT_TRUE(expected.has_value());
  std::vector<Container> got;
  rm->request_container(app, r, {},
                        [&](const Container& c) { got.push_back(c); });
  eng.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].node, *expected);
}

}  // namespace
}  // namespace mron::yarn

#include "cluster/node.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "sim/engine.h"

namespace mron::cluster {
namespace {

class NodeTest : public ::testing::Test {
 protected:
  sim::Engine eng;
  NodeHardware hw;
  Node node{eng, NodeId(0), hw};
};

TEST_F(NodeTest, InitialCapacity) {
  EXPECT_EQ(node.memory_capacity(), gibibytes(6));
  EXPECT_EQ(node.memory_available(), gibibytes(6));
  EXPECT_EQ(node.vcores_available(), 28);
  EXPECT_DOUBLE_EQ(node.cpu().capacity(), 6.0);
}

TEST_F(NodeTest, AllocateRelease) {
  node.allocate(gibibytes(1), 2);
  EXPECT_EQ(node.memory_allocated(), gibibytes(1));
  EXPECT_EQ(node.vcores_allocated(), 2);
  node.release(gibibytes(1), 2);
  EXPECT_EQ(node.memory_allocated(), Bytes(0));
  EXPECT_EQ(node.vcores_allocated(), 0);
}

TEST_F(NodeTest, OverAllocationThrows) {
  node.allocate(gibibytes(6), 1);
  EXPECT_THROW(node.allocate(mebibytes(1), 1), CheckError);
  node.release(gibibytes(6), 1);
  EXPECT_THROW(node.allocate(mebibytes(1), 29), CheckError);
}

TEST_F(NodeTest, OverReleaseThrows) {
  node.allocate(gibibytes(1), 1);
  EXPECT_THROW(node.release(gibibytes(2), 1), CheckError);
}

TEST_F(NodeTest, UsedMemoryTracking) {
  node.add_used_memory(mebibytes(300));
  node.add_used_memory(mebibytes(200));
  EXPECT_EQ(node.memory_used(), mebibytes(500));
  node.sub_used_memory(mebibytes(500));
  EXPECT_EQ(node.memory_used(), Bytes(0));
  EXPECT_THROW(node.sub_used_memory(mebibytes(1)), CheckError);
}

TEST_F(NodeTest, CpuStreamCappedByVcoreQuota) {
  // A 1-vcore task is capped at one core-unit on an idle node: 2 core-secs
  // of work take 2 s despite 7 idle core-units.
  double done = -1;
  node.cpu().submit(2.0, node.cpu_quota(1), [&] { done = eng.now(); });
  eng.run();
  EXPECT_DOUBLE_EQ(done, 2.0);
  // 2 vcores double the quota.
  EXPECT_DOUBLE_EQ(node.cpu_quota(2), 2.0);
}

TEST_F(NodeTest, DiskIsSharedWithSeekPenalty) {
  double a = -1, b = -1;
  const double bytes = hw.disk_bandwidth.rate();  // 1 second solo
  node.disk().submit(bytes, [&] { a = eng.now(); });
  node.disk().submit(bytes, [&] { b = eng.now(); });
  eng.run();
  // Two streams share the disk AND pay the seek penalty:
  // 2 seconds * (1 + 0.04).
  EXPECT_NEAR(a, 2.0 * (1.0 + hw.disk_seek_penalty), 1e-9);
  EXPECT_NEAR(b, a, 1e-9);
}

TEST_F(NodeTest, SoloDiskStreamPaysNoPenalty) {
  double a = -1;
  node.disk().submit(hw.disk_bandwidth.rate(), [&] { a = eng.now(); });
  eng.run();
  EXPECT_NEAR(a, 1.0, 1e-9);
}

}  // namespace
}  // namespace mron::cluster

// The re-replication pipeline (dfs/rereplicator.h), driven through a full
// Simulation so node loss flows RM watchdog -> DFS liveness -> copy
// streams on the simulated hardware: a permanent crash restores every
// affected block to its placement target before drain, recovery respects
// the per-node stream limiter and the bandwidth cap, in-flight copies
// cancel idempotently when their source dies or their block recovers, and
// a reliable cluster schedules nothing at all.
#include "cluster/cluster_spec.h"
#include "dfs/rereplicator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "mapreduce/simulation.h"

namespace mron::dfs {
namespace {

using mapreduce::Simulation;
using mapreduce::SimulationOptions;

SimulationOptions two_racks(std::uint64_t seed) {
  SimulationOptions opt;
  opt.cluster = cluster::scaled_spec(6, 3);
  opt.seed = seed;
  return opt;
}

// Every block of `ds` is back at its placement target with distinct,
// live replicas.
void expect_fully_replicated(const Simulation& sim, DatasetId ds) {
  const Dfs& dfs = sim.dfs();
  std::size_t block = 0;
  for (const auto& b : dfs.dataset(ds).blocks) {
    EXPECT_EQ(dfs.live_replicas(ds, block), b.target);
    const std::set<cluster::NodeId> uniq(b.replicas.begin(),
                                         b.replicas.end());
    EXPECT_EQ(uniq.size(), b.replicas.size());
    ++block;
  }
  EXPECT_EQ(dfs.under_replicated_blocks(), 0u);
}

TEST(Rereplicator, PermanentCrashRestoresTargetReplication) {
  Simulation sim(two_racks(3));
  const auto ds = sim.load_dataset("in", mebibytes(128.0 * 8));
  sim.engine().schedule_at(1.0,
                           [&] { sim.rm().fail_node(cluster::NodeId(2)); });
  sim.run();

  const auto& stats = sim.rereplicator().stats();
  EXPECT_GT(stats.copies_started, 0);
  EXPECT_EQ(stats.copies_completed, stats.copies_started);
  EXPECT_EQ(stats.copies_cancelled, 0);
  EXPECT_GT(stats.bytes_copied, 0.0);
  EXPECT_GT(stats.peak_under_replicated, 0);
  EXPECT_GT(stats.last_fully_replicated, 1.0);
  EXPECT_EQ(sim.rereplicator().active_copies(), 0u);
  expect_fully_replicated(sim, ds);
  // The dead node still appears in replica lists (its disks are gone, not
  // forgotten) but no restored block counts it live, and no new replica
  // landed on it.
  for (const auto& b : sim.dfs().dataset(ds).blocks) {
    const int dead = static_cast<int>(
        std::count(b.replicas.begin(), b.replicas.end(), cluster::NodeId(2)));
    EXPECT_EQ(static_cast<int>(b.replicas.size()), b.target + dead);
  }
}

TEST(Rereplicator, CopiesAreRealTrafficWithBandwidthCap) {
  // One 128 MiB block copy at a 64 MiB/s cap takes at least 2 simulated
  // seconds per leg; recovery of several blocks under the per-node stream
  // limit cannot finish instantaneously after the crash.
  Simulation sim(two_racks(4));
  sim.load_dataset("in", mebibytes(128.0 * 8));
  sim.engine().schedule_at(1.0,
                           [&] { sim.rm().fail_node(cluster::NodeId(1)); });
  sim.run();
  const auto& stats = sim.rereplicator().stats();
  ASSERT_GT(stats.copies_completed, 0);
  EXPECT_GE(stats.last_fully_replicated, 1.0 + 2.0);
  // Bytes tally matches whole blocks.
  EXPECT_DOUBLE_EQ(stats.bytes_copied,
                   mebibytes(128).as_double() * stats.copies_completed);
}

TEST(Rereplicator, TighterStreamLimitSlowsRecovery) {
  auto recovery_time = [](int streams) {
    SimulationOptions opt = two_racks(5);
    opt.dfs_rerepl_streams_per_node = streams;
    Simulation sim(opt);
    sim.load_dataset("in", mebibytes(128.0 * 24));
    sim.engine().schedule_at(1.0,
                             [&] { sim.rm().fail_node(cluster::NodeId(0)); });
    sim.run();
    EXPECT_EQ(sim.dfs().under_replicated_blocks(), 0u);
    EXPECT_EQ(sim.rereplicator().options().max_streams_per_node, streams);
    return sim.rereplicator().stats().last_fully_replicated;
  };
  EXPECT_GT(recovery_time(1), recovery_time(8));
}

TEST(Rereplicator, LowerBandwidthSlowsRecovery) {
  auto recovery_time = [](double bw) {
    SimulationOptions opt = two_racks(6);
    opt.dfs_rerepl_stream_bandwidth = bw;
    Simulation sim(opt);
    sim.load_dataset("in", mebibytes(128.0 * 12));
    sim.engine().schedule_at(1.0,
                             [&] { sim.rm().fail_node(cluster::NodeId(3)); });
    sim.run();
    EXPECT_EQ(sim.dfs().under_replicated_blocks(), 0u);
    return sim.rereplicator().stats().last_fully_replicated;
  };
  EXPECT_GT(recovery_time(16.0 * 1024 * 1024), recovery_time(64.0 * 1024 * 1024));
}

TEST(Rereplicator, SourceDeathMidCopyCancelsIdempotently) {
  // Second crash lands while the first crash's copies are in flight (each
  // 128 MiB leg takes >= 2 s under the default cap): whatever copies the
  // second victim was serving as source or target are torn down, and the
  // survivors still restore every block that kept a live replica.
  Simulation sim(two_racks(7));
  const auto ds = sim.load_dataset("in", mebibytes(128.0 * 24));
  sim.engine().schedule_at(1.0,
                           [&] { sim.rm().fail_node(cluster::NodeId(2)); });
  sim.engine().schedule_at(2.0,
                           [&] { sim.rm().fail_node(cluster::NodeId(4)); });
  sim.run();

  const auto& stats = sim.rereplicator().stats();
  EXPECT_GT(stats.copies_cancelled, 0);
  EXPECT_EQ(stats.copies_completed + stats.copies_cancelled,
            stats.copies_started);
  EXPECT_EQ(sim.rereplicator().active_copies(), 0u);
  // Four live nodes remain — enough for every rep-3 block to recover.
  EXPECT_EQ(sim.dfs().under_replicated_blocks(), 0u);
  std::size_t block = 0;
  for (const auto& b : sim.dfs().dataset(ds).blocks) {
    EXPECT_EQ(sim.dfs().live_replicas(ds, block), b.target);
    ++block;
  }
}

TEST(Rereplicator, NodeRecoveryCancelsRedundantCopies) {
  // The crashed node comes back mid-copy: its disks return, the blocks are
  // back at target, and the now-pointless in-flight copies are cancelled
  // rather than left to land a fourth replica.
  Simulation sim(two_racks(8));
  const auto ds = sim.load_dataset("in", mebibytes(128.0 * 24));
  sim.engine().schedule_at(1.0,
                           [&] { sim.rm().fail_node(cluster::NodeId(2)); });
  sim.engine().schedule_at(2.0,
                           [&] { sim.rm().recover_node(cluster::NodeId(2)); });
  sim.run();

  const auto& stats = sim.rereplicator().stats();
  EXPECT_GT(stats.copies_started, 0);
  EXPECT_GT(stats.copies_cancelled, 0);
  EXPECT_EQ(sim.rereplicator().active_copies(), 0u);
  EXPECT_EQ(sim.dfs().under_replicated_blocks(), 0u);
  // No block ended above its target live count.
  std::size_t block = 0;
  for (const auto& b : sim.dfs().dataset(ds).blocks) {
    EXPECT_LE(sim.dfs().live_replicas(ds, block), b.target);
    ++block;
  }
}

TEST(Rereplicator, ReliableClusterSchedulesNothing) {
  Simulation sim(two_racks(9));
  const auto ds = sim.load_dataset("in", mebibytes(128.0 * 16));
  sim.run();
  const auto& stats = sim.rereplicator().stats();
  EXPECT_EQ(stats.copies_started, 0);
  EXPECT_EQ(stats.copies_completed, 0);
  EXPECT_EQ(stats.copies_cancelled, 0);
  EXPECT_DOUBLE_EQ(stats.bytes_copied, 0.0);
  EXPECT_EQ(stats.peak_under_replicated, 0);
  EXPECT_DOUBLE_EQ(stats.last_fully_replicated, 0.0);
  expect_fully_replicated(sim, ds);
}

TEST(Rereplicator, CopyTargetsPreferRacksWithoutALiveReplica) {
  // Kill a whole rack-1 replica set's worth: blocks that kept both
  // remaining replicas on one rack must re-replicate onto the other rack
  // first (rack-aware target scoring), restoring cross-rack isolation.
  Simulation sim(two_racks(10));
  const auto ds = sim.load_dataset("in", mebibytes(128.0 * 12));
  sim.engine().schedule_at(1.0,
                           [&] { sim.rm().fail_node(cluster::NodeId(0)); });
  sim.run();
  ASSERT_EQ(sim.dfs().under_replicated_blocks(), 0u);

  const auto& topo = sim.topology();
  for (const auto& b : sim.dfs().dataset(ds).blocks) {
    // Collect the racks of live replicas; any block that lost its only
    // rack-0 replica must have been restored across racks when possible.
    std::set<cluster::RackId> racks;
    for (auto r : b.replicas) {
      if (sim.dfs().node_alive(r)) racks.insert(topo.rack_of(r));
    }
    EXPECT_EQ(racks.size(), 2u);
  }
}

}  // namespace
}  // namespace mron::dfs

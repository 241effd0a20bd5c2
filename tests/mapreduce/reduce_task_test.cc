#include "mapreduce/reduce_task.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/recorder.h"

namespace mron::mapreduce {
namespace {

struct World {
  /// `num_nodes` slaves in two racks (the second takes the odd node).
  explicit World(int num_nodes = 4) {
    spec.num_slaves = num_nodes;
    spec.rack_sizes = {num_nodes / 2, num_nodes - num_nodes / 2};
    topo = std::make_unique<cluster::Topology>(spec);
    for (int i = 0; i < num_nodes; ++i) {
      nodes.push_back(
          std::make_unique<cluster::Node>(eng, cluster::NodeId(i), spec));
    }
    std::vector<cluster::Node*> ptrs;
    for (auto& n : nodes) ptrs.push_back(n.get());
    fabric = std::make_unique<cluster::Fabric>(eng, spec, *topo, ptrs);
    profile.task_startup_secs = 0.0;
  }

  ReduceTask& make_reduce(const JobConfig& cfg, int total_maps) {
    ReduceTask::Inputs in;
    in.task = TaskRef{TaskKind::Reduce, 0};
    in.total_maps = total_maps;
    in.num_nodes = static_cast<int>(nodes.size());
    task = std::make_unique<ReduceTask>(
        eng, *nodes[0], *fabric,
        [this](cluster::NodeId n) -> cluster::Node& {
          return *nodes[static_cast<std::size_t>(n.value())];
        },
        profile, cfg, in, Rng(11),
        [this](const TaskReport& r) { report = r; });
    return *task;
  }

  sim::Engine eng;
  cluster::ClusterSpec spec;
  std::unique_ptr<cluster::Topology> topo;
  std::vector<std::unique_ptr<cluster::Node>> nodes;
  std::unique_ptr<cluster::Fabric> fabric;
  AppProfile profile;
  std::unique_ptr<ReduceTask> task;
  std::optional<TaskReport> report;
};

TEST(ReduceTask, FetchesAllSegmentsAndCompletes) {
  World w;
  auto& r = w.make_reduce(JobConfig{}, 8);
  for (int i = 0; i < 8; ++i) {
    r.add_map_output(i, cluster::NodeId(i % 4), mebibytes(10));
  }
  r.start();
  w.eng.run();
  ASSERT_TRUE(w.report.has_value());
  EXPECT_FALSE(w.report->failed_oom);
  EXPECT_EQ(w.report->counters.shuffle_bytes, mebibytes(80));
  EXPECT_GT(w.report->duration(), 0.0);
  EXPECT_EQ(w.nodes[0]->memory_used(), Bytes(0));
}

TEST(ReduceTask, MapOutputsArrivingAfterStartAreFetched) {
  World w;
  auto& r = w.make_reduce(JobConfig{}, 3);
  r.start();
  w.eng.schedule_at(1.0,
                    [&] { r.add_map_output(0, cluster::NodeId(1), mebibytes(5)); });
  w.eng.schedule_at(2.0,
                    [&] { r.add_map_output(1, cluster::NodeId(2), mebibytes(5)); });
  w.eng.schedule_at(9.0,
                    [&] { r.add_map_output(2, cluster::NodeId(3), mebibytes(5)); });
  w.eng.run();
  ASSERT_TRUE(w.report.has_value());
  EXPECT_EQ(w.report->counters.shuffle_bytes, mebibytes(15));
  EXPECT_GE(w.report->end_time, 9.0);
}

TEST(ReduceTask, DefaultConfigSpillsInputBeforeReduce) {
  // With reduce.input.buffer.percent = 0 all shuffled bytes hit disk.
  World w;
  auto& r = w.make_reduce(JobConfig{}, 4);
  for (int i = 0; i < 4; ++i) {
    r.add_map_output(i, cluster::NodeId(1), mebibytes(20));
  }
  r.start();
  w.eng.run();
  ASSERT_TRUE(w.report.has_value());
  EXPECT_GT(w.report->counters.spilled_records, 0);
  EXPECT_GE(w.report->counters.local_disk_write_bytes, mebibytes(80));
}

TEST(ReduceTask, TunedBuffersKeepInputInMemory) {
  World w;
  JobConfig cfg;
  cfg.reduce_memory_mb = 1024;
  cfg.shuffle_input_buffer_percent = 0.7;
  cfg.reduce_input_buffer_percent = 0.7;
  cfg.merge_inmem_threshold = 0;
  auto& r = w.make_reduce(cfg, 4);
  for (int i = 0; i < 4; ++i) {
    r.add_map_output(i, cluster::NodeId(1), mebibytes(20));
  }
  r.start();
  w.eng.run();
  ASSERT_TRUE(w.report.has_value());
  EXPECT_EQ(w.report->counters.spilled_records, 0);  // the paper's optimum
  EXPECT_EQ(w.report->counters.local_disk_write_bytes, Bytes(0));
}

TEST(ReduceTask, OomWhenWorkingSetExceedsContainer) {
  World w;
  JobConfig cfg;
  cfg.reduce_memory_mb = 512;
  cfg.shuffle_input_buffer_percent = 0.9;  // 461 MiB + 200 MiB ws > 512
  auto& r = w.make_reduce(cfg, 1);
  r.add_map_output(0, cluster::NodeId(1), mebibytes(1));
  r.start();
  w.eng.run();
  ASSERT_TRUE(w.report.has_value());
  EXPECT_TRUE(w.report->failed_oom);
  EXPECT_EQ(w.nodes[0]->memory_used(), Bytes(0));
}

TEST(ReduceTask, ParallelCopiesHideFetchLatency) {
  // 100 small segments spread over ten hosts: one visit per host, so
  // parallelcopies decides how many of the ten connection latencies
  // overlap.
  auto run_with = [](double copies) {
    World w(12);
    w.profile.reduce_cpu_secs_per_mib = 0.0;
    JobConfig cfg;
    cfg.shuffle_parallelcopies = copies;
    auto& r = w.make_reduce(cfg, 100);
    for (int i = 0; i < 100; ++i) {
      r.add_map_output(i, cluster::NodeId(1 + i % 10), Bytes(1000));
    }
    r.start();
    w.eng.run();
    EXPECT_TRUE(w.report.has_value());
    return w.report->duration();
  };
  EXPECT_LT(run_with(10), run_with(1) * 0.5);
}

TEST(ReduceTask, SingleHostShuffleIgnoresParallelCopies) {
  // At most one visit per host is in flight, so a shuffle whose segments
  // all sit on one host takes the same time at any parallelcopies.
  auto run_with = [](double copies) {
    World w;
    JobConfig cfg;
    cfg.shuffle_parallelcopies = copies;
    auto& r = w.make_reduce(cfg, 100);
    for (int i = 0; i < 100; ++i) {
      r.add_map_output(i, cluster::NodeId(1), kibibytes(64));
    }
    r.start();
    w.eng.run();
    EXPECT_TRUE(w.report.has_value());
    return w.report->duration();
  };
  const double one = run_with(1);
  EXPECT_DOUBLE_EQ(run_with(5), one);
  EXPECT_DOUBLE_EQ(run_with(50), one);
}

TEST(ReduceTask, VisitsRespectSegmentHostAndCopyLimits) {
  // 200 segments over eight hosts, half queued before the shuffle starts
  // and half trickling in. Every visit lasts at least kFetchLatency, so a
  // probe every 10 ms sees each one at least once.
  World w(10);
  JobConfig cfg;
  cfg.shuffle_parallelcopies = 3;
  auto& r = w.make_reduce(cfg, 200);
  for (int i = 0; i < 100; ++i) {
    r.add_map_output(i, cluster::NodeId(1 + i % 8), kibibytes(256));
  }
  for (int i = 100; i < 200; ++i) {
    w.eng.schedule_at(0.01 * (i - 100), [&r, i] {
      r.add_map_output(i, cluster::NodeId(1 + i % 8), kibibytes(256));
    });
  }
  int probes = 0;
  int max_segments = 0;
  int max_in_flight = 0;
  std::function<void()> probe = [&] {
    ++probes;
    int in_flight = 0;
    std::vector<std::int64_t> hosts;
    r.for_each_visit([&](cluster::NodeId host, int segments) {
      ++in_flight;
      hosts.push_back(host.value());
      EXPECT_GE(segments, 1);
      EXPECT_LE(segments, kMaxSegmentsPerFetch);
      max_segments = std::max(max_segments, segments);
    });
    EXPECT_LE(in_flight, 3);
    std::sort(hosts.begin(), hosts.end());
    EXPECT_EQ(std::adjacent_find(hosts.begin(), hosts.end()), hosts.end())
        << "two visits to one host in flight";
    max_in_flight = std::max(max_in_flight, in_flight);
    if (!w.report.has_value()) w.eng.schedule_after(0.01, probe);
  };
  w.eng.schedule_at(0.0, probe);
  r.start();
  w.eng.run();
  ASSERT_TRUE(w.report.has_value());
  EXPECT_EQ(w.report->counters.shuffle_bytes, kibibytes(256) * 200.0);
  EXPECT_GT(probes, 10);
  EXPECT_EQ(max_in_flight, 3);
  // 12-13 segments were queued per host up front: visits batch them.
  EXPECT_GT(max_segments, 1);
  EXPECT_EQ(r.tracked_hosts(), 0);
}

TEST(ReduceTask, VisitCarriesAtMostTwentySegments) {
  // 45 segments queued on one host before the shuffle starts: three visits
  // carrying 20, 20 and 5 segments, one counted connection each.
  World w;
  obs::Recorder rec;
  rec.trace().set_detail(true);
  w.eng.set_recorder(&rec);
  auto& r = w.make_reduce(JobConfig{}, 45);
  for (int i = 0; i < 45; ++i) {
    r.add_map_output(i, cluster::NodeId(2), kibibytes(64));
  }
  r.start();
  w.eng.run();
  w.eng.set_recorder(nullptr);
  ASSERT_TRUE(w.report.has_value());
  EXPECT_EQ(rec.metrics().counter("mr.shuffle.fetches").value(), 3.0);
  EXPECT_EQ(rec.metrics().counter("mr.shuffle.segments").value(), 45.0);
  EXPECT_EQ(rec.metrics().counter("mr.shuffle.bytes").value(),
            kibibytes(64 * 45).as_double());
  std::ostringstream os;
  rec.trace().write_chrome_json(os);
  const std::string json = os.str();
  auto count = [&json](const std::string& needle) {
    int n = 0;
    for (auto at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"segments\":20}"), 2);
  EXPECT_EQ(count("\"segments\":5}"), 1);
  EXPECT_EQ(count("\"name\":\"shuffle_fetch\""), 6);  // 3 b/e pairs
}

TEST(ReduceTask, HostStateOnlyForHostsWithPendingOutput) {
  // A 10,240-node cluster whose five map hosts are scattered across it:
  // the reducer tracks five hosts, not 10,240, and nothing once the
  // shuffle drains.
  World w(10240);
  auto& r = w.make_reduce(JobConfig{}, 50);
  const int hosts[] = {17, 2048, 4097, 9000, 10239};
  for (int i = 0; i < 50; ++i) {
    r.add_map_output(i, cluster::NodeId(hosts[i % 5]), kibibytes(128));
  }
  EXPECT_EQ(r.tracked_hosts(), 5);
  EXPECT_EQ(r.host_slots(), 5U);
  r.start();
  w.eng.run();
  ASSERT_TRUE(w.report.has_value());
  EXPECT_EQ(w.report->counters.shuffle_bytes, kibibytes(128) * 50.0);
  EXPECT_EQ(r.tracked_hosts(), 0);
  EXPECT_LE(r.host_slots(), 5U);
}

TEST(ReduceTask, HostStateSurvivesChurnOnALargeCluster) {
  // 300 hosts grow the host index several times; invalidating every third
  // host frees records mid-table. Later outputs from the surviving hosts
  // must find their existing records (a lookup broken by the deletions
  // would open a duplicate), and re-deliveries from fresh hosts reuse the
  // freed ones.
  World w(10240);
  auto& r = w.make_reduce(JobConfig{}, 700);
  auto host_of = [](int i) { return cluster::NodeId(1 + (i * 37) % 10239); };
  for (int i = 0; i < 300; ++i) r.add_map_output(i, host_of(i), kibibytes(8));
  EXPECT_EQ(r.tracked_hosts(), 300);
  for (int i = 0; i < 300; i += 3) r.invalidate_source(host_of(i));
  EXPECT_EQ(r.tracked_hosts(), 200);
  for (int i = 0; i < 300; ++i) {
    if (i % 3 != 0) r.add_map_output(300 + i, host_of(i), kibibytes(8));
  }
  EXPECT_EQ(r.tracked_hosts(), 200);
  for (int i = 0; i < 300; i += 3) {
    r.add_map_output(i, host_of(i + 1000), kibibytes(8));
    r.add_map_output(300 + i, host_of(i + 1000), kibibytes(8));
  }
  EXPECT_EQ(r.tracked_hosts(), 300);
  EXPECT_EQ(r.host_slots(), 300U);
  for (int i = 600; i < 700; ++i) {
    r.add_map_output(i, host_of(i - 600), kibibytes(8));
  }
  EXPECT_EQ(r.tracked_hosts(), 300 + 34);  // hosts 0, 3, ..., 99 return
  r.start();
  w.eng.run();
  ASSERT_TRUE(w.report.has_value());
  EXPECT_EQ(w.report->counters.shuffle_bytes, kibibytes(8) * 700.0);
  EXPECT_EQ(r.tracked_hosts(), 0);
}

TEST(ReduceTask, UnmovedEpochSkipsTheAvailabilityQuery) {
  // With the AM's epoch table installed, a visit asks nothing while its
  // source's epoch is still the one its segments were delivered at. Once
  // the epoch moves, the visit asks about each of its segments when it
  // connects and again when it lands, as it does without the table.
  for (const bool bump : {false, true}) {
    World w;
    auto& r = w.make_reduce(JobConfig{}, 30);
    ReduceTask::HostEpochs epochs(w.nodes.size(), 3);
    int queries = 0;
    r.set_output_query(
        [&](int, cluster::NodeId) {
          ++queries;
          return true;
        },
        &epochs);
    for (int i = 0; i < 30; ++i) {
      r.add_map_output(i, cluster::NodeId(1 + i % 3), kibibytes(64), 3);
    }
    if (bump) epochs[2] = 4;  // host 2 holds 10 segments, one visit
    r.start();
    w.eng.run();
    ASSERT_TRUE(w.report.has_value());
    EXPECT_EQ(w.report->counters.shuffle_bytes, kibibytes(64) * 30.0);
    EXPECT_EQ(queries, bump ? 2 * 10 : 0) << "bump " << bump;
  }
}

TEST(ReduceTask, HostEpochIsItsOldestQueuedDelivery) {
  // Map 0 is delivered from host 1, then invalidated there (the epoch
  // moves), then map 1 arrives from host 1 at the new epoch while map 0 is
  // still queued. The visit that takes both must re-ask about each: the
  // newer delivery's epoch does not vouch for the older one.
  World w;
  auto& r = w.make_reduce(JobConfig{}, 2);
  ReduceTask::HostEpochs epochs(w.nodes.size(), 0);
  bool map0_available = true;
  std::vector<int> failed;
  r.set_output_query(
      [&](int mi, cluster::NodeId) { return mi != 0 || map0_available; },
      &epochs);
  r.set_fetch_failure([&](int mi, cluster::NodeId) {
    failed.push_back(mi);
    r.add_map_output(mi, cluster::NodeId(2), kibibytes(64), epochs[2]);
  });
  r.add_map_output(0, cluster::NodeId(1), kibibytes(64), epochs[1]);
  map0_available = false;
  ++epochs[1];
  r.add_map_output(1, cluster::NodeId(1), kibibytes(64), epochs[1]);
  r.start();
  w.eng.run();
  ASSERT_TRUE(w.report.has_value());
  EXPECT_EQ(failed, std::vector<int>{0});
  EXPECT_EQ(w.report->counters.shuffle_bytes, kibibytes(64) * 2.0);
}

TEST(ReduceTask, ShuffleCloseReleasesThePerMapIndex) {
  // Once the last segment has landed the attempt keeps no per-map or
  // per-host state, and a late duplicate delivery (a re-executed map's
  // second completion) is ignored instead of touching the freed index.
  World w;
  auto& r = w.make_reduce(JobConfig{}, 40);
  for (int i = 0; i < 40; ++i) {
    r.add_map_output(i, cluster::NodeId(1 + i % 3), kibibytes(64));
  }
  std::size_t slots_while_shuffling = 0;
  w.eng.schedule_at(0.01, [&] { slots_while_shuffling = r.host_slots(); });
  r.start();
  w.eng.run();
  ASSERT_TRUE(w.report.has_value());
  EXPECT_EQ(slots_while_shuffling, 3U);
  EXPECT_EQ(r.host_slots(), 0U);
  EXPECT_EQ(r.tracked_hosts(), 0);
  r.add_map_output(7, cluster::NodeId(2), kibibytes(64));
  r.invalidate_source(cluster::NodeId(2));
  EXPECT_EQ(r.host_slots(), 0U);
  EXPECT_EQ(r.tracked_hosts(), 0);
  EXPECT_EQ(w.eng.run(), 0);
  EXPECT_EQ(w.report->counters.shuffle_bytes, kibibytes(64) * 40.0);
}

TEST(ReduceTask, ZeroMapsCompletesImmediately) {
  World w;
  auto& r = w.make_reduce(JobConfig{}, 0);
  r.start();
  w.eng.run();
  ASSERT_TRUE(w.report.has_value());
  EXPECT_FALSE(w.report->failed_oom);
  EXPECT_EQ(w.report->counters.shuffle_bytes, Bytes(0));
}

TEST(ReduceTask, OutputWriteReplicatesOffNode) {
  World w;
  w.profile.reduce_output_ratio = 1.0;
  auto& r = w.make_reduce(JobConfig{}, 1);
  r.add_map_output(0, cluster::NodeId(0), mebibytes(50));  // node-local fetch
  r.start();
  w.eng.run();
  ASSERT_TRUE(w.report.has_value());
  // Replication traffic must have left the node: some NIC or uplink moved
  // ~50 MiB (the fetch itself was node-local and free).
  double moved = 0.0;
  for (auto& n : w.nodes) moved += n->nic_in().busy_integral();
  EXPECT_GT(moved + w.fabric->inter_rack_bytes(),
            mebibytes(40).as_double());
}

}  // namespace
}  // namespace mron::mapreduce

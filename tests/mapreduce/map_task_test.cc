#include "mapreduce/map_task.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster_spec.h"

namespace mron::mapreduce {
namespace {

// A fresh 2-node world per scenario so tests can compare independent runs.
struct World {
  World() {
    spec = cluster::scaled_spec(2, 1);
    topo = std::make_unique<cluster::Topology>(spec);
    for (int i = 0; i < 2; ++i) {
      nodes.push_back(std::make_unique<cluster::Node>(
          eng, cluster::NodeId(i), topo->hardware(cluster::NodeId(i))));
    }
    std::vector<cluster::Node*> ptrs;
    for (auto& n : nodes) ptrs.push_back(n.get());
    fabric = std::make_unique<cluster::Fabric>(eng, spec, *topo, ptrs);
    profile.task_startup_secs = 0.0;  // deterministic timing in tests
  }

  TaskReport run_map(const JobConfig& cfg, Bytes input,
                     dfs::Locality locality = dfs::Locality::NodeLocal,
                     std::uint64_t seed = 7) {
    MapTask::Inputs in;
    in.task = TaskRef{TaskKind::Map, 0};
    in.input_bytes = input;
    in.source = locality == dfs::Locality::NodeLocal ? cluster::NodeId(0)
                                                     : cluster::NodeId(1);
    in.locality = locality;
    std::optional<TaskReport> report;
    task = std::make_unique<MapTask>(
        eng, *nodes[0], *nodes[static_cast<std::size_t>(in.source.value())],
        *fabric, profile, cfg, in, Rng(seed),
        [&](const TaskReport& r) { report = r; });
    task->start();
    eng.run();
    EXPECT_TRUE(report.has_value());
    return *report;
  }

  sim::Engine eng;
  cluster::ClusterSpec spec;
  std::unique_ptr<cluster::Topology> topo;
  std::vector<std::unique_ptr<cluster::Node>> nodes;
  std::unique_ptr<cluster::Fabric> fabric;
  AppProfile profile;
  std::unique_ptr<MapTask> task;
};

TEST(MapTask, CompletesWithCountersAndUtilization) {
  World w;
  w.profile.map_cpu_secs_per_mib = 0.1;
  const auto r = w.run_map(JobConfig{}, mebibytes(128));
  EXPECT_FALSE(r.failed_oom);
  EXPECT_GT(r.duration(), 0.0);
  EXPECT_GT(r.counters.map_output_records, 0);
  EXPECT_GE(r.counters.spilled_records, r.counters.combine_output_records);
  EXPECT_GT(r.cpu_util, 0.0);
  EXPECT_LE(r.cpu_util, 1.0);
  EXPECT_GT(r.mem_util, 0.0);
  EXPECT_LT(r.mem_util, 1.0);
}

TEST(MapTask, OomWhenSortBufferExceedsContainer) {
  World w;
  JobConfig cfg;
  cfg.map_memory_mb = 512;
  cfg.io_sort_mb = 400;  // 400 + ~300 working set > 512
  const auto r = w.run_map(cfg, mebibytes(64));
  EXPECT_TRUE(r.failed_oom);
  EXPECT_EQ(r.counters.map_output_records, 0);
  // Memory must be released even on failure.
  EXPECT_EQ(w.nodes[0]->memory_used(), Bytes(0));
}

TEST(MapTask, RemoteReadSlowerThanLocal) {
  World local_world;
  local_world.profile.map_cpu_secs_per_mib = 0.01;  // read-bound
  const auto local =
      local_world.run_map(JobConfig{}, mebibytes(512), dfs::Locality::NodeLocal);

  World remote_world;
  remote_world.profile.map_cpu_secs_per_mib = 0.01;
  const auto remote =
      remote_world.run_map(JobConfig{}, mebibytes(512), dfs::Locality::OffRack);
  EXPECT_GT(remote.duration(), local.duration() * 0.99);
}

TEST(MapTask, LargerSortBufferReducesSpills) {
  JobConfig small;  // default 100 MB
  JobConfig big;
  big.io_sort_mb = 512;
  big.sort_spill_percent = 0.99;
  big.map_memory_mb = 1024;
  World w1, w2;
  const auto r_small = w1.run_map(small, mebibytes(128));
  const auto r_big = w2.run_map(big, mebibytes(128));
  EXPECT_GT(r_small.counters.spilled_records, r_big.counters.spilled_records);
  EXPECT_EQ(r_big.counters.spilled_records,
            r_big.counters.combine_output_records);
  EXPECT_LT(r_big.duration(), r_small.duration());
}

TEST(MapTask, MoreVcoresSpeedUpComputeBoundTask) {
  JobConfig one;
  JobConfig four;
  four.map_cpu_vcores = 4;
  World w1, w4;
  w1.profile.map_cpu_secs_per_mib = 1.0;
  w1.profile.map_cpu_demand_cores = 4.0;
  w4.profile.map_cpu_secs_per_mib = 1.0;
  w4.profile.map_cpu_demand_cores = 4.0;
  const auto r1 = w1.run_map(one, mebibytes(128));
  const auto r4 = w4.run_map(four, mebibytes(128));
  EXPECT_LT(r4.duration(), r1.duration() * 0.5);
  EXPECT_NEAR(r1.cpu_util, 1.0, 0.05);  // starved at quota
}

TEST(MapTask, LiveSpillPercentUpdateHonored) {
  World w;
  w.profile.map_cpu_secs_per_mib = 0.5;  // long compute window to update in
  // 80 MiB of output: 2 spills at the default trigger (~69 MiB) but a
  // single spill once the live update raises spill.percent to 0.99.
  JobConfig cfg;
  MapTask::Inputs in;
  in.task = TaskRef{TaskKind::Map, 0};
  in.input_bytes = mebibytes(80);
  in.source = cluster::NodeId(0);
  std::optional<TaskReport> report;
  JobConfig tuned = cfg;
  tuned.sort_spill_percent = 0.99;
  w.task = std::make_unique<MapTask>(
      w.eng, *w.nodes[0], *w.nodes[0], *w.fabric, w.profile, cfg, in, Rng(3),
      [&](const TaskReport& r) { report = r; });
  w.task->start();
  w.eng.schedule_at(1.0, [&] { w.task->update_config(tuned); });
  w.eng.run();
  ASSERT_TRUE(report.has_value());
  // 80 MiB at spill 0.99: single spill = optimal.
  EXPECT_EQ(report->counters.spilled_records,
            report->counters.combine_output_records);
}

TEST(MapTask, ZeroInputComputeOnlyTask) {
  World w;
  w.profile.map_cpu_secs_fixed = 10.0;
  w.profile.map_output_bytes_fixed = kibibytes(4);
  const auto r = w.run_map(JobConfig{}, Bytes(0));
  EXPECT_FALSE(r.failed_oom);
  EXPECT_NEAR(r.duration(), 10.0, 2.0);
  EXPECT_GT(r.counters.map_output_records, 0);
}

}  // namespace
}  // namespace mron::mapreduce

#include "mapreduce/mr_app_master.h"

#include <gtest/gtest.h>

#include "cluster/cluster_spec.h"
#include "mapreduce/simulation.h"

namespace mron::mapreduce {
namespace {

JobSpec small_job(Simulation& sim, int blocks, int reduces) {
  JobSpec spec;
  spec.name = "test-job";
  spec.input = sim.load_dataset("in", mebibytes(128.0 * blocks));
  spec.num_reduces = reduces;
  spec.profile.map_cpu_secs_per_mib = 0.1;
  spec.profile.task_startup_secs = 0.5;
  return spec;
}

SimulationOptions small_cluster() {
  SimulationOptions opt;
  opt.cluster = cluster::scaled_spec(4, 2);
  opt.seed = 42;
  return opt;
}

TEST(MrAppMaster, RunsJobToCompletion) {
  Simulation sim(small_cluster());
  const JobResult r = sim.run_job(small_job(sim, 12, 3));
  EXPECT_EQ(r.map_reports.size(), 12u);
  EXPECT_EQ(r.reduce_reports.size(), 3u);
  EXPECT_GT(r.exec_time(), 0.0);
  EXPECT_EQ(r.counters.failed_task_attempts, 0);
  EXPECT_GT(r.counters.map.map_output_records, 0);
}

TEST(MrAppMaster, ShuffleBytesConserved) {
  Simulation sim(small_cluster());
  const JobResult r = sim.run_job(small_job(sim, 10, 4));
  // Sum of reducer shuffle bytes == sum of map combined outputs.
  const Bytes map_out = r.counters.map.map_output_bytes;
  Bytes shuffled{0};
  for (const auto& rep : r.reduce_reports) {
    shuffled += rep.counters.shuffle_bytes;
  }
  EXPECT_NEAR(shuffled.as_double(), map_out.as_double(),
              map_out.as_double() * 0.01);
}

TEST(MrAppMaster, MapOnlyJob) {
  Simulation sim(small_cluster());
  const JobResult r = sim.run_job(small_job(sim, 6, 0));
  EXPECT_EQ(r.map_reports.size(), 6u);
  EXPECT_TRUE(r.reduce_reports.empty());
}

TEST(MrAppMaster, ComputeOnlyJobWithoutDataset) {
  Simulation sim(small_cluster());
  JobSpec spec;
  spec.name = "bbp-like";
  spec.num_maps_override = 8;
  spec.num_reduces = 1;
  spec.profile.map_cpu_secs_fixed = 5.0;
  spec.profile.map_output_bytes_fixed = kibibytes(4);
  const JobResult r = sim.run_job(spec);
  EXPECT_EQ(r.map_reports.size(), 8u);
  EXPECT_EQ(r.reduce_reports.size(), 1u);
}

TEST(MrAppMaster, DeterministicForFixedSeed) {
  auto run_once = [] {
    Simulation sim(small_cluster());
    return sim.run_job(small_job(sim, 8, 2)).exec_time();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(MrAppMaster, DifferentSeedsGiveDifferentTimes) {
  auto run_with = [](std::uint64_t seed) {
    auto opt = small_cluster();
    opt.seed = seed;
    Simulation sim(opt);
    return sim.run_job(small_job(sim, 8, 2)).exec_time();
  };
  EXPECT_NE(run_with(1), run_with(2));
}

TEST(MrAppMaster, OomConfigRetriesWithDefault) {
  Simulation sim(small_cluster());
  JobSpec spec = small_job(sim, 4, 1);
  spec.profile.map_working_set = mebibytes(600);
  JobConfig bad;
  bad.map_memory_mb = 512;  // 600 ws + sort buffer > 512 -> OOM
  bad.io_sort_mb = 100;
  spec.config = bad;

  bool fixed = false;
  auto& am = sim.submit_job(spec, [&](const JobResult& r) {
    EXPECT_GT(r.counters.failed_task_attempts, 0);
    EXPECT_EQ(r.map_reports.size(),
              4u + static_cast<unsigned>(r.counters.failed_task_attempts));
    fixed = true;
  });
  // After the first failures, fix the job config (as a tuner would).
  sim.engine().schedule_at(10.0, [&] {
    JobConfig good;  // defaults: 1 GiB containers fit the 600 MiB ws
    am.set_job_config(good);
  });
  sim.run();
  EXPECT_TRUE(fixed);
}

TEST(MrAppMaster, PerTaskConfigOverridesApply) {
  Simulation sim(small_cluster());
  JobSpec spec = small_job(sim, 6, 2);
  bool done = false;
  auto& am = sim.submit_job(spec, [&](const JobResult& r) {
    done = true;
    // At least one map must have run with the override.
    int with_override = 0;
    for (const auto& rep : r.map_reports) {
      if (rep.config.io_sort_mb == 300) ++with_override;
    }
    EXPECT_GT(with_override, 0);
  });
  JobConfig tuned;
  tuned.io_sort_mb = 300;
  // Overrides must be applied before tasks are requested; queued_tasks()
  // exposes what is still eligible.
  for (const auto& t : am.queued_tasks()) {
    if (t.kind == TaskKind::Map) am.set_task_config(t, tuned);
  }
  sim.run();
  EXPECT_TRUE(done);
}

TEST(MrAppMaster, LaunchBudgetGatesWaves) {
  Simulation sim(small_cluster());
  JobSpec spec = small_job(sim, 10, 0);
  int completed_at_checkpoint = -1;
  bool done = false;
  auto& am = sim.submit_job(spec, [&](const JobResult&) { done = true; });
  am.set_launch_budget(0);                  // hold everything
  am.set_launch_budget(TaskKind::Map, 3);   // allow exactly one 3-map wave
  sim.engine().schedule_at(500.0, [&] {
    completed_at_checkpoint = am.completed_maps();
    am.set_launch_budget(-1);  // release the rest
  });
  sim.run();
  EXPECT_EQ(completed_at_checkpoint, 3);
  EXPECT_TRUE(done);
}

TEST(MrAppMaster, SlowstartDelaysReducers) {
  Simulation sim(small_cluster());
  JobSpec spec = small_job(sim, 12, 2);
  spec.slowstart = 1.0;  // reducers only after ALL maps
  const JobResult r = sim.run_job(spec);
  double last_map_end = 0.0;
  for (const auto& m : r.map_reports) {
    last_map_end = std::max(last_map_end, m.end_time);
  }
  for (const auto& red : r.reduce_reports) {
    EXPECT_GE(red.start_time, last_map_end - 1e-9);
  }
}

TEST(MrAppMaster, TaskListenerSeesEveryAttempt) {
  Simulation sim(small_cluster());
  JobSpec spec = small_job(sim, 5, 2);
  int listened = 0;
  auto& am = sim.submit_job(spec);
  am.set_task_listener([&](const TaskReport&) { ++listened; });
  sim.run();
  EXPECT_EQ(listened, 7);
}

TEST(MrAppMaster, DataSkewSpreadsReducerInput) {
  auto opt = small_cluster();
  Simulation sim(opt);
  JobSpec spec = small_job(sim, 16, 4);
  spec.profile.partition_skew_cv = 0.5;
  const JobResult r = sim.run_job(spec);
  Bytes mn = r.reduce_reports[0].counters.shuffle_bytes;
  Bytes mx = mn;
  for (const auto& rep : r.reduce_reports) {
    mn = std::min(mn, rep.counters.shuffle_bytes);
    mx = std::max(mx, rep.counters.shuffle_bytes);
  }
  EXPECT_GT(mx.as_double(), mn.as_double() * 1.1);
}

}  // namespace
}  // namespace mron::mapreduce

#include "tuner/dynamic_configurator.h"

#include <gtest/gtest.h>

#include "cluster/cluster_spec.h"
#include "mapreduce/simulation.h"

namespace mron::tuner {
namespace {

using mapreduce::JobConfig;
using mapreduce::JobId;
using mapreduce::Simulation;
using mapreduce::SimulationOptions;
using mapreduce::TaskKind;
using mapreduce::TaskRef;

class ConfiguratorTest : public ::testing::Test {
 protected:
  ConfiguratorTest() : sim(make_options()) {
    mapreduce::JobSpec spec;
    spec.name = "job";
    spec.input = sim.load_dataset("in", mebibytes(128 * 8));
    spec.num_reduces = 2;
    am = &sim.submit_job(spec);
    cfgr.register_job(am);
  }

  static SimulationOptions make_options() {
    SimulationOptions opt;
    opt.cluster = cluster::scaled_spec(2, 1);
    return opt;
  }

  Simulation sim;
  mapreduce::MrAppMaster* am = nullptr;
  DynamicConfigurator cfgr;
};

TEST_F(ConfiguratorTest, JobParametersExcludeCategoryOne) {
  const auto params = cfgr.get_configurable_job_parameters(am->id());
  EXPECT_EQ(params.size(), 13u);  // all Table-2 params are cat II/III
  EXPECT_TRUE(cfgr.get_configurable_job_parameters(JobId(999)).empty());
}

TEST_F(ConfiguratorTest, QueuedTaskGetsAllParams) {
  const auto params = cfgr.get_configurable_task_parameters(
      am->id(), TaskRef{TaskKind::Map, 3});
  EXPECT_EQ(params.size(), 13u);
}

TEST_F(ConfiguratorTest, RunningTaskGetsOnlyLiveParams) {
  sim.engine().run_until(5.0);  // tasks have launched by now
  const auto params = cfgr.get_configurable_task_parameters(
      am->id(), TaskRef{TaskKind::Map, 0});
  for (const auto& name : params) {
    EXPECT_EQ(mapreduce::ParamRegistry::standard().find(name)->category,
              mapreduce::ParamCategory::Live)
        << name;
  }
  EXPECT_FALSE(params.empty());
  sim.run();
}

TEST_F(ConfiguratorTest, SetJobParametersByString) {
  EXPECT_EQ(cfgr.set_job_parameters(
                am->id(), {{"mapreduce.task.io.sort.mb", "320"}}),
            0);
  EXPECT_DOUBLE_EQ(am->job_config().io_sort_mb, 320);
  EXPECT_EQ(cfgr.set_job_parameters(am->id(), {{"bogus", "1"}}), 1);
  EXPECT_EQ(cfgr.set_job_parameters(JobId(999), {}), -1);
  sim.run();
}

TEST_F(ConfiguratorTest, SetTaskParametersByString) {
  EXPECT_EQ(cfgr.set_task_parameters(
                am->id(), TaskRef{TaskKind::Map, 5},
                {{"mapreduce.map.memory.mb", "2048"}}),
            0);
  bool checked = false;
  am->set_task_listener([&](const mapreduce::TaskReport& r) {
    if (r.task == TaskRef{TaskKind::Map, 5}) {
      EXPECT_DOUBLE_EQ(r.config.map_memory_mb, 2048);
      checked = true;
    }
  });
  sim.run();
  EXPECT_TRUE(checked);
}

TEST_F(ConfiguratorTest, SetAllTasksParameters) {
  EXPECT_EQ(cfgr.set_task_parameters(am->id(),
                                     {{"mapreduce.task.io.sort.mb", "200"}}),
            0);
  int with = 0;
  am->set_task_listener([&](const mapreduce::TaskReport& r) {
    if (r.config.io_sort_mb == 200) ++with;
  });
  sim.run();
  EXPECT_GT(with, 0);
}

TEST_F(ConfiguratorTest, InvalidValueCounted) {
  EXPECT_EQ(cfgr.set_job_parameters(
                am->id(), {{"mapreduce.task.io.sort.mb", "not-a-number"}}),
            1);
  sim.run();
}

TEST_F(ConfiguratorTest, UnregisterMakesJobUnknown) {
  cfgr.unregister_job(am->id());
  EXPECT_EQ(cfgr.set_job_parameters(am->id(), {}), -1);
  sim.run();
}

}  // namespace
}  // namespace mron::tuner

// Run-report rollup and serialization invariants (obs/report.h): totals are
// the sum of the per-job rollups, serialization is deterministic, the
// collector exports the lexicographically greatest run, and a real
// simulation produces the full schema with a final-flush sample at the
// simulation end time.
#include "obs/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/check.h"
#include "mapreduce/report_rollup.h"
#include "mapreduce/simulation.h"
#include "obs/recorder.h"
#include "workloads/benchmarks.h"

namespace mron::obs {
namespace {

ReportJob make_job(std::int64_t id, double submit, double finish,
                   double map_records, double reduce_records) {
  ReportJob job;
  job.id = id;
  job.name = "job" + std::to_string(id);
  job.submit_time = submit;
  job.finish_time = finish;
  job.phases["map"]["output_records"] = map_records;
  job.phases["map"]["spilled_records"] = map_records / 2;
  job.phases["reduce"]["output_records"] = reduce_records;
  job.stats["failed_attempts"] = 1.0;
  job.stats["spilled_records"] = map_records / 2;
  job.config["io.sort.mb"] = 100.0;
  return job;
}

TEST(RunReport, TotalsSumPhaseCountersAcrossJobs) {
  RunReport report;
  report.add_job(make_job(0, 0.0, 50.0, 1000.0, 10.0));
  report.add_job(make_job(1, 10.0, 80.0, 500.0, 20.0));
  const auto totals = report.run_totals();
  EXPECT_DOUBLE_EQ(totals.at("map.output_records"), 1500.0);
  EXPECT_DOUBLE_EQ(totals.at("map.spilled_records"), 750.0);
  EXPECT_DOUBLE_EQ(totals.at("reduce.output_records"), 30.0);
  EXPECT_DOUBLE_EQ(totals.at("jobs"), 2.0);
  EXPECT_DOUBLE_EQ(totals.at("failed_attempts"), 2.0);
  // exec_secs spans first submit to last finish.
  EXPECT_DOUBLE_EQ(totals.at("exec_secs"), 80.0);
}

TEST(RunReport, MetaPreservesInsertionOrderAndOverwrites) {
  RunReport report;
  report.set_meta("b", "1");
  report.set_meta("a", "2");
  report.set_meta("b", "3");
  ASSERT_EQ(report.meta().size(), 2u);
  EXPECT_EQ(report.meta()[0].first, "b");
  EXPECT_EQ(report.meta()[0].second, "3");
  EXPECT_EQ(report.meta()[1].first, "a");
}

TEST(RunReport, SerializationIsDeterministic) {
  RunReport report;
  report.set_meta("app", "test");
  report.add_job(make_job(0, 0.0, 10.0, 100.0, 5.0));
  const std::string once = report.to_json(nullptr);
  const std::string twice = report.to_json(nullptr);
  EXPECT_EQ(once, twice);
  EXPECT_NE(once.find("\"schema\":\"mron.run_report/4\""), std::string::npos);
}

TEST(RunReport, NullRecorderLeavesObsSectionsEmpty) {
  RunReport report;
  const std::string json = report.to_json(nullptr);
  // Even without a recorder the critical_path block carries the full
  // blame taxonomy (all zeros), so downstream validators see one shape.
  EXPECT_NE(json.find("\"critical_path\":{\"jobs\":[],"
                      "\"blame_totals\":{\"sched_wait\":0,"),
            std::string::npos);
  // The golden top-level key set, in order, present even with no recorder.
  const char* keys[] = {"\"schema\":", "\"meta\":",   "\"jobs\":",
                        "\"totals\":", "\"metrics\":", "\"series\":",
                        "\"audit\":"};
  std::size_t pos = 0;
  for (const char* key : keys) {
    const std::size_t at = json.find(key, pos);
    ASSERT_NE(at, std::string::npos) << key << " missing in " << json;
    pos = at;
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ReportCollector, ExportsTheLexicographicallyGreatestKey) {
  const std::string path = testing::TempDir() + "mron_collector_report.json";
  std::remove(path.c_str());
  ReportCollector collector(path);
  // The constructor's writability probe leaves no file behind.
  EXPECT_FALSE(std::ifstream(path).good());
  int serialized = 0;
  auto run = [&](const char* name) {
    return [&serialized, name](std::ostream& os) {
      ++serialized;
      os << "{\"run\":\"" << name << "\"}";
    };
  };
  EXPECT_TRUE(collector.empty());
  EXPECT_TRUE(collector.offer("1|b", run("b")));
  EXPECT_FALSE(collector.empty());
  // A lower key is not serialized and does not rewrite the file.
  EXPECT_FALSE(collector.offer("0|z", run("z")));
  EXPECT_EQ(serialized, 1);
  EXPECT_EQ(slurp(path), "{\"run\":\"b\"}");
  // A higher key replaces it; equal keys (identical runs) also rewrite.
  EXPECT_TRUE(collector.offer("1|c", run("c")));
  EXPECT_TRUE(collector.offer("1|c", run("c")));
  EXPECT_EQ(serialized, 3);
  EXPECT_EQ(slurp(path), "{\"run\":\"c\"}");
  EXPECT_THROW(ReportCollector("/nonexistent-dir/x.json"), InputError);
}

TEST(RunReport, SimulationRollupProducesFullSchema) {
  mapreduce::SimulationOptions sopt;
  sopt.seed = 41;
  sopt.observe = true;
  mapreduce::Simulation sim(sopt);
  mapreduce::JobSpec spec =
      workloads::make_terasort(sim, mebibytes(128.0 * 24), 6);
  const mapreduce::JobConfig config = spec.config;
  const mapreduce::JobResult result = sim.run_job(spec);

  const std::string json = mapreduce::run_report_json(
      sim, {{&result, &config}}, {{"app", "terasort"}});
  EXPECT_NE(json.find("\"schema\":\"mron.run_report/4\""), std::string::npos);
  EXPECT_NE(json.find("\"app\":\"terasort\""), std::string::npos);
  EXPECT_NE(json.find("\"cluster.node0.cpu_util\""), std::string::npos);
  EXPECT_NE(json.find("\"spilled_records\""), std::string::npos);
  // Task-duration histograms export interpolated quantiles.
  EXPECT_NE(json.find("\"mr.map.task_secs.p95\""), std::string::npos);

  // The /4 dfs block: placement counts are present even on a fault-free
  // run, and a reliable cluster ends fully replicated with zero copies.
  EXPECT_NE(json.find("\"dfs\":{\"blocks_total\":24"), std::string::npos);
  EXPECT_NE(json.find("\"under_replicated_final\":0"), std::string::npos);
  EXPECT_NE(json.find("\"rerepl.started\":0"), std::string::npos);
  EXPECT_NE(json.find("\"dfs_policy\":\"rack-aware\""), std::string::npos);

  // The /3 critical_path block: job 0 carries a non-empty segment path
  // rooted at job_submit and ending in job_finish, plus blame totals.
  EXPECT_NE(json.find("\"critical_path\":{\"jobs\":[{\"id\":0,\"segments\":["),
            std::string::npos);
  EXPECT_NE(json.find("\"from\":\"job_submit\""), std::string::npos);
  EXPECT_NE(json.find("\"to\":\"job_finish\""), std::string::npos);
  EXPECT_NE(json.find("\"blame_totals\":{\"sched_wait\":"), std::string::npos);

  // Satellite: Simulation::run flushes the recorder and takes one final
  // registry sample after the engine drains, so the last published series
  // point lands exactly at the simulation end time.
  const Recorder& rec = *sim.recorder();
  const Series* live = rec.series().find("yarn.live_containers");
  ASSERT_NE(live, nullptr);
  ASSERT_GT(live->size(), 0u);
  EXPECT_DOUBLE_EQ(live->at(live->size() - 1).time, sim.engine().now());

  // Wave-progress series end fully complete.
  const Series* frac = rec.series().find("job0.maps_completed_frac");
  ASSERT_NE(frac, nullptr);
  ASSERT_GT(frac->size(), 0u);
  EXPECT_DOUBLE_EQ(frac->at(frac->size() - 1).value, 1.0);
}

TEST(RunReport, IdenticalSimulationsSerializeIdentically) {
  auto run_one = [] {
    mapreduce::SimulationOptions sopt;
    sopt.seed = 42;
    sopt.observe = true;
    mapreduce::Simulation sim(sopt);
    mapreduce::JobSpec spec =
        workloads::make_terasort(sim, mebibytes(128.0 * 16), 4);
    const mapreduce::JobConfig config = spec.config;
    const mapreduce::JobResult result = sim.run_job(spec);
    return mapreduce::run_report_json(sim, {{&result, &config}},
                                      {{"app", "terasort"}});
  };
  EXPECT_EQ(run_one(), run_one());
}

}  // namespace
}  // namespace mron::obs

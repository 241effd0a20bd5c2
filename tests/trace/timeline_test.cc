#include "trace/timeline.h"

#include <gtest/gtest.h>

#include <sstream>

#include "cluster/cluster_spec.h"
#include "mapreduce/simulation.h"

namespace mron::trace {
namespace {

using mapreduce::JobResult;
using mapreduce::JobSpec;
using mapreduce::Simulation;
using mapreduce::SimulationOptions;

JobResult run_small_job(std::uint64_t seed, bool inject_failure = false) {
  SimulationOptions opt;
  opt.cluster = cluster::scaled_spec(4, 2);
  opt.seed = seed;
  Simulation sim(opt);
  JobSpec spec;
  spec.name = "traced";
  spec.input = sim.load_dataset("in", mebibytes(128.0 * 10));
  spec.num_reduces = 3;
  JobResult result;
  sim.submit_job(std::move(spec),
                 [&](const JobResult& r) { result = r; });
  if (inject_failure) {
    sim.engine().schedule_at(20.0,
                             [&] { sim.rm().fail_node(cluster::NodeId(1)); });
  }
  sim.run();
  return result;
}

TEST(TaskCsv, OneRowPerAttemptPlusHeader) {
  const JobResult r = run_small_job(1);
  std::ostringstream os;
  write_task_csv(r, os);
  const std::string out = os.str();
  const auto lines = std::count(out.begin(), out.end(), '\n');
  EXPECT_EQ(static_cast<std::size_t>(lines),
            1 + r.map_reports.size() + r.reduce_reports.size());
  EXPECT_NE(out.find("kind,index,attempt"), std::string::npos);
  EXPECT_NE(out.find("map,0,1,"), std::string::npos);
  EXPECT_NE(out.find("reduce,"), std::string::npos);
  EXPECT_NE(out.find("NODE_LOCAL"), std::string::npos);
}

TEST(Summary, PhasesAndCountsAreConsistent) {
  const JobResult r = run_small_job(2);
  const TimelineSummary s = summarize(r);
  EXPECT_EQ(s.successful_maps, 10);
  EXPECT_EQ(s.successful_reduces, 3);
  EXPECT_EQ(s.node_local + s.rack_local + s.off_rack, 10);
  EXPECT_GT(s.map_phase.seconds(), 0.0);
  EXPECT_GE(s.reduce_phase.end, s.map_phase.end);  // reducers finish last
  EXPECT_GE(s.p95_map_secs, s.avg_map_secs);
  EXPECT_GT(s.locality_fraction(), 0.0);
  EXPECT_LE(s.locality_fraction(), 1.0);
}

TEST(Summary, CountsFailedAttempts) {
  const JobResult r = run_small_job(3, /*inject_failure=*/true);
  const TimelineSummary s = summarize(r);
  // The fail-stop node's tasks re-executed; successes stay exact.
  EXPECT_EQ(s.successful_maps, 10);
  EXPECT_EQ(s.successful_reduces, 3);
}

TEST(Swimlanes, RendersOneLanePerNode) {
  const JobResult r = run_small_job(4);
  const std::string lanes = render_swimlanes(r, 4, 40);
  EXPECT_NE(lanes.find("node 0 |"), std::string::npos);
  EXPECT_NE(lanes.find("node 3 |"), std::string::npos);
  // Maps and reduces both appear somewhere.
  EXPECT_TRUE(lanes.find('M') != std::string::npos ||
              lanes.find('B') != std::string::npos);
  EXPECT_TRUE(lanes.find('R') != std::string::npos ||
              lanes.find('B') != std::string::npos);
  // Exactly 4 lanes of the requested width.
  int lane_rows = 0;
  std::istringstream is(lanes);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("node", 0) == 0) {
      ++lane_rows;
      const auto bar = line.find('|');
      EXPECT_EQ(line.size() - bar - 2, 40u);  // cells between the bars
    }
  }
  EXPECT_EQ(lane_rows, 4);
}

TEST(Swimlanes, CapsLanesByGroupingContiguousNodes) {
  const JobResult r = run_small_job(4);
  // 4 nodes into at most 2 lanes: groups of 2 contiguous nodes share one.
  const std::string grouped = render_swimlanes(r, 4, 40, /*max_lanes=*/2);
  EXPECT_NE(grouped.find("node 0-1 |"), std::string::npos);
  EXPECT_NE(grouped.find("node 2-3 |"), std::string::npos);
  EXPECT_EQ(grouped.find("node 0 |"), std::string::npos);
  int lane_rows = 0;
  std::istringstream is(grouped);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("node", 0) == 0) ++lane_rows;
  }
  EXPECT_EQ(lane_rows, 2);
  // A cap at or above the node count changes nothing, byte for byte.
  EXPECT_EQ(render_swimlanes(r, 4, 40, /*max_lanes=*/4),
            render_swimlanes(r, 4, 40));
  // An uneven division: 4 nodes into 3 lanes -> groups of 2, 2 lanes used.
  const std::string uneven = render_swimlanes(r, 4, 40, /*max_lanes=*/3);
  EXPECT_NE(uneven.find("node 0-1 |"), std::string::npos);
}

TEST(Swimlanes, RejectsDegenerateArgs) {
  const JobResult r = run_small_job(5);
  EXPECT_THROW((void)render_swimlanes(r, 0, 40), CheckError);
  EXPECT_THROW((void)render_swimlanes(r, 4, 0), CheckError);
}

}  // namespace
}  // namespace mron::trace

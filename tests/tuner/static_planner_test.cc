#include "tuner/static_planner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/cluster_spec.h"
#include "common/check.h"
#include "workloads/benchmarks.h"

namespace mron::tuner {
namespace {

StaticPlanOptions small_cluster_options() {
  StaticPlanOptions opt;
  opt.cluster = cluster::scaled_spec(4, 2);
  opt.slowstart_candidates = {0.05, 1.0};
  return opt;
}

mapreduce::JobSpec terasort_template() {
  mapreduce::JobSpec spec;
  spec.name = "plan-me";
  spec.profile = workloads::profile_for(workloads::Benchmark::Terasort,
                                        workloads::Corpus::Synthetic);
  return spec;
}

TEST(StaticPlanner, SweepsEveryCandidatePair) {
  auto opt = small_cluster_options();
  opt.reducer_candidates = {2, 8};
  const auto plan = plan_static_parameters(terasort_template(),
                                           mebibytes(128.0 * 16), opt);
  EXPECT_EQ(plan.sweep.size(), 4u);  // 2 reducer counts x 2 slowstarts
}

TEST(StaticPlanner, PicksTheSweepMinimum) {
  auto opt = small_cluster_options();
  opt.reducer_candidates = {1, 4, 16};
  const auto plan = plan_static_parameters(terasort_template(),
                                           mebibytes(128.0 * 16), opt);
  for (const auto& p : plan.sweep) {
    EXPECT_GE(p.simulated_secs, plan.simulated_secs);
  }
  // The chosen pair is one of the candidates.
  EXPECT_TRUE(plan.num_reduces == 1 || plan.num_reduces == 4 ||
              plan.num_reduces == 16);
  EXPECT_TRUE(plan.slowstart == 0.05 || plan.slowstart == 1.0);
}

TEST(StaticPlanner, DefaultCandidatesScaleWithMaps) {
  const auto plan = plan_static_parameters(
      terasort_template(), mebibytes(128.0 * 32), small_cluster_options());
  // maps/8, maps/4, maps/2, maps = 4, 8, 16, 32.
  std::vector<int> seen;
  for (const auto& p : plan.sweep) {
    if (seen.empty() || seen.back() != p.num_reduces) {
      seen.push_back(p.num_reduces);
    }
  }
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  EXPECT_EQ(seen, (std::vector<int>{4, 8, 16, 32}));
}

TEST(StaticPlanner, ExtremeReducerCountsLose) {
  // One reducer serializes the whole reduce phase: it must never be chosen
  // over a reasonable count for a shuffle-heavy job.
  auto opt = small_cluster_options();
  opt.reducer_candidates = {1, 8};
  opt.slowstart_candidates = {0.05};
  const auto plan = plan_static_parameters(terasort_template(),
                                           mebibytes(128.0 * 24), opt);
  EXPECT_EQ(plan.num_reduces, 8);
}

TEST(StaticPlanner, DeterministicForSeed) {
  auto opt = small_cluster_options();
  opt.reducer_candidates = {2, 4};
  const auto a = plan_static_parameters(terasort_template(),
                                        mebibytes(128.0 * 8), opt);
  const auto b = plan_static_parameters(terasort_template(),
                                        mebibytes(128.0 * 8), opt);
  EXPECT_EQ(a.num_reduces, b.num_reduces);
  EXPECT_DOUBLE_EQ(a.simulated_secs, b.simulated_secs);
}

TEST(StaticPlanner, RejectsEmptyInput) {
  EXPECT_THROW((void)plan_static_parameters(terasort_template(), Bytes(0),
                                            small_cluster_options()),
               CheckError);
}

}  // namespace
}  // namespace mron::tuner

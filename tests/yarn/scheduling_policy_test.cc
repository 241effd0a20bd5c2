#include "yarn/scheduling_policy.h"

#include <gtest/gtest.h>

namespace mron::yarn {
namespace {

AppSchedState app(int id, int order, double mem_mib, std::size_t pending,
                  bool skip = false) {
  AppSchedState s;
  s.id = AppId(id);
  s.submit_order = order;
  s.allocated_memory = mebibytes(mem_mib);
  s.pending_requests = pending;
  s.skip = skip;
  return s;
}

TEST(FifoPolicy, PicksEarliestSubmission) {
  FifoPolicy fifo;
  const auto pick =
      fifo.pick_next({app(0, 5, 0, 3), app(1, 2, 0, 3)});
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, AppId(1));
}

TEST(FifoPolicy, SkipsAppsWithoutPending) {
  FifoPolicy fifo;
  const auto pick =
      fifo.pick_next({app(0, 1, 0, 0), app(1, 2, 0, 1)});
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, AppId(1));
}

TEST(FifoPolicy, SkipsMarkedApps) {
  FifoPolicy fifo;
  const auto pick =
      fifo.pick_next({app(0, 1, 0, 1, /*skip=*/true), app(1, 2, 0, 1)});
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, AppId(1));
}

TEST(FifoPolicy, EmptyWhenNothingPending) {
  FifoPolicy fifo;
  EXPECT_FALSE(fifo.pick_next({app(0, 1, 0, 0)}).has_value());
  EXPECT_FALSE(fifo.pick_next({}).has_value());
}

TEST(FairPolicy, PicksSmallestShare) {
  FairPolicy fair;
  const auto pick =
      fair.pick_next({app(0, 0, 4096, 2), app(1, 1, 1024, 2)});
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, AppId(1));
}

TEST(FairPolicy, TieBreaksBySubmitOrder) {
  FairPolicy fair;
  const auto pick =
      fair.pick_next({app(0, 3, 1024, 1), app(1, 1, 1024, 1)});
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, AppId(1));
}

}  // namespace
}  // namespace mron::yarn

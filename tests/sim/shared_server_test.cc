#include "sim/shared_server.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"

namespace mron::sim {
namespace {

TEST(SharedServer, SingleStreamRunsAtFullCapacity) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  double done_at = -1.0;
  disk.submit(500.0, [&] { done_at = eng.now(); });
  eng.run();
  EXPECT_DOUBLE_EQ(done_at, 5.0);
}

TEST(SharedServer, TwoEqualStreamsShareFairly) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  double a = -1, b = -1;
  disk.submit(500.0, [&] { a = eng.now(); });
  disk.submit(500.0, [&] { b = eng.now(); });
  eng.run();
  // Each gets 50 units/s -> both finish at t=10.
  EXPECT_DOUBLE_EQ(a, 10.0);
  EXPECT_DOUBLE_EQ(b, 10.0);
}

TEST(SharedServer, ShortStreamFinishesThenLongSpeedsUp) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  double short_done = -1, long_done = -1;
  disk.submit(100.0, [&] { short_done = eng.now(); });
  disk.submit(500.0, [&] { long_done = eng.now(); });
  eng.run();
  // Shared at 50/s until short finishes at t=2 (100/50); long then has
  // 400 left at 100/s -> t = 2 + 4 = 6.
  EXPECT_DOUBLE_EQ(short_done, 2.0);
  EXPECT_DOUBLE_EQ(long_done, 6.0);
}

TEST(SharedServer, CapLimitsSingleStream) {
  Engine eng;
  SharedServer cpu(eng, 8.0, "cpu");
  double done = -1;
  cpu.submit(4.0, /*cap=*/0.25, [&] { done = eng.now(); });
  eng.run();
  EXPECT_DOUBLE_EQ(done, 16.0);  // 4 core-seconds at 0.25 cores
}

TEST(SharedServer, WaterFillingRedistributesSurplus) {
  Engine eng;
  SharedServer cpu(eng, 10.0, "cpu");
  // One capped stream (cap 2) and one uncapped stream: allocation should be
  // 2 and 8, not 5 and 5.
  double capped = -1, uncapped = -1;
  cpu.submit(20.0, 2.0, [&] { capped = eng.now(); });
  cpu.submit(80.0, SharedServer::kUncapped, [&] { uncapped = eng.now(); });
  eng.run();
  EXPECT_DOUBLE_EQ(capped, 10.0);
  EXPECT_DOUBLE_EQ(uncapped, 10.0);
}

TEST(SharedServer, LateArrivalSlowsExisting) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  double first_done = -1;
  disk.submit(400.0, [&] { first_done = eng.now(); });
  eng.schedule_at(2.0, [&] { disk.submit(1000.0, [] {}); });
  eng.run();
  // First: 200 done by t=2 at 100/s, then 200 left at 50/s -> t=6.
  EXPECT_DOUBLE_EQ(first_done, 6.0);
}

TEST(SharedServer, CancelFreesBandwidth) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  double done = -1;
  disk.submit(400.0, [&] { done = eng.now(); });
  bool cancelled_fired = false;
  const StreamId victim =
      disk.submit(1000.0, [&] { cancelled_fired = true; });
  eng.schedule_at(2.0, [&] { disk.cancel(victim); });
  eng.run();
  EXPECT_FALSE(cancelled_fired);
  // 100 done by t=2 (50/s each), then 300 left at 100/s -> t=5.
  EXPECT_DOUBLE_EQ(done, 5.0);
}

TEST(SharedServer, ZeroWorkCompletesAsync) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  bool done = false;
  disk.submit(0.0, [&] { done = true; });
  EXPECT_FALSE(done);  // not synchronous
  eng.run();
  EXPECT_TRUE(done);
}

TEST(SharedServer, RemainingTracksProgress) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  const StreamId id = disk.submit(400.0, [] {});
  double observed = -1;
  eng.schedule_at(1.0, [&] { observed = disk.remaining(id); });
  eng.run();
  EXPECT_DOUBLE_EQ(observed, 300.0);
  EXPECT_DOUBLE_EQ(disk.remaining(id), 0.0);  // finished
}

TEST(SharedServer, BusyIntegralEqualsWorkServed) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  disk.submit(123.0, [] {});
  disk.submit(456.0, [] {});
  eng.run();
  EXPECT_NEAR(disk.busy_integral(), 579.0, 1e-6);
}

TEST(SharedServer, CompletionCallbackCanResubmit) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  double second_done = -1;
  disk.submit(100.0, [&] {
    disk.submit(100.0, [&] { second_done = eng.now(); });
  });
  eng.run();
  EXPECT_DOUBLE_EQ(second_done, 2.0);
}

// Property: under random arrivals/sizes/caps, total work served equals total
// work submitted, and every stream completes.
TEST(SharedServerProperty, ConservationUnderRandomLoad) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Engine eng;
    SharedServer srv(eng, 50.0, "srv");
    Rng rng(seed);
    double submitted = 0.0;
    int completed = 0;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
      const double at = rng.uniform(0.0, 100.0);
      const double work = rng.uniform(1.0, 500.0);
      const double cap = rng.uniform01() < 0.5
                             ? SharedServer::kUncapped
                             : rng.uniform(0.5, 20.0);
      submitted += work;
      eng.schedule_at(at, [&, work, cap] {
        srv.submit(work, cap, [&] { ++completed; });
      });
    }
    eng.run();
    EXPECT_EQ(completed, n) << "seed " << seed;
    EXPECT_NEAR(srv.busy_integral(), submitted, 1e-3) << "seed " << seed;
    EXPECT_EQ(srv.active(), 0u);
  }
}

// A loaded server keeps exactly one completion event: every submit and
// cancel moves it in place (Engine::reschedule) instead of leaving a
// cancelled entry behind in the engine's heap.
TEST(SharedServer, SubmitMovesTheCompletionEventInPlace) {
  Engine eng;
  SharedServer disk(eng, 100.0, "disk");
  int done = 0;
  std::vector<StreamId> ids;
  ids.push_back(disk.submit(1e6, [&done] { ++done; }));
  const std::size_t slots = eng.slot_capacity();
  auto check = [&] {
    ASSERT_EQ(eng.pending(), 1u);
    ASSERT_EQ(eng.queue_size(), 1u);
    ASSERT_EQ(eng.slot_capacity(), slots);
  };
  for (int i = 0; i < 50; ++i) {
    eng.run_until(eng.now() + 0.5);  // far from any completion
    ids.push_back(disk.submit(1e6 + i, [&done] { ++done; }));
    ASSERT_NO_FATAL_FAILURE(check());
  }
  for (int i = 0; i < 10; ++i) {
    disk.cancel(ids[static_cast<std::size_t>(5 * i)]);
    ASSERT_NO_FATAL_FAILURE(check());
  }
  EXPECT_EQ(disk.active(), 41u);
  eng.run();
  EXPECT_EQ(done, 41);
  EXPECT_EQ(eng.queue_size(), 0u);
}

// Property: the server never exceeds its capacity: work served over any
// interval is at most capacity * dt. Checked via total makespan lower bound.
TEST(SharedServerProperty, MakespanRespectsCapacity) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Engine eng;
    SharedServer srv(eng, 10.0, "srv");
    Rng rng(seed + 100);
    double total = 0.0;
    for (int i = 0; i < 50; ++i) {
      const double work = rng.uniform(1.0, 100.0);
      total += work;
      srv.submit(work, [] {});
    }
    eng.run();
    EXPECT_GE(eng.now() + 1e-9, total / 10.0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mron::sim

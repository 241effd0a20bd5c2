#include "sim/parallel_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mron::sim {
namespace {

TEST(ParallelRunner, MapDeliversResultsInTaskIndexOrder) {
  ParallelRunner pool(4);
  const auto out =
      pool.map<int>(64, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(ParallelRunner, ForEachRunsEveryTaskExactlyOnce) {
  ParallelRunner pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.for_each(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRunner, SingleJobRunsInlineOnTheCaller) {
  ParallelRunner pool(1);
  const auto caller = std::this_thread::get_id();
  bool same_thread = true;
  pool.for_each(16, [&](std::size_t) {
    same_thread = same_thread && std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(same_thread);
}

TEST(ParallelRunner, ResultsIdenticalAtAnyJobsValue) {
  auto work = [](std::size_t i) {
    // Deterministic per-index computation, order-independent.
    double x = static_cast<double>(i) + 1.0;
    for (int k = 0; k < 100; ++k) x = x * 1.0000001 + 0.5;
    return x;
  };
  ParallelRunner serial(1);
  ParallelRunner wide(4);
  const auto a = serial.map<double>(100, work);
  const auto b = wide.map<double>(100, work);
  EXPECT_EQ(a, b);  // exact double equality, not near
}

TEST(ParallelRunner, RethrowsLowestIndexException) {
  ParallelRunner pool(4);
  try {
    pool.for_each(32, [](std::size_t i) {
      if (i == 5 || i == 20) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "5");
  }
}

TEST(ParallelRunner, NestedCallsDegradeToInlineWithoutDeadlock) {
  ParallelRunner pool(4);
  std::atomic<int> total{0};
  pool.for_each(8, [&](std::size_t) {
    // Re-entering the same busy pool must run serially on this worker.
    pool.for_each(8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelRunner, EmptyBatchIsANoOp) {
  ParallelRunner pool(4);
  pool.for_each(0, [](std::size_t) { FAIL(); });
  const auto out = pool.map<int>(0, [](std::size_t) { return 1; });
  EXPECT_TRUE(out.empty());
}

TEST(ParallelRunner, ReusableAcrossBatches) {
  ParallelRunner pool(3);
  long long sum = 0;
  for (int round = 0; round < 10; ++round) {
    const auto vals =
        pool.map<int>(50, [](std::size_t i) { return static_cast<int>(i); });
    sum += std::accumulate(vals.begin(), vals.end(), 0LL);
  }
  EXPECT_EQ(sum, 10LL * (49 * 50 / 2));
}

}  // namespace
}  // namespace mron::sim

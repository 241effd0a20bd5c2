#include "tuner/eval_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "mapreduce/params.h"

namespace mron::tuner {
namespace {

using mapreduce::JobConfig;
using mapreduce::ParamRegistry;

CacheKey key_of(double a, double b) {
  CacheKey key;
  key.add(a);
  key.add(b);
  return key;
}

TEST(CacheKey, EqualInputsEqualKeys) {
  EXPECT_EQ(key_of(1.5, 2.5), key_of(1.5, 2.5));
  EXPECT_EQ(key_of(1.5, 2.5).hash(), key_of(1.5, 2.5).hash());
}

TEST(CacheKey, DifferentInputsDifferentKeys) {
  EXPECT_FALSE(key_of(1.5, 2.5) == key_of(2.5, 1.5));  // order matters
  EXPECT_FALSE(key_of(1.5, 2.5) == key_of(1.5, 2.6));
}

TEST(CacheKey, NegativeZeroKeysLikePositiveZero) {
  EXPECT_EQ(key_of(0.0, 1.0), key_of(-0.0, 1.0));
}

TEST(CacheKey, ConfigsCollapsingUnderClampShareAKey) {
  // clamp_constraints caps io.sort.mb by the map container headroom: both
  // of these configs evaluate as the same point, so they must key equally.
  const auto& reg = ParamRegistry::extended();
  JobConfig a, b;
  a.map_memory_mb = 512;
  b.map_memory_mb = 512;
  a.io_sort_mb = 800;
  b.io_sort_mb = 900;  // both clamp to 512 - 256
  CacheKey ka, kb;
  ka.add_config(reg, a);
  kb.add_config(reg, b);
  EXPECT_EQ(ka, kb);
}

TEST(CacheKey, DistinctConfigsKeyDifferently) {
  const auto& reg = ParamRegistry::extended();
  JobConfig a, b;
  b.reduce_memory_mb = 2048;
  CacheKey ka, kb;
  ka.add_config(reg, a);
  kb.add_config(reg, b);
  EXPECT_FALSE(ka == kb);
}

TEST(EvalCache, HitReturnsInsertedValue) {
  EvalCache<double> cache;
  cache.insert(key_of(1, 2), 42.0);
  const auto hit = cache.lookup(key_of(1, 2));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 42.0);
  EXPECT_FALSE(cache.lookup(key_of(2, 1)).has_value());
}

TEST(EvalCache, GetOrComputeMemoizes) {
  EvalCache<double> cache;
  int calls = 0;
  auto compute = [&] {
    ++calls;
    return 7.0;
  };
  EXPECT_EQ(cache.get_or_compute(key_of(3, 4), compute), 7.0);
  EXPECT_EQ(cache.get_or_compute(key_of(3, 4), compute), 7.0);
  EXPECT_EQ(calls, 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(EvalCache, EvictsLeastRecentlyUsedAtCapacity) {
  // One shard of capacity 2: inserting a third key evicts the stalest.
  EvalCache<int> cache(/*capacity=*/2, /*shards=*/1);
  cache.insert(key_of(1, 1), 1);
  cache.insert(key_of(2, 2), 2);
  ASSERT_TRUE(cache.lookup(key_of(1, 1)).has_value());  // refresh key 1
  cache.insert(key_of(3, 3), 3);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup(key_of(1, 1)).has_value());
  EXPECT_FALSE(cache.lookup(key_of(2, 2)).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(key_of(3, 3)).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(EvalCache, ThreadSafeUnderConcurrentGetOrCompute) {
  EvalCache<std::int64_t> cache;
  std::atomic<std::int64_t> computes{0};
  constexpr int kThreads = 8;
  constexpr int kKeys = 64;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int rep = 0; rep < 50; ++rep) {
        for (int k = 0; k < kKeys; ++k) {
          const auto v = cache.get_or_compute(key_of(k, k), [&] {
            computes.fetch_add(1);
            return std::int64_t{k} * 10;
          });
          EXPECT_EQ(v, std::int64_t{k} * 10);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  // Racing misses may compute a key more than once, but values are pure,
  // and far fewer computes than lookups proves the cache actually served.
  EXPECT_GE(computes.load(), kKeys);
  EXPECT_LT(computes.load(), kThreads * kKeys);
}

TEST(EvalCacheGlobals, EnableSwitchRoundTrips) {
  const bool saved = eval_cache_enabled();
  set_eval_cache_enabled(false);
  EXPECT_FALSE(eval_cache_enabled());
  set_eval_cache_enabled(true);
  EXPECT_TRUE(eval_cache_enabled());
  set_eval_cache_enabled(saved);
}

TEST(EvalCacheGlobals, StatsAggregateAndExportAsMetrics) {
  reset_eval_cache_global_stats();
  EvalCache<double> cache;
  cache.get_or_compute(key_of(9, 9), [] { return 1.0; });
  cache.get_or_compute(key_of(9, 9), [] { return 1.0; });
  const auto global = eval_cache_global_stats();
  EXPECT_EQ(global.hits, 1u);
  EXPECT_EQ(global.misses, 1u);
  EXPECT_EQ(global.insertions, 1u);
  EXPECT_DOUBLE_EQ(global.hit_rate(), 0.5);
}

}  // namespace
}  // namespace mron::tuner

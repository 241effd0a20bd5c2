#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/check.h"

namespace mron::obs {
namespace {

TEST(Counter, AccumulatesDeltas) {
  Counter c;
  EXPECT_EQ(c.value(), 0.0);
  c.add();
  c.add(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
}

TEST(Gauge, KeepsLatestValue) {
  Gauge g;
  g.set(4.0);
  g.set(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), -1.5);
}

TEST(Histogram, BucketsAreInclusiveUpperBounds) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(1.0);    // lands in bucket 0 (inclusive)
  h.observe(1.001);  // bucket 1
  h.observe(50.0);   // bucket 2
  h.observe(1e9);    // overflow bucket
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(1), 1);
  EXPECT_EQ(h.bucket(2), 1);
  EXPECT_EQ(h.bucket(3), 1);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 1.001 + 50.0 + 1e9);
}

TEST(MetricsRegistry, FindOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("jobs");
  Counter& c2 = reg.counter("jobs");
  EXPECT_EQ(&c1, &c2);
  c1.add();
  EXPECT_DOUBLE_EQ(reg.value("jobs"), 1.0);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.has("jobs"));
  EXPECT_FALSE(reg.has("nope"));
  EXPECT_DOUBLE_EQ(reg.value("nope"), 0.0);
}

TEST(MetricsRegistry, KindMismatchIsAnError) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), CheckError);
}

TEST(MetricsRegistry, WriteJsonIsWellFormed) {
  MetricsRegistry reg;
  reg.counter("a.count").add(3.0);
  reg.gauge("b.level").set(0.25);
  reg.histogram("c.lat", {1.0, 2.0}).observe(1.5);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"schema\":\"mron.metrics/2\",\"metrics\":[", 0),
            0u)
      << json;
  EXPECT_NE(json.find("\"a.count\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity (no strings in the
  // schema contain braces).
  int depth = 0;
  for (char ch : json) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(MetricsRegistry, WriteJsonDependsOnlyOnFinalValues) {
  // The export is a snapshot of final state: how a gauge got to its value
  // leaves no trace in the bytes, and an entry carries no timeline.
  MetricsRegistry busy, quiet;
  for (int i = 0; i < 1000; ++i) {
    busy.gauge("g").set(static_cast<double>(i));
  }
  quiet.gauge("g").set(999.0);
  std::ostringstream busy_os, quiet_os;
  busy.write_json(busy_os);
  quiet.write_json(quiet_os);
  EXPECT_EQ(busy_os.str(), quiet_os.str());
  EXPECT_EQ(quiet_os.str(),
            "{\"schema\":\"mron.metrics/2\",\"metrics\":[{\"name\":\"g\","
            "\"kind\":\"gauge\",\"value\":999}]}\n");
}

TEST(Histogram, QuantileInterpolatesWithinTheBucket) {
  Histogram h({10.0, 20.0});
  for (int i = 0; i < 10; ++i) h.observe(5.0);  // all in (-inf, 10]
  // Rank 5 of 10 uniform in [0, 10] -> 5.0; rank 9.5 -> 9.5.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 9.5);
}

TEST(Histogram, QuantileWalksAcrossBuckets) {
  Histogram h({1.0, 3.0});
  h.observe(0.5);  // bucket 0
  h.observe(2.0);  // bucket 1
  h.observe(3.0);  // bucket 1
  // Rank 1.5 of 3: past bucket 0 (count 1), half a unit into bucket 1's
  // two observations across [1, 3] -> 1.5.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.5);
}

TEST(Histogram, QuantileOverflowReportsTheLastFiniteBound) {
  Histogram h({1.0, 10.0});
  h.observe(1e9);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 10.0);
}

TEST(Histogram, QuantileOfEmptyIsZero) {
  Histogram h({1.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(MetricsRegistry, QuantileByNameOnlyAnswersForHistograms) {
  MetricsRegistry reg;
  for (int i = 0; i < 10; ++i) {
    reg.histogram("lat", {10.0, 20.0}).observe(5.0);
  }
  reg.counter("n").add(7.0);
  EXPECT_TRUE(reg.is_histogram("lat"));
  EXPECT_FALSE(reg.is_histogram("n"));
  EXPECT_FALSE(reg.is_histogram("absent"));
  EXPECT_DOUBLE_EQ(reg.quantile("lat", 0.5), 5.0);
  EXPECT_DOUBLE_EQ(reg.quantile("n", 0.5), 0.0);
  EXPECT_DOUBLE_EQ(reg.quantile("absent", 0.5), 0.0);
}

TEST(Histogram, OverflowCountTracksOnlyTheImplicitBucket) {
  Histogram h({1.0, 10.0});
  EXPECT_EQ(h.overflow_count(), 0);
  h.observe(0.5);
  h.observe(10.0);  // inclusive upper bound: still a finite bucket
  EXPECT_EQ(h.overflow_count(), 0);
  h.observe(10.001);
  h.observe(1e9);
  EXPECT_EQ(h.overflow_count(), 2);
}

TEST(Histogram, QuantileClampedFlagsRanksInTheOverflowBucket) {
  Histogram h({1.0, 10.0});
  EXPECT_FALSE(h.quantile_clamped(0.99));  // empty: nothing clamps
  for (int i = 0; i < 99; ++i) h.observe(0.5);
  EXPECT_FALSE(h.quantile_clamped(0.99));
  h.observe(1e9);  // 1 of 100 overflows: p99 holds, p999 clamps
  EXPECT_FALSE(h.quantile_clamped(0.5));
  EXPECT_TRUE(h.quantile_clamped(0.999));
  Histogram all_over({1.0});
  all_over.observe(5.0);
  EXPECT_TRUE(all_over.quantile_clamped(0.5));
}

TEST(MetricsRegistry, OverflowByNameOnlyAnswersForHistograms) {
  MetricsRegistry reg;
  reg.histogram("lat", {1.0}).observe(50.0);
  reg.counter("n").add(7.0);
  EXPECT_EQ(reg.overflow_count("lat"), 1);
  EXPECT_TRUE(reg.quantile_clamped("lat", 0.99));
  EXPECT_EQ(reg.overflow_count("n"), 0);
  EXPECT_FALSE(reg.quantile_clamped("n", 0.99));
  EXPECT_EQ(reg.overflow_count("absent"), 0);
  EXPECT_FALSE(reg.quantile_clamped("absent", 0.99));
}

TEST(MetricsRegistry, WriteJsonCarriesOverflowCount) {
  MetricsRegistry reg;
  reg.histogram("lat", {1.0, 10.0}).observe(1e9);
  std::ostringstream os;
  reg.write_json(os);
  EXPECT_NE(os.str().find("\"overflow_count\":1"), std::string::npos)
      << os.str();
}

TEST(MetricsRegistry, WriteJsonCarriesInterpolatedQuantiles) {
  MetricsRegistry reg;
  for (int i = 0; i < 10; ++i) {
    reg.histogram("lat", {10.0, 20.0}).observe(5.0);
  }
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"p50\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\":9.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

}  // namespace
}  // namespace mron::obs

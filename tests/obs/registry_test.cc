#include "obs/registry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "tests/obs_test_util.h"

namespace lumen::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  LUMEN_REQUIRE_OBS();
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  LUMEN_REQUIRE_OBS();
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds exact zeros; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 1);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 2);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 2);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 3);
  EXPECT_EQ(LatencyHistogram::bucket_of(7), 3);
  EXPECT_EQ(LatencyHistogram::bucket_of(8), 4);
  EXPECT_EQ(LatencyHistogram::bucket_of(~std::uint64_t{0}), 64);

  EXPECT_EQ(LatencyHistogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_upper_bound(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_upper_bound(3), 7u);
  EXPECT_EQ(LatencyHistogram::bucket_upper_bound(64), ~std::uint64_t{0});
}

TEST(HistogramTest, CountSumMinMax) {
  LUMEN_REQUIRE_OBS();
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  h.record(10);
  h.record(100);
  h.record(1);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 111u);
  EXPECT_DOUBLE_EQ(h.mean(), 37.0);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, PercentileOfSingletonIsItsBucketFloor) {
  LUMEN_REQUIRE_OBS();
  LatencyHistogram h;
  h.record(8);  // exactly a bucket lower bound
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 8.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 8.0);
}

TEST(HistogramTest, PercentilesOrderAndBucketError) {
  LUMEN_REQUIRE_OBS();
  // 1000 observations 1..1000: log-bucket percentiles are inexact but
  // must be monotone and within one bucket (2x) of the true value.
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const double p50 = h.percentile(0.50);
  const double p90 = h.percentile(0.90);
  const double p99 = h.percentile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p99, 495.0);
  EXPECT_LE(p99, 1024.0);
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_DOUBLE_EQ(s.p50, p50);
  EXPECT_DOUBLE_EQ(s.p99, p99);
}

TEST(HistogramTest, RecordSecondsUsesNanosecondTicks) {
  LUMEN_REQUIRE_OBS();
  LatencyHistogram h;
  h.record_seconds(1e-6);  // 1000 ns
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 1000u);
  EXPECT_NEAR(h.percentile_seconds(1.0), 1e-6, 1e-6);
  h.record_seconds(-5.0);  // clamped to 0
  EXPECT_EQ(h.min(), 0u);
}

TEST(RegistryTest, SameNameSameInstrument) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  Counter& a = registry.counter("lumen.test.a");
  Counter& b = registry.counter("lumen.test.a");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(registry.counter("lumen.test.a").value(), 7u);
  LatencyHistogram& h = registry.histogram("lumen.test.h");
  EXPECT_EQ(&h, &registry.histogram("lumen.test.h"));
}

TEST(RegistryTest, EntriesAreSortedByName) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  registry.counter("b.counter").add(2);
  registry.counter("a.counter").add(1);
  const auto entries = registry.counter_entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, "a.counter");
  EXPECT_EQ(entries[0].second->value(), 1u);
  EXPECT_EQ(entries[1].first, "b.counter");
}

TEST(RegistryTest, ResetZeroesButKeepsRegistrations) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  registry.counter("x").add(5);
  registry.histogram("y").record(5);
  registry.reset();
  EXPECT_EQ(registry.counter_entries().size(), 1u);
  EXPECT_EQ(registry.counter("x").value(), 0u);
  EXPECT_EQ(registry.histogram("y").count(), 0u);
}

TEST(RegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&Registry::global(), &Registry::global());
}

}  // namespace
}  // namespace lumen::obs

// LabeledFamily semantics: per-TagSet children, the cardinality cap
// collapsing into overflow() with lumen.obs.labels_dropped accounting,
// histogram exemplars, and lossless concurrent labeled increments.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "obs/tagset.h"
#include "tests/obs_test_util.h"

namespace lumen::obs {
namespace {

// Everything here asserts obs-on semantics (real children, cap
// accounting, exemplars), so each test skips in an obs-off build; the
// obs-off surface is covered by disabled_test.cc.

TEST(LabeledFamilyTest, SameTagsSameChildDistinctTagsDistinct) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  auto& family = registry.labeled_counter("lumen.test.admitted");
  EXPECT_EQ(&family, &registry.labeled_counter("lumen.test.admitted"));
  Counter& t3 = family.at(TagSet{}.tenant(3));
  Counter& t4 = family.at(TagSet{}.tenant(4));
  EXPECT_NE(&t3, &t4);
  EXPECT_EQ(&t3, &family.at(TagSet{}.tenant(3)));
  t3.add(7);
  t4.add(1);
  EXPECT_EQ(family.at(TagSet{}.tenant(3)).value(), 7u);
  EXPECT_EQ(family.size(), 2u);
}

TEST(LabeledFamilyTest, EmptyTagSetLandsInOverflow) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  auto& family = registry.labeled_counter("lumen.test.untagged");
  family.at(TagSet{}).add(5);
  EXPECT_EQ(family.overflow().value(), 5u);
  EXPECT_EQ(family.size(), 0u);
}

TEST(LabeledFamilyTest, EntriesAreSortedByCanonicalLabels) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  auto& family = registry.labeled_counter("lumen.test.sorted");
  family.at(TagSet{}.tenant(2)).add(2);
  family.at(TagSet{}.tenant(1)).add(1);
  const auto entries = family.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, "tenant=1");
  EXPECT_EQ(entries[0].second->value(), 1u);
  EXPECT_EQ(entries[1].first, "tenant=2");
}

TEST(LabeledFamilyTest, CardinalityCapCollapsesIntoOverflowAndCounts) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  const std::uint64_t dropped_before =
      Registry::global().counter("lumen.obs.labels_dropped").value();
  LabeledFamily<Counter> family("lumen.test.capped", /*max_children=*/4);
  for (std::uint64_t t = 1; t <= 10; ++t)
    family.at(TagSet{}.tenant(t)).add();
  EXPECT_EQ(family.size(), 4u);
  EXPECT_EQ(family.dropped(), 6u);
  EXPECT_EQ(family.overflow().value(), 6u);
  // Children admitted before the cap keep their own counts.
  EXPECT_EQ(family.at(TagSet{}.tenant(1)).value(), 1u);
  // Post-cap sets keep resolving to overflow (no flapping).
  family.at(TagSet{}.tenant(10)).add();
  EXPECT_EQ(family.overflow().value(), 7u);
  EXPECT_EQ(Registry::global().counter("lumen.obs.labels_dropped").value(),
            dropped_before + 7);
}

TEST(LabeledFamilyTest, ResetZeroesChildrenButKeepsRegistrations) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  auto& family = registry.labeled_counter("lumen.test.reset");
  family.at(TagSet{}.tenant(1)).add(9);
  family.reset();
  EXPECT_EQ(family.size(), 1u);
  EXPECT_EQ(family.at(TagSet{}.tenant(1)).value(), 0u);
  // Registry-wide reset also reaches labeled families.
  family.at(TagSet{}.tenant(1)).add(3);
  registry.reset();
  EXPECT_EQ(family.at(TagSet{}.tenant(1)).value(), 0u);
}

TEST(LabeledFamilyTest, LabeledEntriesListFamiliesByName) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  registry.labeled_counter("b.family").at(TagSet{}.tenant(1)).add();
  registry.labeled_counter("a.family").at(TagSet{}.tenant(1)).add();
  registry.labeled_gauge("g.family").at(TagSet{}.shard(0)).set(0.5);
  registry.labeled_histogram("h.family").at(TagSet{}.tenant(1)).record(8);
  const auto counters = registry.labeled_counter_entries();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "a.family");
  EXPECT_EQ(counters[1].first, "b.family");
  EXPECT_EQ(registry.labeled_gauge_entries().size(), 1u);
  EXPECT_EQ(registry.labeled_histogram_entries().size(), 1u);
}

TEST(LabeledFamilyTest, HistogramExemplarTracksLastTracePerBucket) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  auto& family = registry.labeled_histogram("lumen.test.latency");
  LatencyHistogram& child = family.at(TagSet{}.tenant(3));
  child.record(100, /*trace_id=*/0xAAAA);
  child.record(100, /*trace_id=*/0xBBBB);  // same bucket: last wins
  child.record(100000, /*trace_id=*/0xCCCC);
  EXPECT_EQ(child.exemplar(LatencyHistogram::bucket_of(100)), 0xBBBBu);
  // worst_exemplar is the trace in the highest populated bucket.
  EXPECT_EQ(child.worst_exemplar(), 0xCCCCu);
  // trace_id 0 never overwrites a retained exemplar.
  child.record(100000, /*trace_id=*/0);
  EXPECT_EQ(child.worst_exemplar(), 0xCCCCu);
}

TEST(LabeledFamilyTest, ConcurrentLabeledIncrementsAreLossless) {
  LUMEN_REQUIRE_OBS();
  Registry registry;
  auto& family = registry.labeled_counter("lumen.test.concurrent");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  constexpr std::uint64_t kTenants = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&family, t] {
      for (int i = 0; i < kPerThread; ++i)
        family.at(TagSet{}.tenant((t + i) % kTenants)).add();
    });
  }
  for (auto& t : threads) t.join();
  std::uint64_t total = 0;
  for (const auto& [labels, child] : family.entries()) total += child->value();
  EXPECT_EQ(family.size(), kTenants);
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(family.dropped(), 0u);
}

}  // namespace
}  // namespace lumen::obs

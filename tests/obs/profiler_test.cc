// Sampling-profiler semantics: weighted stack aggregation with
// self/total attribution, ring wraparound drop accounting, the ambient
// span-hook path (1-in-N close sampling), and the passive renderings
// (folded stacks, profile JSONL).
#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "tests/obs_test_util.h"

namespace lumen::obs {
namespace {

/// The per-thread sample countdown is shared by every Profiler instance
/// and survives across tests.  Driving closes on a period-1 profiler
/// until one sample lands leaves the countdown at exactly 1, so the
/// next close on this thread is guaranteed to sample.
void sync_thread_countdown() {
  Profiler drain(/*capacity=*/8, /*sample_period=*/1);
  while (drain.total_samples() == 0) {
    drain.on_span_open("drain");
    drain.on_span_close(1);
  }
}

TEST(ProfilerTest, CapacityRoundsUpToPowerOfTwo) {
  LUMEN_REQUIRE_OBS();
  EXPECT_EQ(Profiler(5, 1).capacity(), 8u);
  EXPECT_EQ(Profiler(8, 1).capacity(), 8u);
  EXPECT_EQ(Profiler(0, 1).capacity(), 2u);
}

TEST(ProfilerTest, SelfTimeSubtractsDirectChildrenOnly) {
  LUMEN_REQUIRE_OBS();
  Profiler profiler(64, 1);
  const std::array<const char*, 3> abc = {"a", "b", "c"};
  profiler.record({abc.data(), 1}, /*duration_ns=*/1000, /*weight=*/1);
  profiler.record({abc.data(), 2}, /*duration_ns=*/300, /*weight=*/1);
  profiler.record({abc.data(), 3}, /*duration_ns=*/100, /*weight=*/1);

  const ProfileSnapshot snap = profiler.snapshot();
  EXPECT_EQ(snap.samples, 3u);
  EXPECT_EQ(snap.dropped, 0u);
  ASSERT_EQ(snap.entries.size(), 3u);
  // Entries are sorted by stack; self = total minus *direct* children
  // ("a" loses b's total, not c's — c is already inside b).
  EXPECT_EQ(snap.entries[0].stack, "a");
  EXPECT_EQ(snap.entries[0].total_ns, 1000u);
  EXPECT_EQ(snap.entries[0].self_ns, 700u);
  EXPECT_EQ(snap.entries[1].stack, "a;b");
  EXPECT_EQ(snap.entries[1].total_ns, 300u);
  EXPECT_EQ(snap.entries[1].self_ns, 200u);
  EXPECT_EQ(snap.entries[2].stack, "a;b;c");
  EXPECT_EQ(snap.entries[2].self_ns, 100u);
}

TEST(ProfilerTest, ChildExceedingParentClampsSelfAtZero) {
  LUMEN_REQUIRE_OBS();
  // Sampling noise can weight a child above its parent; self time must
  // clamp at zero instead of wrapping.
  Profiler profiler(64, 1);
  const std::array<const char*, 2> ab = {"a", "b"};
  profiler.record({ab.data(), 1}, 100, 1);
  profiler.record({ab.data(), 2}, 500, 1);
  const ProfileSnapshot snap = profiler.snapshot();
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.entries[0].self_ns, 0u);
  EXPECT_EQ(snap.entries[0].total_ns, 100u);
}

TEST(ProfilerTest, WeightMultipliesSamplesAndTime) {
  LUMEN_REQUIRE_OBS();
  Profiler profiler(64, 1);
  const std::array<const char*, 1> a = {"a"};
  profiler.record({a.data(), 1}, 250, /*weight=*/8);
  const ProfileSnapshot snap = profiler.snapshot();
  ASSERT_EQ(snap.entries.size(), 1u);
  EXPECT_EQ(snap.entries[0].samples, 8u);
  EXPECT_EQ(snap.entries[0].total_ns, 2000u);
}

TEST(ProfilerTest, RingWrapKeepsNewestAndCountsDrops) {
  LUMEN_REQUIRE_OBS();
  Profiler profiler(/*capacity=*/4, /*sample_period=*/1);
  static const char* const kNames[10] = {"s0", "s1", "s2", "s3", "s4",
                                         "s5", "s6", "s7", "s8", "s9"};
  for (int i = 0; i < 10; ++i)
    profiler.record({&kNames[i], 1}, 100, 1);
  EXPECT_EQ(profiler.total_samples(), 10u);
  EXPECT_EQ(profiler.dropped(), 6u);
  const ProfileSnapshot snap = profiler.snapshot();
  EXPECT_EQ(snap.samples, 4u);
  EXPECT_EQ(snap.dropped, 6u);
  ASSERT_EQ(snap.entries.size(), 4u);
  // Only the newest capacity-many samples survive.
  EXPECT_EQ(snap.entries[0].stack, "s6");
  EXPECT_EQ(snap.entries[3].stack, "s9");
  profiler.clear();
  EXPECT_EQ(profiler.total_samples(), 0u);
  EXPECT_TRUE(profiler.snapshot().entries.empty());
}

TEST(ProfilerTest, DeepStacksFoldIntoEighthAncestor) {
  LUMEN_REQUIRE_OBS();
  Profiler profiler(64, 1);
  static const char* const kDeep[10] = {"f0", "f1", "f2", "f3", "f4",
                                        "f5", "f6", "f7", "f8", "f9"};
  profiler.record({kDeep, 10}, 100, 1);
  const ProfileSnapshot snap = profiler.snapshot();
  ASSERT_EQ(snap.entries.size(), 1u);
  EXPECT_EQ(snap.entries[0].stack, "f0;f1;f2;f3;f4;f5;f6;f7");
}

TEST(ProfilerTest, SpanHooksSampleEveryCloseAtPeriodOne) {
  LUMEN_REQUIRE_OBS();
  sync_thread_countdown();
  Profiler profiler(64, /*sample_period=*/1);
  profiler.on_span_open("outer");
  profiler.on_span_open("inner");
  profiler.on_span_close(50);   // samples "outer;inner"
  profiler.on_span_close(200);  // samples "outer"
  const ProfileSnapshot snap = profiler.snapshot();
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.entries[0].stack, "outer");
  EXPECT_EQ(snap.entries[0].total_ns, 200u);
  EXPECT_EQ(snap.entries[0].self_ns, 150u);
  EXPECT_EQ(snap.entries[1].stack, "outer;inner");
  EXPECT_EQ(snap.entries[1].total_ns, 50u);
}

TEST(ProfilerTest, PeriodNWeighsOneSampleForNCloses) {
  LUMEN_REQUIRE_OBS();
  sync_thread_countdown();
  Profiler profiler(64, /*sample_period=*/4);
  for (int i = 0; i < 8; ++i) {
    profiler.on_span_open("stage");
    profiler.on_span_close(100);
  }
  // Closes 1 and 5 sample (countdown arrived at 1); each carries
  // weight 4, so the weighted sample count equals the close count.
  EXPECT_EQ(profiler.total_samples(), 2u);
  const ProfileSnapshot snap = profiler.snapshot();
  ASSERT_EQ(snap.entries.size(), 1u);
  EXPECT_EQ(snap.entries[0].samples, 8u);
  EXPECT_EQ(snap.entries[0].total_ns, 800u);
  // Normalizing period 0 means "every close".
  profiler.set_sample_period(0);
  EXPECT_EQ(profiler.sample_period(), 1u);
}

TEST(ProfilerTest, UnbalancedCloseIsDroppedSilently) {
  LUMEN_REQUIRE_OBS();
  sync_thread_countdown();
  Profiler profiler(64, 1);
  profiler.on_span_close(100);  // no matching open
  EXPECT_EQ(profiler.total_samples(), 0u);
}

TEST(ProfilerTest, GlobalIsASingleton) {
  EXPECT_EQ(&Profiler::global(), &Profiler::global());
}

TEST(ProfileSnapshotTest, FoldedRendersSelfTimeLines) {
  ProfileSnapshot snap;
  snap.entries = {{"svc.admit", 3, 100, 400},
                  {"svc.admit;svc.route", 3, 300, 300}};
  EXPECT_EQ(snap.folded(), "svc.admit 100\nsvc.admit;svc.route 300\n");
}

TEST(ProfileSnapshotTest, EntryJsonHasEveryField) {
  const ProfileEntry entry{"svc.admit;svc.route", 24, 9000, 12000};
  EXPECT_EQ(profile_entry_to_json(entry),
            "{\"type\":\"profile\",\"stack\":\"svc.admit;svc.route\","
            "\"samples\":24,\"self_ns\":9000,\"total_ns\":12000}");
}

}  // namespace
}  // namespace lumen::obs

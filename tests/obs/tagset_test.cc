// TagSet packing/canonicalisation and the shared labels codec: equal
// label sets must pack to equal u64 keys regardless of build order, the
// canonical text must render in fixed dimension order with escaping,
// and labels_canonical/labels_parse must round-trip arbitrary values.
#include "obs/tagset.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace lumen::obs {
namespace {

TEST(TagSetTest, EmptySetHasZeroKey) {
  const TagSet empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.key(), 0u);
  EXPECT_EQ(empty.canonical(), "");
  EXPECT_TRUE(empty.entries().empty());
}

TEST(TagSetTest, BuildOrderDoesNotChangeKey) {
  const TagSet a = TagSet{}.tenant(3).shard(1);
  const TagSet b = TagSet{}.shard(1).tenant(3);
  EXPECT_EQ(a.key(), b.key());
  EXPECT_EQ(a, b);
  const TagSet c = TagSet{}.tenant(4).shard(1);
  EXPECT_NE(a.key(), c.key());
}

TEST(TagSetTest, ReplacingADimensionKeepsOneSlot) {
  const TagSet a = TagSet{}.tenant(3).tenant(9);
  EXPECT_EQ(a, TagSet{}.tenant(9));
  const auto entries = a.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].first, "tenant");
  EXPECT_EQ(entries[0].second, "9");
}

TEST(TagSetTest, CanonicalRendersInDimensionOrder) {
  // The canonical order is the TagKey enum order (tenant, shard,
  // policy, stage), not build order.
  const TagSet numeric = TagSet{}.shard(1).tenant(3);
  EXPECT_EQ(numeric.canonical(), "tenant=3,shard=1");
  const TagSet tags = TagSet{}.stage("route").shard(1).tenant(3);
  EXPECT_EQ(tags.canonical(), "tenant=3,shard=1,stage=route");
}

TEST(TagSetTest, NumericFastPathMatchesInternedText) {
  // Small ids encode directly; the same value arriving as interned text
  // (policy path is string-typed) must still render identically.
  const TagSet numeric = TagSet{}.tenant(42);
  EXPECT_EQ(numeric.canonical(), "tenant=42");
  // Direct encoding: vid == value for ids below the numeric limit.
  EXPECT_EQ(detail::intern_tag_value("42"), 42);
  // Large ids fall back to the interner but still render exactly.
  const TagSet large = TagSet{}.tenant(123456789);
  EXPECT_EQ(large.canonical(), "tenant=123456789");
}

TEST(TagSetTest, InternedStringsAreStableAcrossLookups) {
  const std::uint16_t first = detail::intern_tag_value("gold-policy");
  const std::uint16_t again = detail::intern_tag_value("gold-policy");
  EXPECT_EQ(first, again);
  EXPECT_GE(first, detail::kNumericVidLimit);
  EXPECT_EQ(detail::tag_value_text(first), "gold-policy");
  const TagSet tags = TagSet{}.policy("gold-policy");
  EXPECT_EQ(tags.canonical(), "policy=gold-policy");
}

TEST(TagSetTest, CanonicalEscapesSeparators) {
  const TagSet tags = TagSet{}.policy("a,b=c\\d");
  EXPECT_EQ(tags.canonical(), "policy=a\\,b\\=c\\\\d");
  // And the shared codec parses it back.
  const auto parsed = labels_parse(tags.canonical());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].first, "policy");
  EXPECT_EQ(parsed[0].second, "a,b=c\\d");
}

TEST(LabelsCodecTest, CanonicalParseRoundTrip) {
  const std::vector<std::pair<std::string, std::string>> labels = {
      {"tenant", "3"},
      {"shard", "1"},
      {"policy", "a,b=c\\d"},
      {"stage", ""},
  };
  const std::string text = labels_canonical(labels);
  EXPECT_EQ(text, "tenant=3,shard=1,policy=a\\,b\\=c\\\\d,stage=");
  EXPECT_EQ(labels_parse(text), labels);
}

TEST(LabelsCodecTest, ParseToleratesMissingEquals) {
  const auto parsed = labels_parse("flag,k=v");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].first, "flag");
  EXPECT_EQ(parsed[0].second, "");
  EXPECT_EQ(parsed[1].first, "k");
  EXPECT_EQ(parsed[1].second, "v");
  EXPECT_TRUE(labels_parse("").empty());
}

TEST(TagSetTest, TagKeyNamesAreStable) {
  EXPECT_STREQ(tag_key_name(TagKey::kTenant), "tenant");
  EXPECT_STREQ(tag_key_name(TagKey::kShard), "shard");
  EXPECT_STREQ(tag_key_name(TagKey::kPolicy), "policy");
  EXPECT_STREQ(tag_key_name(TagKey::kStage), "stage");
}

}  // namespace
}  // namespace lumen::obs

#include "util/parse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace lumen {
namespace {

/// A mutable argv over string literals, as main() receives it.
std::vector<char*> argv_of(std::vector<const char*> args) {
  std::vector<char*> out;
  for (const char* arg : args) out.push_back(const_cast<char*>(arg));
  return out;
}

TEST(ParseTest, UnsignedTakesOnlyWholeTokens) {
  EXPECT_EQ(parse_unsigned<std::uint32_t>("42"), 42u);
  EXPECT_FALSE(parse_unsigned<std::uint32_t>("abc").has_value());
  EXPECT_FALSE(parse_unsigned<std::uint32_t>("1x").has_value());
  EXPECT_FALSE(parse_unsigned<std::uint32_t>("-1").has_value());
  EXPECT_FALSE(parse_unsigned<std::uint32_t>("").has_value());
  EXPECT_FALSE(parse_unsigned<std::uint16_t>("65536").has_value());
}

TEST(ParseTest, PositionalKeepsDefaultsAndRefusesBadOrExtraTokens) {
  std::uint32_t count = 60;
  std::uint64_t seed = 5;
  std::vector<char*> none = argv_of({"prog"});
  EXPECT_TRUE(parse_positional(1, none.data(), count, seed));
  EXPECT_EQ(count, 60u);
  EXPECT_EQ(seed, 5u);

  std::vector<char*> one = argv_of({"prog", "7"});
  EXPECT_TRUE(parse_positional(2, one.data(), count, seed));
  EXPECT_EQ(count, 7u);
  EXPECT_EQ(seed, 5u);

  std::vector<char*> both = argv_of({"prog", "8", "9000000000"});
  EXPECT_TRUE(parse_positional(3, both.data(), count, seed));
  EXPECT_EQ(count, 8u);
  EXPECT_EQ(seed, 9000000000u);

  std::vector<char*> bad = argv_of({"prog", "abc"});
  EXPECT_FALSE(parse_positional(2, bad.data(), count, seed));
  std::vector<char*> bad_second = argv_of({"prog", "1", "2x"});
  EXPECT_FALSE(parse_positional(3, bad_second.data(), count, seed));
  std::vector<char*> extra = argv_of({"prog", "1", "2", "3"});
  EXPECT_FALSE(parse_positional(4, extra.data(), count, seed));
}

}  // namespace
}  // namespace lumen

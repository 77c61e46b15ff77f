// Mutation fuzz sweep for the text network reader: seeded single
// mutations of genuine `write_network` output.  Every mutant either is
// rejected with a lumen::Error naming the offending line, or parses to a
// network whose written text re-reads to the same text.  Anything else
// (another exception, a crash, a sanitizer report under the asan
// preset) is a bug in the reader.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tests/test_util.h"
#include "util/error.h"
#include "util/rng.h"
#include "wdm/io.h"

namespace lumen {
namespace {

/// Bytes a mutation writes: digits, signs, number syntax, separators,
/// comment and line breaks, and a few letters.
constexpr char kAlphabet[] = "0123456789-+.e \t#\nxz";

char random_byte(Rng& rng) {
  return kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)];
}

/// Byte offsets at which lines start.
std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i + 1 < text.size(); ++i)
    if (text[i] == '\n') starts.push_back(i + 1);
  return starts;
}

/// Byte offsets at which a number starts (a digit after a blank).
std::vector<std::size_t> number_starts(const std::string& text) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 1; i < text.size(); ++i)
    if (std::isdigit(static_cast<unsigned char>(text[i])) != 0 &&
        (text[i - 1] == ' ' || text[i - 1] == '\t'))
      starts.push_back(i);
  return starts;
}

/// One mutation of `text`: a byte replaced, inserted or deleted, a
/// number negated, a line duplicated or deleted, or a truncation.  One
/// mutation grows a declared size by at most one digit, so no mutant
/// asks for a huge network.
std::string mutate(const std::string& text, Rng& rng) {
  std::string out = text;
  const std::size_t pos = rng.next_below(out.size());
  switch (rng.next_below(7)) {
    case 0:
      out[pos] = random_byte(rng);
      break;
    case 1:
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos),
                 random_byte(rng));
      break;
    case 2:
      out.erase(pos, 1);
      break;
    case 3:
    case 4: {
      const auto starts = line_starts(out);
      const std::size_t line = rng.next_below(starts.size());
      const std::size_t begin = starts[line];
      const std::size_t end =
          line + 1 < starts.size() ? starts[line + 1] : out.size();
      const std::string copy = out.substr(begin, end - begin);
      if (rng.next_below(2) == 0)
        out.insert(begin, copy);
      else
        out.erase(begin, end - begin);
      break;
    }
    case 5: {
      const auto starts = number_starts(out);
      out.insert(starts[rng.next_below(starts.size())], 1, '-');
      break;
    }
    default:
      out.resize(pos);
      break;
  }
  return out;
}

/// True when `message` names a line: "line " followed by a digit.
bool names_a_line(const std::string& message) {
  const std::size_t at = message.find("line ");
  return at != std::string::npos && at + 5 < message.size() &&
         std::isdigit(static_cast<unsigned char>(message[at + 5])) != 0;
}

TEST(IoFuzzTest, MutantsRejectWithALineOrRoundTrip) {
  std::uint32_t parsed = 0;
  std::uint32_t rejected = 0;
  Rng rng(0x5EEDF00DULL);
  for (int round = 0; round < 60; ++round) {
    const std::string text = network_to_string(testing::fuzz_network(rng));
    ASSERT_EQ(network_to_string(network_from_string(text)), text);
    for (int m = 0; m < 40; ++m) {
      const std::string mutant = mutate(text, rng);
      std::string written;
      try {
        written = network_to_string(network_from_string(mutant));
      } catch (const Error& e) {
        ++rejected;
        EXPECT_TRUE(names_a_line(e.what())) << e.what() << "\n" << mutant;
        continue;
      }
      ++parsed;
      EXPECT_EQ(network_to_string(network_from_string(written)), written)
          << mutant;
    }
  }
  // Both outcomes must be common, or the sweep is not exercising them.
  EXPECT_GE(parsed, 200u);
  EXPECT_GE(rejected, 200u);
}

}  // namespace
}  // namespace lumen

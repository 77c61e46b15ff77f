#include "obs/tagset.h"

#include <mutex>

namespace lumen::obs {

const char* tag_key_name(TagKey key) noexcept {
  switch (key) {
    case TagKey::kTenant:
      return "tenant";
    case TagKey::kShard:
      return "shard";
    case TagKey::kPolicy:
      return "policy";
    case TagKey::kStage:
      return "stage";
    case TagKey::kNone:
      break;
  }
  return "?";
}

std::string labels_canonical(
    const std::vector<std::pair<std::string, std::string>>& labels) {
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) out.push_back(',');
    out += key;
    out.push_back('=');
    for (const char c : value) {
      if (c == '\\' || c == ',' || c == '=') out.push_back('\\');
      out.push_back(c);
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> labels_parse(
    std::string_view canonical) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t i = 0;
  while (i < canonical.size()) {
    std::pair<std::string, std::string> label;
    std::string* part = &label.first;
    for (; i < canonical.size(); ++i) {
      const char c = canonical[i];
      if (c == '\\' && i + 1 < canonical.size()) {
        part->push_back(canonical[++i]);
      } else if (c == '=' && part == &label.first) {
        part = &label.second;
      } else if (c == ',') {
        ++i;
        break;
      } else {
        part->push_back(c);
      }
    }
    if (!label.first.empty() || !label.second.empty())
      out.push_back(std::move(label));
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> TagSet::entries() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (int i = 0; i < 4; ++i) {
    const auto slot = static_cast<std::uint16_t>(bits_ >> (16 * i));
    if (slot == 0) continue;
    const auto key = static_cast<TagKey>(slot >> 12);
    const auto vid = static_cast<std::uint16_t>(slot & 0x0FFF);
    out.emplace_back(tag_key_name(key), detail::tag_value_text(vid));
  }
  return out;
}

std::string TagSet::canonical() const { return labels_canonical(entries()); }

namespace detail {
namespace {

/// Process-wide value interner.  Insertion takes a mutex; ids are dense
/// so renderers index a stable deque-like store without locking --
/// entries are never removed, and the slot vector only grows under the
/// same mutex that assigns ids.
struct TagInterner {
  std::mutex mutex;
  std::vector<std::string> values;  // id = kNumericVidLimit + index

  static TagInterner& instance() {
    static TagInterner interner;
    return interner;
  }
};

}  // namespace

std::uint16_t intern_tag_value(std::string_view value) {
  // Numeric fast path: small decimal values reuse the numeric id space
  // so TagSet{}.policy("7") == TagSet built from the number 7.
  if (!value.empty() && value.size() <= 4 && value[0] != '0') {
    std::uint32_t n = 0;
    bool numeric = true;
    for (const char c : value) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      n = n * 10 + static_cast<std::uint32_t>(c - '0');
    }
    if (numeric && n < kNumericVidLimit) return static_cast<std::uint16_t>(n);
  } else if (value == "0") {
    return 0;
  }

  auto& interner = TagInterner::instance();
  const std::scoped_lock lock(interner.mutex);
  for (std::size_t i = 0; i < interner.values.size(); ++i) {
    if (interner.values[i] == value)
      return static_cast<std::uint16_t>(kNumericVidLimit + i);
  }
  const std::size_t next = interner.values.size();
  if (kNumericVidLimit + next >= kOverflowVid) return kOverflowVid;
  interner.values.emplace_back(value);
  return static_cast<std::uint16_t>(kNumericVidLimit + next);
}

std::string tag_value_text(std::uint16_t vid) {
  if (vid < kNumericVidLimit) return std::to_string(vid);
  if (vid == kOverflowVid) return "!overflow";
  auto& interner = TagInterner::instance();
  const std::scoped_lock lock(interner.mutex);
  const std::size_t index = static_cast<std::size_t>(vid) - kNumericVidLimit;
  if (index >= interner.values.size()) return "?";
  return interner.values[index];
}

}  // namespace detail
}  // namespace lumen::obs

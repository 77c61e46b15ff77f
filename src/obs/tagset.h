// Dimensional labels for telemetry instruments.
//
// A TagSet is a tiny interned label vector — at most one value for each
// of the four dimensions this system attributes load to: `tenant`,
// `shard`, `policy`, `stage`.  The whole set packs into one u64 (four
// 16-bit slots, each 4-bit key | 12-bit value id), so a labeled child
// lookup hashes one integer instead of a string, and the hot path
//
//   static auto& fam = obs::Registry::global().labeled_counter("x");
//   fam.at(obs::TagSet{}.tenant(t)).add();
//
// stays lock-free end to end.  Small numeric values (0..2047) encode
// directly in the value id; everything else goes through a process-wide
// string interner (mutex on first sight of a value, lock-free after).
// The interner works the same with LUMEN_OBS_DISABLED; the labeled
// instruments it feeds are the ones that compile to nothing.
//
// The canonical text rendering ("shard=1,tenant=3", keys in fixed
// dimension order, values backslash-escaped) is the labels format used
// by the pump snapshot JSON, the wire protocol (templates 262/263), and
// the collectors; labels_canonical/labels_parse below are the shared,
// mode-independent codec for it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace lumen::obs {

/// Label dimensions.  Order defines the canonical rendering order.
enum class TagKey : std::uint8_t {
  kNone = 0,
  kTenant = 1,
  kShard = 2,
  kPolicy = 3,
  kStage = 4,
};

/// "tenant", "shard", "policy", "stage" ("?" for kNone).
[[nodiscard]] const char* tag_key_name(TagKey key) noexcept;

namespace detail {

/// Value ids 0..2047 are the number itself; 2048..4094 are interned
/// strings; 4095 marks interner overflow (rendered as "!overflow").
inline constexpr std::uint16_t kNumericVidLimit = 2048;
inline constexpr std::uint16_t kOverflowVid = 4095;

/// Interns `value`, returning its id (kOverflowVid once the 2047-entry
/// string table is full).  Numeric strings below the limit come back as
/// their numeric id.
[[nodiscard]] std::uint16_t intern_tag_value(std::string_view value);

/// Renders a value id back to text.
[[nodiscard]] std::string tag_value_text(std::uint16_t vid);

}  // namespace detail

/// Immutable value-type label set; builder calls return updated copies.
class TagSet {
 public:
  constexpr TagSet() = default;

  [[nodiscard]] TagSet tenant(std::uint64_t id) const {
    return with_numeric(TagKey::kTenant, id);
  }
  [[nodiscard]] TagSet shard(std::uint64_t id) const {
    return with_numeric(TagKey::kShard, id);
  }
  [[nodiscard]] TagSet policy(std::string_view value) const {
    return with(TagKey::kPolicy, detail::intern_tag_value(value));
  }
  [[nodiscard]] TagSet stage(std::string_view value) const {
    return with(TagKey::kStage, detail::intern_tag_value(value));
  }

  /// The packed representation (0 for an empty set); the registry's
  /// labeled-child hash key.
  [[nodiscard]] constexpr std::uint64_t key() const noexcept { return bits_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return bits_ == 0; }

  /// (key, value) pairs in canonical dimension order.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> entries()
      const;
  /// "tenant=3,shard=1" (see labels_canonical for the escaping rules).
  [[nodiscard]] std::string canonical() const;

  friend constexpr bool operator==(TagSet, TagSet) noexcept = default;

 private:
  [[nodiscard]] TagSet with(TagKey key, std::uint16_t vid) const noexcept {
    // Unpack the (at most four) slots, replace or insert this key, and
    // repack sorted by key so equal sets always pack identically.
    std::uint16_t slots[4] = {};
    int n = 0;
    for (int i = 0; i < 4; ++i) {
      const auto slot = static_cast<std::uint16_t>(bits_ >> (16 * i));
      if (slot != 0 && static_cast<TagKey>(slot >> 12) != key)
        slots[n++] = slot;
    }
    slots[n++] = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(key) << 12) | (vid & 0x0FFF));
    for (int i = 1; i < n; ++i)  // insertion sort, n <= 4
      for (int j = i; j > 0 && slots[j - 1] > slots[j]; --j)
        std::swap(slots[j - 1], slots[j]);
    TagSet out;
    for (int i = 0; i < n; ++i)
      out.bits_ |= static_cast<std::uint64_t>(slots[i]) << (16 * i);
    return out;
  }

  [[nodiscard]] TagSet with_numeric(TagKey key, std::uint64_t id) const {
    if (id < detail::kNumericVidLimit)
      return with(key, static_cast<std::uint16_t>(id));
    return with(key, detail::intern_tag_value(std::to_string(id)));
  }

  std::uint64_t bits_ = 0;
};

/// Renders label pairs as "k=v,k=v", escaping `\`, `,` and `=` in values
/// with a backslash.  The inverse of labels_parse; compiled in both
/// build modes (collectors parse labels without an obs runtime).
[[nodiscard]] std::string labels_canonical(
    const std::vector<std::pair<std::string, std::string>>& labels);

/// Parses the canonical rendering back to pairs.  Unescapes backslash
/// sequences; tolerates a missing '=' (value becomes "").
[[nodiscard]] std::vector<std::pair<std::string, std::string>> labels_parse(
    std::string_view canonical);

}  // namespace lumen::obs

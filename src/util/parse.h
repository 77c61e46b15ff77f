// Whole-token number parsing for command-line flags.
//
// std::atoi and friends read a prefix and report nothing: "abc" becomes
// 0, "-5" wraps when stored unsigned, "1x" becomes 1.  These parsers
// accept a token only when std::from_chars consumes all of it, so a
// malformed flag is a usage error instead of a guessed value.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>

namespace lumen {

/// A whole unsigned decimal token that fits T: no sign, no whitespace,
/// nothing after the digits.
template <class T>
[[nodiscard]] std::optional<T> parse_unsigned(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

/// A whole decimal token naming a finite, positive number of seconds.
[[nodiscard]] inline std::optional<double> parse_seconds(
    std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || !std::isfinite(value) ||
      value <= 0.0)
    return std::nullopt;
  return value;
}

}  // namespace lumen

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
#include <type_traits>

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

/// Parses argv[1], argv[2], ... in order into `out...` with
/// parse_unsigned; an absent argument keeps its default.  False on a
/// malformed token or an argument past the last output.
template <class... T>
[[nodiscard]] bool parse_positional(int argc, char** argv, T&... out) {
  int next = 1;
  bool ok = true;
  const auto take = [&](auto& value) {
    if (!ok || next >= argc) return;
    const auto parsed =
        parse_unsigned<std::remove_reference_t<decltype(value)>>(argv[next++]);
    if (parsed) {
      value = *parsed;
    } else {
      ok = false;
    }
  };
  (take(out), ...);
  return ok && next >= argc;
}

}  // namespace lumen

// Contract checking and error reporting for the lumen library.
//
// All precondition violations throw lumen::Error so that misuse is caught
// early (Core Guidelines P.7) and is testable.  Internal invariants use
// LUMEN_ASSERT, which also throws (never aborts) so that property tests can
// exercise failure paths.
#pragma once

#include <stdexcept>
#include <string>

namespace lumen {

/// Exception thrown on precondition violations and unrecoverable errors
/// detected by the library.  The message always includes the failing
/// expression and its source location.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] inline void fail(const char* kind, const char* expr,
                              const char* file, int line,
                              const std::string& msg) {
  std::string full(kind);
  full += " failed: ";
  full += expr;
  full += " at ";
  full += file;
  full += ":";
  full += std::to_string(line);
  if (!msg.empty()) {
    full += " — ";
    full += msg;
  }
  throw Error(full);
}
}  // namespace detail

/// Precondition check: use at public API boundaries.
#define LUMEN_REQUIRE(expr)                                               \
  do {                                                                    \
    if (!(expr))                                                          \
      ::lumen::detail::fail("precondition", #expr, __FILE__, __LINE__,   \
                            std::string{});                               \
  } while (0)

/// Precondition check with an explanatory message.
#define LUMEN_REQUIRE_MSG(expr, msg)                                      \
  do {                                                                    \
    if (!(expr))                                                          \
      ::lumen::detail::fail("precondition", #expr, __FILE__, __LINE__,   \
                            (msg));                                       \
  } while (0)

/// Internal invariant check: use inside implementations.
#define LUMEN_ASSERT(expr)                                                \
  do {                                                                    \
    if (!(expr))                                                          \
      ::lumen::detail::fail("invariant", #expr, __FILE__, __LINE__,      \
                            std::string{});                               \
  } while (0)

/// Marks a point control never reaches (e.g. after a switch that returns
/// on every enumerator).  A direct [[noreturn]] call, so the compiler
/// sees the path end even without optimization.
#define LUMEN_UNREACHABLE()                                               \
  ::lumen::detail::fail("invariant", "unreachable", __FILE__, __LINE__,  \
                        std::string{})

}  // namespace lumen

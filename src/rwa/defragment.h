// Wavelength defragmentation: re-optimize active sessions in place.
//
// As sessions come and go, survivors sit on routes that were optimal when
// provisioned but no longer are, and the availability pattern fragments.
// A defragmentation pass re-routes each active session against the
// current residual state (its own resources released first, so it can
// never be lost: the old route is always re-acquirable).  Sessions are
// processed most-expensive-first — the ones most likely to have a better
// route now.
#pragma once

#include <cstdint>

#include "rwa/session_manager.h"

namespace lumen {

/// Outcome of one defragmentation pass.
struct DefragReport {
  std::uint32_t considered = 0;  ///< active sessions examined
  std::uint32_t improved = 0;    ///< moved to a strictly cheaper route
  /// Σ (old cost - new cost) over improved sessions (>= 0).
  double cost_saved = 0.0;
};

/// How a defragmentation pass orders the active sessions.
enum class DefragOrder : std::uint8_t {
  /// Most-expensive-first (the default): the sessions with the most to
  /// gain move first, freeing contiguous resources for the rest.
  kCostliestFirst,
  /// Estimated-gain-first: one goal-directed engine point query per
  /// session over the *current* residual state prices its best route if
  /// re-provisioned as-is; sessions sort by (current cost - priced cost),
  /// largest estimated saving first.  The estimate ignores the resources
  /// the session itself would release, so it is conservative — but it
  /// puts provably-improvable sessions ahead of merely expensive ones.
  /// Sessions priced at +inf sort last.
  kMatrixGain,
};

/// One pass over all active sessions of `manager`.  Guarantees no session
/// is dropped and no session's cost increases.
[[nodiscard]] DefragReport defragment(
    SessionManager& manager, DefragOrder order = DefragOrder::kCostliestFirst);

}  // namespace lumen

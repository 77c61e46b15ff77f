// Batch (static) provisioning: route a whole demand set through a
// SessionManager, with the classic ordering heuristics.
//
// When a demand set is known up front, the order in which demands grab
// resources changes how many fit: serving long-haul demands first tends
// to reduce blocking (short demands are easier to squeeze in afterwards).
// provision_batch runs one ordering; to compare orderings, run each on an
// identical fresh manager.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rwa/session_manager.h"
#include "util/rng.h"

namespace lumen {

/// Order in which the batch's demands are offered.
enum class DemandOrder {
  kGiven,           ///< as provided
  kShortestFirst,   ///< ascending hop distance (BFS on the base topology)
  kLongestFirst,    ///< descending hop distance
  kRandom,          ///< uniformly shuffled (requires an Rng)
  kCheapestFirst,   ///< ascending optimal semilightpath cost (route engine)
  kCostliestFirst,  ///< descending optimal semilightpath cost
};

/// Outcome of one batch run.
struct BatchResult {
  std::uint32_t carried = 0;
  std::uint32_t blocked = 0;
  double total_cost = 0.0;  ///< Σ cost of carried sessions
  /// Session ids of the carried demands, in offer order.
  std::vector<SessionId> sessions;
};

/// Offers every demand to `manager` in the given order.  `rng` is used
/// only for kRandom (must be non-null then).  Every demand is checked
/// first (both endpoints in the network, s != t): a bad one throws
/// lumen::Error before any session opens, so the manager is untouched.
///
/// The cost-based orderings rank demands by their optimal semilightpath
/// cost on the manager's pre-batch residual state — the manager's
/// RouteEngine pre-costs them one goal-directed point query at a time.
/// Demands with no route at all sort last under both.
[[nodiscard]] BatchResult provision_batch(
    SessionManager& manager,
    std::span<const std::pair<NodeId, NodeId>> demands, DemandOrder order,
    Rng* rng = nullptr);

}  // namespace lumen

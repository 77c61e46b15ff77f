// ALT landmarks (A*, Landmarks, Triangle inequality — Goldberg &
// Harrelson) over a weighted digraph.
//
// A landmark ℓ with precomputed forward distances d(ℓ,·) and reverse
// distances d(·,ℓ) yields, for any query target t, the lower bound
//
//   π_t(v) = max_ℓ max( d(ℓ,t) − d(ℓ,v),  d(v,ℓ) − d(t,ℓ) )  ≥ 0,
//
// valid by the triangle inequality; it is a *consistent* A* potential,
// so goal-directed searches keyed by f = g + π_t settle every node at
// its true distance and never re-expand.  Directed infinities carry real
// information: d(ℓ,t) = ∞ with d(ℓ,v) < ∞ proves v cannot reach t (if it
// could, ℓ could too), so π_t(v) = ∞ and the node is pruned outright —
// the same holds for d(v,ℓ) = ∞ with d(t,ℓ) < ∞.
//
// Selection is deterministic farthest-point: starting from a seed-chosen
// node, repeatedly add the node maximizing its round-trip distance to
// the closest already-chosen landmark (ties to the smallest id), which
// spreads landmarks toward the graph periphery where their bounds are
// tightest.  Distances are computed once per landmark (one forward + one
// reverse Dijkstra) and stored as flat per-landmark rows.
//
// The tables snapshot the weights they were built with.  Used on graphs
// whose weights only ever *rise* above that snapshot (the RouteEngine's
// residual-patch invariant), the bounds remain admissible and consistent
// with zero invalidation.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "graph/digraph.h"

namespace lumen {

/// Flat per-landmark distance tables plus the π_t evaluation.
struct LandmarkTables {
  std::uint32_t num_nodes = 0;
  std::uint32_t num_landmarks = 0;
  std::vector<NodeId> landmarks;
  /// from_landmark[ℓ·n + v] = d(landmarks[ℓ] → v).
  std::vector<double> from_landmark;
  /// to_landmark[ℓ·n + v] = d(v → landmarks[ℓ]).
  std::vector<double> to_landmark;

  [[nodiscard]] bool empty() const noexcept { return num_landmarks == 0; }

  /// π_t(v): the max-over-landmarks lower bound on d(v, t); ∞ when some
  /// landmark proves t unreachable from v.  O(num_landmarks).
  [[nodiscard]] double potential(std::uint32_t v, std::uint32_t t) const {
    double best = 0.0;
    for (std::uint32_t l = 0; l < num_landmarks; ++l) {
      const double* fwd = from_landmark.data() +
                          static_cast<std::size_t>(l) * num_nodes;
      const double* rev = to_landmark.data() +
                          static_cast<std::size_t>(l) * num_nodes;
      const double lt = fwd[t];  // d(ℓ, t)
      const double lv = fwd[v];  // d(ℓ, v)
      if (lt == kInfiniteCost) {
        if (lv < kInfiniteCost) return kInfiniteCost;
      } else if (lv < kInfiniteCost && lt - lv > best) {
        best = lt - lv;
      }
      const double vl = rev[v];  // d(v, ℓ)
      const double tl = rev[t];  // d(t, ℓ)
      if (vl == kInfiniteCost) {
        if (tl < kInfiniteCost) return kInfiniteCost;
      } else if (tl < kInfiniteCost && vl - tl > best) {
        best = vl - tl;
      }
    }
    return best;
  }
};

/// Builds `count` landmarks on g (clamped to num_nodes) by deterministic
/// farthest-point selection seeded from node (seed mod n).  2·count full
/// Dijkstras; O(count · n) storage.  count = 0 or an empty graph yields
/// empty tables (LandmarkTables::empty()).
[[nodiscard]] LandmarkTables select_landmarks(const Digraph& g,
                                              std::uint32_t count,
                                              std::uint64_t seed);

}  // namespace lumen

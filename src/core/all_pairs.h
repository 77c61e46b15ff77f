// All-pairs optimal semilightpaths (Corollary 1).
//
// Builds the auxiliary graph G_all once — G' plus per-node terminals v'
// (zero-weight fan-out to Y_v) and v'' (zero-weight fan-in from X_v) — and
// answers every (s, t) query from the shortest-path tree rooted at s'.
// Trees are computed lazily and cached, so q queries from q' distinct
// sources cost one construction plus q' Dijkstra runs:
// O(k²n + km + q'·(k²n + km + kn·log(kn))) total, matching the corollary
// when q' = n.
#pragma once

#include <optional>
#include <vector>

#include "core/aux_graph.h"
#include "core/route_types.h"
#include "graph/dijkstra.h"
#include "wdm/network.h"

namespace lumen {

/// Answers repeated optimal-semilightpath queries over one network.
/// The network must outlive the router and must not be mutated meanwhile.
class AllPairsRouter {
 public:
  explicit AllPairsRouter(const WdmNetwork& net);

  /// Cost of the optimal semilightpath s -> t (kInfiniteCost when none,
  /// 0 when s == t).
  [[nodiscard]] double cost(NodeId s, NodeId t);

  /// Full routing result (path + switch settings) for s -> t.
  [[nodiscard]] RouteResult route(NodeId s, NodeId t);

  /// The n×n matrix of optimal costs (row = source); forces all n trees.
  [[nodiscard]] std::vector<std::vector<double>> cost_matrix();

  /// Structural stats of G_all (Corollary 1 size checks).
  [[nodiscard]] const AuxGraphStats& aux_stats() const noexcept {
    return aux_.stats();
  }

  /// Number of shortest-path trees computed so far.
  [[nodiscard]] std::uint32_t trees_computed() const noexcept {
    return trees_computed_;
  }

 private:
  const ShortestPathTree& tree_for(NodeId s);

  const WdmNetwork* net_;
  AuxiliaryGraph aux_;
  std::vector<std::optional<ShortestPathTree>> trees_;  // per source node
  std::uint32_t trees_computed_ = 0;
};

}  // namespace lumen

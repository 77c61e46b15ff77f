#include "rwa/batch.h"

#include <algorithm>

#include "core/route_engine.h"
#include "graph/traversal.h"
#include "util/error.h"

namespace lumen {

BatchResult provision_batch(
    SessionManager& manager,
    std::span<const std::pair<NodeId, NodeId>> demands, DemandOrder order,
    Rng* rng) {
  const std::uint32_t n = manager.residual().num_nodes();
  for (const auto& [s, t] : demands) {
    LUMEN_REQUIRE_MSG(s.value() < n && t.value() < n,
                      "batch demand endpoint outside the network");
    LUMEN_REQUIRE_MSG(s != t, "a batch demand needs distinct endpoints");
  }
  std::vector<std::pair<NodeId, NodeId>> ordered(demands.begin(),
                                                 demands.end());
  switch (order) {
    case DemandOrder::kGiven:
      break;
    case DemandOrder::kShortestFirst:
    case DemandOrder::kLongestFirst: {
      // Hop distance on the base topology (availability-agnostic: the
      // heuristic ranks demand "size", not current feasibility).
      const Digraph& topo = manager.residual().topology();
      std::vector<int> hops(ordered.size());
      for (std::size_t i = 0; i < ordered.size(); ++i)
        hops[i] = bfs_hops(topo, ordered[i].first, ordered[i].second);
      std::vector<std::size_t> index(ordered.size());
      for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
      std::stable_sort(index.begin(), index.end(),
                       [&](std::size_t a, std::size_t b) {
                         return order == DemandOrder::kShortestFirst
                                    ? hops[a] < hops[b]
                                    : hops[a] > hops[b];
                       });
      std::vector<std::pair<NodeId, NodeId>> sorted;
      sorted.reserve(ordered.size());
      for (const std::size_t i : index) sorted.push_back(ordered[i]);
      ordered = std::move(sorted);
      break;
    }
    case DemandOrder::kRandom:
      LUMEN_REQUIRE_MSG(rng != nullptr, "kRandom needs an Rng");
      rng->shuffle(ordered);
      break;
    case DemandOrder::kCheapestFirst:
    case DemandOrder::kCostliestFirst: {
      // Rank by optimal semilightpath cost on the pre-batch residual
      // state: the manager's engine, kept weight-synchronized with it,
      // pre-costs every demand with its goal-directed point query
      // (per-target potential), which returns the exact optimum — +inf
      // when unroutable (every demand has s != t, checked above).
      // Unroutable demands sort last either way, so feasible work is
      // never starved by hopeless demands.
      SearchScratch scratch;
      std::vector<double> cost(ordered.size());
      for (std::size_t i = 0; i < cost.size(); ++i)
        cost[i] = manager.engine()
                      .route_semilightpath(ordered[i].first, ordered[i].second,
                                           scratch, {.goal_directed = true})
                      .cost;
      std::vector<std::size_t> index(ordered.size());
      for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
      std::stable_sort(index.begin(), index.end(),
                       [&](std::size_t a, std::size_t b) {
                         if (order == DemandOrder::kCheapestFirst)
                           return cost[a] < cost[b];
                         // Costliest first, but +inf (unroutable) still last.
                         if ((cost[a] == kInfiniteCost) !=
                             (cost[b] == kInfiniteCost))
                           return cost[a] != kInfiniteCost;
                         return cost[a] > cost[b];
                       });
      std::vector<std::pair<NodeId, NodeId>> sorted;
      sorted.reserve(ordered.size());
      for (const std::size_t i : index) sorted.push_back(ordered[i]);
      ordered = std::move(sorted);
      break;
    }
  }

  BatchResult result;
  for (const auto& [s, t] : ordered) {
    const auto id = manager.open(s, t);
    if (id.has_value()) {
      ++result.carried;
      result.total_cost += manager.find(*id)->cost;
      result.sessions.push_back(*id);
    } else {
      ++result.blocked;
    }
  }
  return result;
}

}  // namespace lumen

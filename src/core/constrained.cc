#include "core/constrained.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/layout.h"
#include "graph/dijkstra.h"
#include "util/stopwatch.h"

namespace lumen {

namespace {

/// Dijkstra over the product of G_{s,t} with the conversion budget: state
/// node·layers + used, where `used` counts real conversions so far.  It
/// first runs the unconstrained search of the same graph.  An optimum with
/// c* conversions bounds every budget that matters: a budget C >= c* gets
/// that optimum itself, and with c* + 1 layers the product already holds
/// it, so budgets beyond c* are clamped away.  An unreachable t'' needs no
/// product search at all.
struct BudgetSearch {
  Stopwatch clock;  // started before the layout below is built
  PairGraph graph;
  double build_seconds = 0.0;
  ShortestPathTree unbounded;  // route_semilightpath's search
  Semilightpath optimum;       // its route, when t'' is reachable
  // min(max_conversions, c*) + 1 once search_layers() ran, else 0.
  std::uint32_t layers = 0;
  ShortestPathTree tree;  // the product search

  BudgetSearch(const WdmNetwork& net, NodeId s, NodeId t) : graph(net, s, t) {
    build_seconds = clock.seconds();
    unbounded = graph.search<FibHeap>();
    if (reached()) optimum = graph.path(unbounded, graph.sink());
  }

  [[nodiscard]] bool reached() const {
    return unbounded.reached(graph.sink());
  }

  /// Runs the product search over min(max_conversions, c*) + 1 layers;
  /// t'' must be reachable.
  void search_layers(std::uint32_t max_conversions) {
    LUMEN_ASSERT(reached());
    layers = std::min(max_conversions, optimum.num_conversions()) + 1;
    const std::uint64_t states =
        static_cast<std::uint64_t>(graph.num_nodes()) * layers;
    LUMEN_REQUIRE_MSG(states <= std::numeric_limits<std::uint32_t>::max(),
                      "too many (node, conversions) states for the budget");
    tree = dijkstra_search<FibHeap>(
        static_cast<std::uint32_t>(states), state(graph.source(), 0),
        std::nullopt, [&](NodeId cur, auto&& relax) {
          const NodeId node{cur.value() / layers};
          const std::uint32_t used = cur.value() % layers;
          graph.relax_out(node, [&](NodeId head, double weight, LinkId link,
                                    bool converts) {
            const std::uint32_t next_used = used + (converts ? 1 : 0);
            if (next_used == layers) return;  // budget exhausted
            relax(state(head, next_used), weight,
                  link.valid() ? link : LinkId{cur.value()});
          });
        });
  }

  [[nodiscard]] NodeId state(NodeId node, std::uint32_t used) const {
    return NodeId{node.value() * layers + used};
  }

  /// Cheapest sink state with used <= budget; invalid when infeasible.
  [[nodiscard]] NodeId best_sink_state(std::uint32_t budget) const {
    NodeId best = NodeId::invalid();
    for (std::uint32_t used = 0; used <= budget && used < layers; ++used) {
      const NodeId s = state(graph.sink(), used);
      if (!tree.reached(s)) continue;
      if (!best.valid() || tree.dist[s.value()] < tree.dist[best.value()])
        best = s;
    }
    return best;
  }
};

}  // namespace

RouteResult route_semilightpath_bounded(const WdmNetwork& net, NodeId s,
                                        NodeId t,
                                        std::uint32_t max_conversions) {
  LUMEN_REQUIRE(s.value() < net.num_nodes());
  LUMEN_REQUIRE(t.value() < net.num_nodes());
  RouteResult result;
  if (s == t) {
    result.found = true;
    result.cost = 0.0;
    return result;
  }

  BudgetSearch search(net, s, t);
  // The unconstrained optimum is the answer whenever it fits the budget;
  // only a budget below c* needs the product search.
  const bool within_budget =
      search.reached() && search.optimum.num_conversions() <= max_conversions;
  if (search.reached() && !within_budget) search.search_layers(max_conversions);
  result.stats.build_seconds = search.build_seconds;
  result.stats.search_seconds = search.clock.seconds() - search.build_seconds;
  result.stats.aux_nodes =
      std::uint64_t{search.graph.num_nodes()} * std::max(search.layers, 1u);
  result.stats.aux_links = search.graph.links_searched();
  result.stats.search_pops = search.unbounded.pops + search.tree.pops;
  result.stats.search_relaxations =
      search.unbounded.relaxations + search.tree.relaxations;

  if (within_budget) {
    result.found = true;
    result.cost = search.unbounded.dist[search.graph.sink().value()];
    result.path = std::move(search.optimum);
  } else {
    const NodeId best = search.best_sink_state(max_conversions);
    if (!best.valid()) {
      result.found = false;
      result.cost = kInfiniteCost;
      return result;
    }
    result.found = true;
    result.cost = search.tree.dist[best.value()];
    result.path = search.graph.path(search.tree, best, search.layers);
  }
  result.switches = result.path.switch_settings(net);
  LUMEN_ASSERT(result.path.num_conversions() <= max_conversions);
  return result;
}

std::vector<double> conversion_cost_profile(const WdmNetwork& net, NodeId s,
                                            NodeId t,
                                            std::uint32_t max_conversions) {
  LUMEN_REQUIRE(s.value() < net.num_nodes());
  LUMEN_REQUIRE(t.value() < net.num_nodes());
  LUMEN_REQUIRE_MSG(max_conversions < std::numeric_limits<std::uint32_t>::max(),
                    "the profile holds max_conversions + 1 entries");
  std::vector<double> profile(max_conversions + 1, kInfiniteCost);
  if (s == t) {
    std::fill(profile.begin(), profile.end(), 0.0);
    return profile;
  }
  BudgetSearch search(net, s, t);
  if (search.reached()) search.search_layers(max_conversions);
  // Budgets past the clamped layer count repeat its value.
  for (std::uint32_t c = 0; c <= max_conversions; ++c) {
    const NodeId best = search.best_sink_state(c);
    if (best.valid()) profile[c] = search.tree.dist[best.value()];
  }
  return profile;
}

}  // namespace lumen

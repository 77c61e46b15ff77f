#include "core/constrained.h"

#include <algorithm>
#include <limits>

#include "core/aux_graph.h"
#include "graph/dijkstra.h"
#include "util/stopwatch.h"

namespace lumen {

namespace {

bool is_real_conversion(const AuxLinkInfo& info) {
  return info.kind == AuxLinkKind::kConversion && info.from != info.to;
}

/// Dijkstra over the product of G_{s,t} with the conversion budget: state
/// aux_node·layers + used, where `used` counts real conversions so far.  A
/// shortest G_{s,t} path is simple and leaves each X-node at most once, so
/// it makes at most Σ_v |X_v| conversions; budgets beyond that add layers
/// that change no result, and are clamped away.
struct BudgetSearch {
  const AuxiliaryGraph& aux;
  std::uint32_t layers;  // min(max_conversions, Σ_v |X_v|) + 1
  ShortestPathTree tree;

  BudgetSearch(const WdmNetwork& net, const AuxiliaryGraph& aux_graph,
               std::uint32_t max_conversions)
      : aux(aux_graph) {
    std::uint64_t x_nodes = 0;
    for (std::uint32_t v = 0; v < net.num_nodes(); ++v)
      x_nodes += aux.x_size(NodeId{v});
    layers = static_cast<std::uint32_t>(
                 std::min<std::uint64_t>(max_conversions, x_nodes)) +
             1;
    const Digraph& g = aux.graph();
    const std::uint64_t states =
        static_cast<std::uint64_t>(g.num_nodes()) * layers;
    LUMEN_REQUIRE_MSG(states <= std::numeric_limits<std::uint32_t>::max(),
                      "too many (node, conversions) states for the budget");
    tree = dijkstra_search<FibHeap>(
        static_cast<std::uint32_t>(states), state(aux.source_terminal(), 0),
        std::nullopt, [&](NodeId cur, auto&& relax) {
          const NodeId aux_node{cur.value() / layers};
          const std::uint32_t used = cur.value() % layers;
          for (const LinkId e : g.out_links(aux_node)) {
            const std::uint32_t next_used =
                used + (is_real_conversion(aux.link_info(e)) ? 1 : 0);
            if (next_used == layers) continue;  // budget exhausted
            relax(state(g.head(e), next_used), g.weight(e), e);
          }
        });
  }

  [[nodiscard]] NodeId state(NodeId aux_node, std::uint32_t used) const {
    return NodeId{aux_node.value() * layers + used};
  }

  /// Cheapest sink state with used <= budget; invalid when infeasible.
  [[nodiscard]] NodeId best_sink_state(std::uint32_t budget) const {
    NodeId best = NodeId::invalid();
    for (std::uint32_t used = 0; used <= budget && used < layers; ++used) {
      const NodeId s = state(aux.sink_terminal(), used);
      if (!tree.reached(s)) continue;
      if (!best.valid() || tree.dist[s.value()] < tree.dist[best.value()])
        best = s;
    }
    return best;
  }

  /// The aux-link path into state `cur`: each link's predecessor state is its
  /// tail, one layer down when the link is a real conversion.
  [[nodiscard]] std::vector<LinkId> aux_path(NodeId cur) const {
    std::vector<LinkId> path;
    for (LinkId e = tree.parent_link[cur.value()]; e.valid();
         e = tree.parent_link[cur.value()]) {
      path.push_back(e);
      const std::uint32_t used = cur.value() % layers -
                                 (is_real_conversion(aux.link_info(e)) ? 1 : 0);
      cur = state(aux.graph().tail(e), used);
    }
    std::reverse(path.begin(), path.end());
    return path;
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

  Stopwatch build_clock;
  const AuxiliaryGraph aux = AuxiliaryGraph::build_single_pair(net, s, t);
  result.stats.build_seconds = build_clock.seconds();
  result.stats.aux_links = aux.stats().total_links();

  Stopwatch search_clock;
  const BudgetSearch search(net, aux, max_conversions);
  result.stats.search_seconds = search_clock.seconds();
  result.stats.aux_nodes = aux.stats().total_nodes() * search.layers;
  result.stats.search_pops = search.tree.pops;
  result.stats.search_relaxations = search.tree.relaxations;

  const NodeId best = search.best_sink_state(max_conversions);
  if (!best.valid()) {
    result.found = false;
    result.cost = kInfiniteCost;
    return result;
  }
  result.found = true;
  result.cost = search.tree.dist[best.value()];
  result.path = aux.to_semilightpath(search.aux_path(best));
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
  const AuxiliaryGraph aux = AuxiliaryGraph::build_single_pair(net, s, t);
  const BudgetSearch search(net, aux, max_conversions);
  // Budgets past the clamped layer count repeat its value.
  for (std::uint32_t c = 0; c <= max_conversions; ++c) {
    const NodeId best = search.best_sink_state(c);
    if (best.valid()) profile[c] = search.tree.dist[best.value()];
  }
  return profile;
}

}  // namespace lumen

#include "core/all_pairs.h"

namespace lumen {

AllPairsRouter::AllPairsRouter(const WdmNetwork& net)
    : net_(&net),
      aux_(AuxiliaryGraph::build_all_pairs(net)),
      trees_(net.num_nodes()) {}

const ShortestPathTree& AllPairsRouter::tree_for(NodeId s) {
  LUMEN_REQUIRE(s.value() < net_->num_nodes());
  auto& slot = trees_[s.value()];
  if (!slot.has_value()) {
    slot = dijkstra(aux_.graph(), aux_.source_terminal(s));
    ++trees_computed_;
  }
  return *slot;
}

double AllPairsRouter::cost(NodeId s, NodeId t) {
  LUMEN_REQUIRE(t.value() < net_->num_nodes());
  if (s == t) return 0.0;
  const ShortestPathTree& tree = tree_for(s);
  return tree.dist[aux_.sink_terminal(t).value()];
}

RouteResult AllPairsRouter::route(NodeId s, NodeId t) {
  RouteResult result;
  result.stats.aux_nodes = aux_.stats().total_nodes();
  result.stats.aux_links = aux_.stats().total_links();
  result.stats.build_seconds = aux_.stats().build_seconds;
  if (s == t) {
    LUMEN_REQUIRE(s.value() < net_->num_nodes());
    result.found = true;
    result.cost = 0.0;
    return result;
  }
  const ShortestPathTree& tree = tree_for(s);
  const NodeId sink = aux_.sink_terminal(t);
  result.stats.search_pops = tree.pops;
  result.stats.search_relaxations = tree.relaxations;
  if (!tree.reached(sink)) {
    result.found = false;
    result.cost = kInfiniteCost;
    return result;
  }
  result.found = true;
  result.cost = tree.dist[sink.value()];
  const auto aux_path = extract_path(aux_.graph(), tree, sink);
  LUMEN_ASSERT(aux_path.has_value());
  result.path = aux_.to_semilightpath(*aux_path);
  result.switches = result.path.switch_settings(*net_);
  return result;
}

std::vector<std::vector<double>> AllPairsRouter::cost_matrix() {
  const std::uint32_t n = net_->num_nodes();
  std::vector<std::vector<double>> matrix(n, std::vector<double>(n, 0.0));
  for (std::uint32_t s = 0; s < n; ++s)
    for (std::uint32_t t = 0; t < n; ++t)
      matrix[s][t] = cost(NodeId{s}, NodeId{t});
  return matrix;
}

}  // namespace lumen

#include "core/layout.h"

#include <algorithm>

namespace lumen {

void CoreLayout::add_layer(AuxNodeKind kind, NodeId v,
                           std::vector<Wavelength>& lambdas) {
  std::sort(lambdas.begin(), lambdas.end());
  for (std::size_t i = 0; i < lambdas.size();) {
    std::size_t j = i + 1;
    while (j < lambdas.size() && lambdas[j] == lambdas[i]) ++j;
    node_.push_back({kind, v, lambdas[i]});
    const auto row =
        static_cast<std::uint32_t>(kind == AuxNodeKind::kOut ? j - i : 0);
    row_begin_.push_back(row_begin_.back() + row);
    i = j;
  }
  layer_begin_.push_back(static_cast<std::uint32_t>(node_.size()));
}

CoreLayout::CoreLayout(const WdmNetwork& net) {
  // |E_M| bounds Σ_v |X_v| and Σ_v |Y_v|: every λ of X_v arrives on a link.
  std::size_t multigraph_links = 0;
  for (std::uint32_t ei = 0; ei < net.num_links(); ++ei)
    multigraph_links += net.available(LinkId{ei}).size();
  node_.reserve(2 * multigraph_links);
  row_begin_.reserve(2 * multigraph_links + 1);
  layer_begin_.reserve(2 * std::size_t{net.num_nodes()} + 1);
  row_begin_.push_back(0);
  layer_begin_.push_back(0);

  // Wavelengths come from the incident links only, never from the universe
  // Λ, so the build is independent of k (Section IV).
  std::vector<Wavelength> lambdas;
  for (std::uint32_t vi = 0; vi < net.num_nodes(); ++vi) {
    const NodeId v{vi};
    lambdas.clear();
    for (const LinkId e : net.in_links(v))
      for (const auto& lw : net.available(e)) lambdas.push_back(lw.lambda);
    add_layer(AuxNodeKind::kIn, v, lambdas);
    lambdas.clear();
    for (const LinkId e : net.out_links(v))
      for (const auto& lw : net.available(e)) lambdas.push_back(lw.lambda);
    add_layer(AuxNodeKind::kOut, v, lambdas);
  }

  // E_org in link-id order: Λ(e), Y_u and X_v are sorted by λ and
  // Λ(e) ⊆ Y_u, X_v, so one forward walk over each finds every end.
  arcs_.resize(multigraph_links);
  std::vector<std::uint32_t> fill(row_begin_.begin(), row_begin_.end() - 1);
  for (std::uint32_t ei = 0; ei < net.num_links(); ++ei) {
    const LinkId e{ei};
    std::uint32_t y = *y_ids(net.tail(e)).begin();
    std::uint32_t x = *x_ids(net.head(e)).begin();
    for (const auto& lw : net.available(e)) {
      while (node_[y].lambda < lw.lambda) ++y;
      while (node_[x].lambda < lw.lambda) ++x;
      arcs_[fill[y]++] = {NodeId{x}, e, lw.cost};
    }
  }
}

Semilightpath PairGraph::path(const ShortestPathTree& tree, NodeId sink_state,
                              std::uint32_t layers) const {
  std::vector<Hop> hops;
  std::uint32_t x = tree.parent_link[sink_state.value()].value();
  for (;;) {
    const LinkId e = tree.parent_link[x];
    const Wavelength lambda = layout_.node(NodeId{x / layers}).lambda;
    hops.push_back({e, lambda});
    // The link left y_u(λ) in the same layer: E_org makes no conversion.
    std::uint32_t y = *layout_.y_ids(net_.tail(e)).begin();
    while (layout_.node(NodeId{y}).lambda != lambda) ++y;
    const std::uint32_t from =
        tree.parent_link[y * layers + x % layers].value();
    if (from / layers == source().value()) break;
    x = from;
  }
  std::reverse(hops.begin(), hops.end());
  return Semilightpath(std::move(hops));
}

}  // namespace lumen

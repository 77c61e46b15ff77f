// The layout of G' (Section III): the one place that numbers its nodes.
//
// G' is every node's wavelength gadget plus E_org, without terminals.  Node
// ids run X_v then Y_v, node by node, each sorted by λ.  The λs come from
// the incident links only, never from the universe Λ.  A layout is built
// as a CSR is: E_M's (e, λ) entries are numbered in link-id order, radix
// sorted by λ with a digit of at most min(|E_M|, max λ + 1) values, then
// counting sorted by head and by tail, and one walk over the nodes numbers
// them.  That is O(|E_M| + n) per pass, one λ pass while max λ < |E_M|,
// and no array sized by k (Theorem 4).  Only E_org is stored; gadget links are generated
// from c_v.
// AuxiliaryGraph materialises the same numbering and rows independently,
// as the reference.  RouteEngine flattens G' into its CSR core once;
// PairGraph is the G_{s,t} of one request, whose searches generate only
// the gadget links of the X-nodes they expand.
#pragma once

#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

#include "graph/dijkstra.h"
#include "wdm/network.h"
#include "wdm/semilightpath.h"

namespace lumen {

/// Role of an auxiliary-graph node.
enum class AuxNodeKind : std::uint8_t {
  kIn,              ///< x ∈ X_v: "at v having arrived on λ"
  kOut,             ///< y ∈ Y_v: "at v about to leave on λ"
  kSourceTerminal,  ///< s' (single-pair) or v' (all-pairs)
  kSinkTerminal,    ///< t'' (single-pair) or v'' (all-pairs)
};

/// What an auxiliary node stands for in the physical network.
struct AuxNodeInfo {
  AuxNodeKind kind;
  NodeId node;        ///< the physical node v
  Wavelength lambda;  ///< invalid for terminals
};

/// The nodes and E_org of G'.
class CoreLayout {
 public:
  /// An E_org link y_u(λ) -> x_v(λ) of physical link `link`.
  struct Arc {
    NodeId head;
    LinkId link;
    double weight;
  };
  using Ids = std::ranges::iota_view<std::uint32_t, std::uint32_t>;

  explicit CoreLayout(const WdmNetwork& net);

  [[nodiscard]] std::uint32_t num_nodes() const noexcept {
    return static_cast<std::uint32_t>(node_.size());
  }
  /// |E_org| = |E_M|.
  [[nodiscard]] std::uint64_t num_transmissions() const noexcept {
    return arcs_.size();
  }
  /// (kind, v, λ) of a node.
  [[nodiscard]] const AuxNodeInfo& node(NodeId id) const {
    return node_[id.value()];
  }
  /// The ids of X_v / Y_v, ascending by λ.
  [[nodiscard]] Ids x_ids(NodeId v) const {
    return {layer_begin_[2 * v.value()], layer_begin_[2 * v.value() + 1]};
  }
  [[nodiscard]] Ids y_ids(NodeId v) const {
    return {layer_begin_[2 * v.value() + 1], layer_begin_[2 * v.value() + 2]};
  }
  /// The E_org links out of a node, in link-id order (none for X-nodes).
  [[nodiscard]] std::span<const Arc> transmissions(NodeId id) const {
    return std::span(arcs_).subspan(
        row_begin_[id.value()],
        row_begin_[id.value() + 1] - row_begin_[id.value()]);
  }

  /// Calls relax(head, weight, link, converts) for each link of G' out of
  /// u, in the materialised row order: a Y-node's E_org links (`link` is
  /// the physical link), or for x_v(λ), c_v(λ, λ') to each y_v(λ') in Y_v
  /// order, skipping +∞ (`link` is invalid; `converts` holds when λ != λ').
  template <class Relax>
  void relax_out(NodeId u, const ConversionModel& conv, Relax&& relax) const {
    const auto [kind, v, lambda] = node(u);
    if (kind == AuxNodeKind::kOut) {
      for (const Arc& arc : transmissions(u))
        relax(arc.head, arc.weight, arc.link, false);
      return;
    }
    for (const std::uint32_t y : y_ids(v)) {
      const Wavelength to = node_[y].lambda;
      const double c = conv.cost(v, lambda, to);
      if (c != kInfiniteCost)
        relax(NodeId{y}, c, LinkId::invalid(), to != lambda);
    }
  }

 private:
  std::vector<AuxNodeInfo> node_;
  /// X_v is [layer_begin_[2v], layer_begin_[2v + 1]), Y_v the next range.
  std::vector<std::uint32_t> layer_begin_;
  /// Node a's E_org links are arcs_[row_begin_[a], row_begin_[a + 1]).
  std::vector<std::uint32_t> row_begin_;
  std::vector<Arc> arcs_;
};

/// G_{s,t} of one request for a search alone: G' plus s' and t''
/// (numbered after G'), with the gadget and tie links never stored.
///
/// A search tree's parent_link holds, for an X-node, the physical link it
/// was reached on, and for a Y-node or t'', the id of the node it was
/// reached from: gadget and tie links have no ids of their own.
class PairGraph {
 public:
  /// Lays out G' of `net`, which must outlive the graph.
  PairGraph(const WdmNetwork& net, NodeId s, NodeId t)
      : net_(net), layout_(net), s_(s), t_(t) {}

  [[nodiscard]] NodeId source() const { return NodeId{layout_.num_nodes()}; }
  [[nodiscard]] NodeId sink() const { return NodeId{source().value() + 1}; }
  [[nodiscard]] std::uint32_t num_nodes() const { return sink().value() + 1; }

  /// CoreLayout::relax_out, plus the terminal ties: s' -> Y_s, and
  /// x_t(λ) -> t'' after x_t(λ)'s gadget links, all of weight 0.
  template <class Relax>
  void relax_out(NodeId u, Relax&& relax) {
    if (u == source()) {
      for (const std::uint32_t y : layout_.y_ids(s_))
        relax(NodeId{y}, 0.0, LinkId::invalid(), false);
      return;
    }
    if (u == sink()) return;  // the target: a search ends when it settles
    layout_.relax_out(u, net_.conversion(),
                      [&](NodeId head, double w, LinkId link, bool converts) {
                        if (!link.valid()) ++gadget_links_;
                        relax(head, w, link, converts);
                      });
    const AuxNodeInfo& info = layout_.node(u);
    if (info.kind == AuxNodeKind::kIn && info.node == t_)
      relax(sink(), 0.0, LinkId::invalid(), false);
  }

  /// Dijkstra from s' to t'' (Theorem 1).
  template <class Heap>
  [[nodiscard]] ShortestPathTree search() {
    gadget_links_ = 0;
    return dijkstra_search<Heap>(
        num_nodes(), source(), sink(), [&](NodeId u, auto&& relax) {
          relax_out(u, [&](NodeId head, double weight, LinkId link, bool) {
            relax(head, weight, link.valid() ? link : LinkId{u.value()});
          });
        });
  }

  /// The semilightpath of a tree that reached `sink_state`.  A search over
  /// (node, used) product states numbers them node·layers + used and keeps
  /// the parent convention above with states for nodes; a search() tree
  /// has layers = 1.
  [[nodiscard]] Semilightpath path(const ShortestPathTree& tree,
                                   NodeId sink_state,
                                   std::uint32_t layers = 1) const;

  /// The links relaxed since the last search() began: E_org, the terminal
  /// ties and the gadget links generated, not every X_v × Y_v pair (that
  /// count alone would put the k²n term back into every route).
  [[nodiscard]] std::uint64_t links_searched() const noexcept {
    return layout_.num_transmissions() + layout_.y_ids(s_).size() +
           layout_.x_ids(t_).size() + gadget_links_;
  }

 private:
  const WdmNetwork& net_;
  CoreLayout layout_;
  NodeId s_, t_;
  std::uint64_t gadget_links_ = 0;
};

}  // namespace lumen

// The layered auxiliary graph of Liang & Shen (Section III).
//
// Construction chain:
//   G_M : multigraph with one parallel link per (e, λ ∈ Λ(e)), weight w(e,λ).
//   G_v : per-node weighted bipartite gadget (X_v from Λ_in(G_M,v), Y_v from
//         Λ_out(G_M,v)); link x_λ -> y_λ' of weight c_v(λ,λ') whenever the
//         conversion is allowed (weight 0 when λ = λ').
//   G'  : all gadgets plus E_org — each G_M link (u,v) on λ becomes
//         y-node(u,λ) -> x-node(v,λ) with weight w(e,λ).
//   G_{s,t} : G' plus terminals s' -> Y_s and X_t -> t'' (weight 0), or
//   G_all   : G' plus per-node terminals v' -> Y_v and X_v -> v''
//             (Corollary 1, for all-pairs queries).
//
// A shortest s'→t'' path in the auxiliary graph maps 1:1 to an optimal
// semilightpath of G, including the wavelength of every link and the switch
// settings at conversion nodes.
//
// This is the materialised construction, with every gadget link stored and
// numbered.  It serves the paper's own experiments (E1/E3, route_on_aux),
// Yen's search (k_shortest) and G_all (all_pairs, multicast), and it is the
// reference for the lazy layout in layout.h: route_semilightpath, the
// conversion-bounded router and RouteEngine build from that layout, which
// numbers G' the same way, and are tested against this graph.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/layout.h"
#include "core/route_types.h"
#include "graph/digraph.h"
#include "wdm/network.h"
#include "wdm/semilightpath.h"

namespace lumen {

/// Role of an auxiliary-graph link.
enum class AuxLinkKind : std::uint8_t {
  kConversion,    ///< gadget link x_v(λ) -> y_v(λ'), weight c_v(λ,λ')
  kTransmission,  ///< E_org link y_u(λ) -> x_v(λ), weight w(e,λ)
  kSourceTie,     ///< s'/v' -> Y, weight 0
  kSinkTie,       ///< X -> t''/v'', weight 0
};

/// What an auxiliary link stands for.
struct AuxLinkInfo {
  AuxLinkKind kind;
  LinkId physical_link;  ///< valid for kTransmission
  NodeId node;           ///< valid for kConversion (where the switch sits)
  Wavelength from;       ///< conversion source / transmission wavelength
  Wavelength to;         ///< conversion target / transmission wavelength
};

/// Size accounting matching the paper's Observations 1–5.
struct AuxGraphStats {
  std::uint64_t multigraph_links = 0;    ///< |E_M| = Σ_e |Λ(e)|
  std::uint64_t gadget_nodes = 0;        ///< Σ_v (|X_v| + |Y_v|)
  std::uint64_t gadget_links = 0;        ///< Σ_v |E_v|
  std::uint64_t transmission_links = 0;  ///< |E_org|
  std::uint64_t terminal_nodes = 0;
  std::uint64_t terminal_links = 0;
  double build_seconds = 0.0;

  [[nodiscard]] std::uint64_t total_nodes() const noexcept {
    return gadget_nodes + terminal_nodes;
  }
  [[nodiscard]] std::uint64_t total_links() const noexcept {
    return gadget_links + transmission_links + terminal_links;
  }
};

/// The materialized auxiliary graph with its metadata maps.
class AuxiliaryGraph {
 public:
  /// Builds G_{s,t} for a single-pair query.  Requires s != t.
  [[nodiscard]] static AuxiliaryGraph build_single_pair(const WdmNetwork& net,
                                                        NodeId s, NodeId t);

  /// Builds G_all with per-node terminals (Corollary 1).
  [[nodiscard]] static AuxiliaryGraph build_all_pairs(const WdmNetwork& net);

  /// The underlying weighted digraph to run shortest paths on.
  [[nodiscard]] const Digraph& graph() const noexcept { return graph_; }

  /// s' / t'' of a single-pair graph.  Requires single-pair mode.
  [[nodiscard]] NodeId source_terminal() const;
  [[nodiscard]] NodeId sink_terminal() const;

  /// v' / v'' of an all-pairs graph.  Requires all-pairs mode.
  [[nodiscard]] NodeId source_terminal(NodeId v) const;
  [[nodiscard]] NodeId sink_terminal(NodeId v) const;

  [[nodiscard]] bool is_all_pairs() const noexcept { return all_pairs_; }

  /// Metadata of an auxiliary node / link.
  [[nodiscard]] const AuxNodeInfo& node_info(NodeId aux) const;
  [[nodiscard]] const AuxLinkInfo& link_info(LinkId aux) const;

  /// The x-node (v, λ) ∈ X_v, or an invalid id when λ ∉ Λ_in(G_M, v).
  [[nodiscard]] NodeId x_node(NodeId v, Wavelength lambda) const;
  /// The y-node (v, λ) ∈ Y_v, or an invalid id when λ ∉ Λ_out(G_M, v).
  [[nodiscard]] NodeId y_node(NodeId v, Wavelength lambda) const;

  /// |X_v| and |Y_v| (for Observation checks).
  [[nodiscard]] std::uint32_t x_size(NodeId v) const;
  [[nodiscard]] std::uint32_t y_size(NodeId v) const;

  [[nodiscard]] const AuxGraphStats& stats() const noexcept { return stats_; }

  /// Translates an auxiliary-graph link path (e.g. from extract_path on a
  /// Dijkstra tree over graph()) into the corresponding semilightpath.
  /// Conversion/tie links contribute no hops; transmission links become
  /// hops carrying their wavelength.
  [[nodiscard]] Semilightpath to_semilightpath(
      std::span<const LinkId> aux_path) const;

 private:
  AuxiliaryGraph() = default;

  /// The one construction routine behind the two public builders: G'
  /// plus s' and t'', or with s and t invalid, v' and v'' for every node.
  /// It counts every node, link and adjacency row first, then fills
  /// storage sized exactly once, so the hot loops never reallocate.
  static AuxiliaryGraph build(const WdmNetwork& net, NodeId s, NodeId t);

  NodeId add_aux_node(AuxNodeInfo info, std::uint32_t out_capacity,
                      std::uint32_t in_capacity);
  LinkId add_aux_link(NodeId from, NodeId to, double weight, AuxLinkInfo info);

  /// Sorted (λ, aux-node) pairs; lookup by binary search so that build cost
  /// never depends on the universe size k (essential for Theorem 4's
  /// independence-of-k claim).
  using LambdaEntry = std::pair<Wavelength, NodeId>;
  [[nodiscard]] static NodeId lookup(std::span<const LambdaEntry> index,
                                     Wavelength lambda);
  /// X_v / Y_v as slices of the flattened per-node indexes.
  [[nodiscard]] std::span<const LambdaEntry> x_row(std::uint32_t v) const {
    LUMEN_REQUIRE(v + 1 < x_begin_.size());
    return std::span(x_entries_).subspan(x_begin_[v],
                                         x_begin_[v + 1] - x_begin_[v]);
  }
  [[nodiscard]] std::span<const LambdaEntry> y_row(std::uint32_t v) const {
    LUMEN_REQUIRE(v + 1 < y_begin_.size());
    return std::span(y_entries_).subspan(y_begin_[v],
                                         y_begin_[v + 1] - y_begin_[v]);
  }

  Digraph graph_;
  std::vector<AuxNodeInfo> node_info_;
  std::vector<AuxLinkInfo> link_info_;
  std::vector<LambdaEntry> x_entries_;  ///< every X_v, grouped by v
  std::vector<LambdaEntry> y_entries_;  ///< every Y_v, grouped by v
  /// X_v = x_entries_[x_begin_[v], x_begin_[v + 1]); likewise Y_v.
  std::vector<std::uint32_t> x_begin_{0};
  std::vector<std::uint32_t> y_begin_{0};
  bool all_pairs_ = false;
  NodeId single_source_terminal_;
  NodeId single_sink_terminal_;
  std::vector<NodeId> source_terminals_;  ///< all-pairs v'
  std::vector<NodeId> sink_terminals_;    ///< all-pairs v''
  AuxGraphStats stats_;
};

}  // namespace lumen

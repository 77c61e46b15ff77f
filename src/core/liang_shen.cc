#include "core/liang_shen.h"

#include <algorithm>
#include <ranges>
#include <type_traits>

#include "graph/binary_heap.h"
#include "graph/dijkstra.h"
#include "graph/pairing_heap.h"
#include "obs/registry.h"
#include "obs/trace_context.h"
#include "util/stopwatch.h"

namespace lumen {

namespace {

/// Ambient routing telemetry (no-ops under LUMEN_OBS_DISABLED).
struct RouteInstruments {
  obs::Counter& requests =
      obs::Registry::global().counter("lumen.route.requests");
  obs::Counter& found = obs::Registry::global().counter("lumen.route.found");
  obs::Counter& not_found =
      obs::Registry::global().counter("lumen.route.not_found");
  obs::LatencyHistogram& latency =
      obs::Registry::global().histogram("lumen.route.latency_ns");

  static RouteInstruments& get() {
    static RouteInstruments instruments;
    return instruments;
  }
};

/// Calls `search(std::type_identity<Heap>{})` with the heap `kind` names.
template <class Search>
ShortestPathTree with_heap(HeapKind kind, Search&& search) {
  switch (kind) {
    case HeapKind::kFibonacci:
      return search(std::type_identity<FibHeap>{});
    case HeapKind::kBinary:
      return search(std::type_identity<BinaryHeap>{});
    case HeapKind::kQuaternary:
      return search(std::type_identity<QuaternaryHeap>{});
    case HeapKind::kPairing:
      return search(std::type_identity<PairingHeap>{});
  }
  LUMEN_UNREACHABLE();
}

RouteResult trivial_self_route() {
  RouteResult result;
  result.found = true;
  result.cost = 0.0;
  return result;
}

/// Completes `result` from a search that ran towards `sink`: the cost, the
/// semilightpath `to_path()` reads off the tree, its switch settings, and
/// the route's outcome instruments.
template <class ToPath>
RouteResult finish_route(const WdmNetwork& net, const ShortestPathTree& tree,
                         NodeId sink, RouteResult result, ToPath&& to_path) {
  RouteInstruments& instruments = RouteInstruments::get();
  result.stats.search_pops = tree.pops;
  result.stats.search_relaxations = tree.relaxations;
  if (!tree.reached(sink)) {
    result.found = false;
    result.cost = kInfiniteCost;
    instruments.not_found.add();
    instruments.latency.record_seconds(result.stats.total_seconds());
    return result;
  }
  result.found = true;
  result.cost = tree.dist[sink.value()];
  obs::CausalSpan extract_span("route.path_extract");
  result.path = to_path();
  result.switches = result.path.switch_settings(net);
  extract_span.close();
  instruments.found.add();
  instruments.latency.record_seconds(result.stats.total_seconds());
  return result;
}

/// G_{s,t} of one request, laid out for the search alone: the gadget links
/// x_v(λ) -> y_v(λ') are never stored.
///
/// Node ids are AuxiliaryGraph::build_single_pair's: X_v then Y_v, node by
/// node, each sorted by λ, then s' and t''.  Only E_org is stored, one row
/// per Y-node of interleaved (head, link, weight) in link-id order.  When
/// the search settles x_v(λ) it relaxes c_v(λ, λ') to each y_v(λ') in Y_v
/// order, skipping +∞, then the tie to t'' when v = t; s' relaxes Y_s at 0.
/// That is the materialised graph's row order, so the heap sees the same
/// operations and the optimum, the pops and the hops are route_on_aux's.
/// A build costs O(km + Σ_v |X_v| + |Y_v|) plus sorting each node's
/// incident λs; the k² gadget term is paid only for the X-nodes settled.
///
/// A search tree's parent_link holds, for an X-node, the physical link it
/// was reached on, and for a Y-node or t'', the id of the node it was
/// reached from: gadget and tie links exist only while they are relaxed,
/// so they have no ids of their own.
class LayeredGraph {
 public:
  LayeredGraph(const WdmNetwork& net, NodeId s, NodeId t);

  /// Dijkstra from s' to t'' (Theorem 1), generating gadget links from
  /// `conv` as X-nodes settle.
  template <class Heap>
  ShortestPathTree search(const ConversionModel& conv);

  /// The semilightpath of a tree that reached t''.
  [[nodiscard]] Semilightpath path(const WdmNetwork& net,
                                   const ShortestPathTree& tree) const;

  [[nodiscard]] NodeId sink() const noexcept { return sink_; }
  /// |V'| = Σ_v (|X_v| + |Y_v|) + 2.
  [[nodiscard]] std::uint64_t num_nodes() const noexcept {
    return node_.size();
  }
  /// The links the last search saw: E_org, the terminal ties and the
  /// gadget links of the X-nodes it settled.
  [[nodiscard]] std::uint64_t links_searched() const noexcept {
    return arcs_.size() + ys(s_).size() + xs(t_).size() + gadget_links_;
  }

 private:
  /// An E_org link y_u(λ) -> x_v(λ).
  struct Arc {
    NodeId head;
    LinkId link;
    double weight;
  };
  using Ids = std::ranges::iota_view<std::uint32_t, std::uint32_t>;

  /// Sorts `lambdas` and adds one `kind` node of v per distinct λ; a
  /// Y-node's E_org row is sized by its λ's multiplicity.
  void add_layer(AuxNodeKind kind, NodeId v, std::vector<Wavelength>& lambdas);

  /// The ids of X_v / Y_v.
  [[nodiscard]] Ids xs(NodeId v) const {
    return {layer_begin_[2 * v.value()], layer_begin_[2 * v.value() + 1]};
  }
  [[nodiscard]] Ids ys(NodeId v) const {
    return {layer_begin_[2 * v.value() + 1], layer_begin_[2 * v.value() + 2]};
  }

  NodeId s_, t_, source_, sink_;
  std::vector<AuxNodeInfo> node_;  ///< (kind, v, λ) by node id
  /// X_v's ids are [layer_begin_[2v], layer_begin_[2v + 1]), Y_v's
  /// [layer_begin_[2v + 1], layer_begin_[2v + 2]).
  std::vector<std::uint32_t> layer_begin_;
  /// y's E_org links are arcs_[row_begin_[y], row_begin_[y + 1]); X-node
  /// rows are empty, and the terminals have none.
  std::vector<std::uint32_t> row_begin_;
  std::vector<Arc> arcs_;
  std::uint64_t gadget_links_ = 0;  ///< generated by the last search
};

void LayeredGraph::add_layer(AuxNodeKind kind, NodeId v,
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

LayeredGraph::LayeredGraph(const WdmNetwork& net, NodeId s, NodeId t)
    : s_(s), t_(t) {
  // |E_M| bounds Σ_v |X_v| and Σ_v |Y_v|: every λ of X_v arrives on a link.
  std::size_t multigraph_links = 0;
  for (std::uint32_t ei = 0; ei < net.num_links(); ++ei)
    multigraph_links += net.available(LinkId{ei}).size();
  node_.reserve(2 * multigraph_links + 2);
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
  source_ = NodeId{static_cast<std::uint32_t>(node_.size())};
  node_.push_back({AuxNodeKind::kSourceTerminal, s, Wavelength::invalid()});
  sink_ = NodeId{static_cast<std::uint32_t>(node_.size())};
  node_.push_back({AuxNodeKind::kSinkTerminal, t, Wavelength::invalid()});

  // E_org in link-id order: Λ(e), Y_u and X_v are sorted by λ and
  // Λ(e) ⊆ Y_u, X_v, so one forward walk over each finds every end.
  arcs_.resize(multigraph_links);
  std::vector<std::uint32_t> fill(row_begin_.begin(), row_begin_.end() - 1);
  for (std::uint32_t ei = 0; ei < net.num_links(); ++ei) {
    const LinkId e{ei};
    std::uint32_t y = layer_begin_[2 * net.tail(e).value() + 1];  // Y_u
    std::uint32_t x = layer_begin_[2 * net.head(e).value()];      // X_v
    for (const auto& lw : net.available(e)) {
      while (node_[y].lambda < lw.lambda) ++y;
      while (node_[x].lambda < lw.lambda) ++x;
      arcs_[fill[y]++] = {NodeId{x}, e, lw.cost};
    }
  }
}

template <class Heap>
ShortestPathTree LayeredGraph::search(const ConversionModel& conv) {
  gadget_links_ = 0;
  return dijkstra_search<Heap>(
      static_cast<std::uint32_t>(node_.size()), source_, sink_,
      [&](NodeId u, auto&& relax) {
        const AuxNodeInfo& info = node_[u.value()];
        const LinkId via{u.value()};
        switch (info.kind) {
          case AuxNodeKind::kOut:
            for (std::uint32_t a = row_begin_[u.value()];
                 a < row_begin_[u.value() + 1]; ++a)
              relax(arcs_[a].head, arcs_[a].weight, arcs_[a].link);
            return;
          case AuxNodeKind::kIn:
            for (const std::uint32_t y : ys(info.node)) {
              const double c =
                  conv.cost(info.node, info.lambda, node_[y].lambda);
              if (c == kInfiniteCost) continue;
              ++gadget_links_;
              relax(NodeId{y}, c, via);
            }
            if (info.node == t_) relax(sink_, 0.0, via);
            return;
          case AuxNodeKind::kSourceTerminal:
            for (const std::uint32_t y : ys(s_)) relax(NodeId{y}, 0.0, via);
            return;
          case AuxNodeKind::kSinkTerminal:
            return;  // the target: the search ends when it settles
        }
      });
}

Semilightpath LayeredGraph::path(const WdmNetwork& net,
                                 const ShortestPathTree& tree) const {
  std::vector<Hop> hops;
  NodeId x{tree.parent_link[sink_.value()].value()};
  for (;;) {
    const LinkId e = tree.parent_link[x.value()];
    const Wavelength lambda = node_[x.value()].lambda;
    hops.push_back({e, lambda});
    std::uint32_t y = layer_begin_[2 * net.tail(e).value() + 1];
    while (node_[y].lambda != lambda) ++y;
    const NodeId from{tree.parent_link[y].value()};
    if (from == source_) break;
    x = from;
  }
  std::reverse(hops.begin(), hops.end());
  return Semilightpath(std::move(hops));
}

}  // namespace

RouteResult route_on_aux(const WdmNetwork& net, const AuxiliaryGraph& aux,
                         HeapKind heap) {
  RouteInstruments::get().requests.add();

  RouteResult result;
  result.stats.aux_nodes = aux.stats().total_nodes();
  result.stats.aux_links = aux.stats().total_links();
  result.stats.build_seconds = aux.stats().build_seconds;

  Stopwatch timer;
  const NodeId source = aux.source_terminal();
  const NodeId sink = aux.sink_terminal();
  obs::CausalSpan dijkstra_span("route.dijkstra");
  const ShortestPathTree tree = with_heap(heap, [&](auto tag) {
    using Heap = typename decltype(tag)::type;
    return dijkstra_with<Heap>(aux.graph(), source, sink);
  });
  dijkstra_span.close();
  result.stats.search_seconds = timer.seconds();

  return finish_route(net, tree, sink, std::move(result), [&] {
    const auto aux_path = extract_path(aux.graph(), tree, sink);
    LUMEN_ASSERT(aux_path.has_value());
    return aux.to_semilightpath(*aux_path);
  });
}

RouteResult route_semilightpath(const WdmNetwork& net, NodeId s, NodeId t,
                                HeapKind heap) {
  LUMEN_REQUIRE(s.value() < net.num_nodes());
  LUMEN_REQUIRE(t.value() < net.num_nodes());
  if (s == t) return trivial_self_route();
  obs::CausalSpan route_span("route.semilightpath");
  route_span.set_node(s.value());
  RouteResult result;
  obs::CausalSpan build_span("route.aux_build");
  Stopwatch build_timer;
  LayeredGraph graph(net, s, t);
  result.stats.build_seconds = build_timer.seconds();
  build_span.close();
  RouteInstruments::get().requests.add();

  Stopwatch timer;
  obs::CausalSpan dijkstra_span("route.dijkstra");
  const ShortestPathTree tree = with_heap(heap, [&](auto tag) {
    using Heap = typename decltype(tag)::type;
    return graph.search<Heap>(net.conversion());
  });
  dijkstra_span.close();
  result.stats.search_seconds = timer.seconds();
  result.stats.aux_nodes = graph.num_nodes();
  result.stats.aux_links = graph.links_searched();

  return finish_route(net, tree, graph.sink(), std::move(result),
                      [&] { return graph.path(net, tree); });
}

RouteResult route_lightpath(const WdmNetwork& net, NodeId s, NodeId t) {
  LUMEN_REQUIRE(s.value() < net.num_nodes());
  LUMEN_REQUIRE(t.value() < net.num_nodes());
  if (s == t) return trivial_self_route();

  RouteInstruments& instruments = RouteInstruments::get();
  instruments.requests.add();
  obs::CausalSpan route_span("route.lightpath");
  route_span.set_node(s.value());

  RouteResult best;
  best.found = false;
  best.cost = kInfiniteCost;
  // One physical topology is searched k times; report its size once and
  // count the wavelength iterations separately (previously these fields
  // accumulated to k·n / k·m, overstating the structure by a factor of k).
  best.stats.aux_nodes = net.num_nodes();
  best.stats.aux_links = net.num_links();
  Stopwatch timer;

  // One Dijkstra per wavelength on the λ-subnetwork.  The subnetwork
  // reuses the physical topology with weights w(e,λ) (+inf when λ ∉ Λ(e)),
  // so links outside Λ(e) are skipped by the search.  The Digraph is built
  // once; between wavelengths only the weights are rewritten in place.
  Digraph sub(net.num_nodes());
  sub.reserve_links(net.num_links());
  // sub's link ids coincide with physical link ids by construction order.
  for (std::uint32_t ei = 0; ei < net.num_links(); ++ei) {
    const LinkId e{ei};
    sub.add_link(net.tail(e), net.head(e), kInfiniteCost);
  }
  for (std::uint32_t li = 0; li < net.num_wavelengths(); ++li) {
    const Wavelength lambda{li};
    for (std::uint32_t ei = 0; ei < net.num_links(); ++ei) {
      const LinkId e{ei};
      sub.set_weight(e, net.link_cost(e, lambda));
    }
    const ShortestPathTree tree = dijkstra(sub, s, t);
    ++best.stats.wavelengths_searched;
    best.stats.search_pops += tree.pops;
    best.stats.search_relaxations += tree.relaxations;
    if (!tree.reached(t) || tree.dist[t.value()] >= best.cost) continue;

    const auto links = extract_path(sub, tree, t);
    LUMEN_ASSERT(links.has_value());
    Semilightpath path;
    for (const LinkId e : *links) path.append(Hop{e, lambda});
    best.found = true;
    best.cost = tree.dist[t.value()];
    best.path = std::move(path);
  }
  best.switches.clear();  // lightpaths never convert
  best.stats.search_seconds = timer.seconds();
  (best.found ? instruments.found : instruments.not_found).add();
  instruments.latency.record_seconds(best.stats.total_seconds());
  return best;
}

}  // namespace lumen

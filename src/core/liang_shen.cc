#include "core/liang_shen.h"

#include <type_traits>

#include "core/layout.h"
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
  PairGraph graph(net, s, t);
  result.stats.build_seconds = build_timer.seconds();
  build_span.close();
  RouteInstruments::get().requests.add();

  Stopwatch timer;
  obs::CausalSpan dijkstra_span("route.dijkstra");
  const ShortestPathTree tree = with_heap(heap, [&](auto tag) {
    using Heap = typename decltype(tag)::type;
    return graph.search<Heap>();
  });
  dijkstra_span.close();
  result.stats.search_seconds = timer.seconds();
  result.stats.aux_nodes = graph.num_nodes();
  result.stats.aux_links = graph.links_searched();

  return finish_route(net, tree, graph.sink(), std::move(result),
                      [&] { return graph.path(tree, graph.sink()); });
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

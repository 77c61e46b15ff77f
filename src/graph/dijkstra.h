// Dijkstra single-source shortest paths, parameterized on the heap.
//
// This is the engine Theorem 1 runs on the auxiliary graph G_{s,t}: with the
// Fibonacci heap it meets the O(m' + n' log n') bound.  Weights must be
// non-negative; +infinity weights mark unusable links and are skipped.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "graph/digraph.h"
#include "graph/fib_heap.h"
#include "util/error.h"
#include "util/strong_id.h"

namespace lumen {

/// Unreachable-distance sentinel.
inline constexpr double kInfiniteCost = std::numeric_limits<double>::infinity();

/// Result of a Dijkstra run: a shortest-path tree rooted at the source.
struct ShortestPathTree {
  NodeId source;
  /// dist[v] = cost of the shortest path source -> v (kInfiniteCost if
  /// unreachable, or not settled when a target cut the search short).
  std::vector<double> dist;
  /// parent_link[v] = last link on the shortest path to v (invalid at the
  /// source and at unreached nodes).
  std::vector<LinkId> parent_link;
  /// Number of pop_min operations performed (instrumentation).
  std::uint64_t pops = 0;
  /// Number of successful relaxations (instrumentation).
  std::uint64_t relaxations = 0;

  [[nodiscard]] bool reached(NodeId v) const {
    LUMEN_REQUIRE(v.value() < dist.size());
    return dist[v.value()] < kInfiniteCost;
  }
};

namespace detail {

/// Per-thread search buffers and heap, one set per heap type, reused across
/// calls: repeated queries (the RouteEngine regime, all-pairs trees,
/// per-wavelength sweeps, one G_{s,t} per route) stop paying O(n) heap
/// allocations each, and a warm heap keeps its node pool.  assign()/clear()
/// recycle capacity; an early exit (target settled) may leave entries
/// behind, which clear() drops at the start of the next call.
template <class Heap>
struct DijkstraScratch {
  std::vector<typename Heap::Handle> handle;
  std::vector<char> in_heap;
  std::vector<char> settled;
  Heap heap;

  static DijkstraScratch& get() {
    thread_local DijkstraScratch scratch;
    return scratch;
  }
};

}  // namespace detail

/// The heap loop behind every Dijkstra here, over any graph that can list a
/// node's out-links when the node is settled.  For each settled node u
/// (except a settled target) it calls `relax_out(u, relax)`, which must call
/// `relax(v, w, via)` once per link u -> v of weight w, in the graph's row
/// order; `via` becomes parent_link[v] when that link improves v.  Links of
/// weight +infinity and links into settled nodes are skipped.
///
/// Heap must provide: Handle push(double,uint32_t), pop_min(),
/// decrease_key(Handle,double), empty(), clear().
template <class Heap, class RelaxOut>
ShortestPathTree dijkstra_search(std::uint32_t num_nodes, NodeId source,
                                 std::optional<NodeId> target,
                                 RelaxOut&& relax_out) {
  LUMEN_REQUIRE(source.value() < num_nodes);
  if (target) LUMEN_REQUIRE(target->value() < num_nodes);

  ShortestPathTree tree;
  tree.source = source;
  tree.dist.assign(num_nodes, kInfiniteCost);
  tree.parent_link.assign(num_nodes, LinkId::invalid());

  auto& scratch = detail::DijkstraScratch<Heap>::get();
  if (scratch.handle.size() < num_nodes) scratch.handle.resize(num_nodes);
  scratch.in_heap.assign(num_nodes, 0);
  scratch.settled.assign(num_nodes, 0);
  std::vector<typename Heap::Handle>& handle = scratch.handle;
  std::vector<char>& in_heap = scratch.in_heap;
  std::vector<char>& settled = scratch.settled;
  Heap& heap = scratch.heap;
  heap.clear();

  tree.dist[source.value()] = 0.0;
  handle[source.value()] = heap.push(0.0, source.value());
  in_heap[source.value()] = 1;

  while (!heap.empty()) {
    const auto [d, u_raw] = heap.pop_min();
    ++tree.pops;
    in_heap[u_raw] = 0;
    settled[u_raw] = 1;
    if (target && u_raw == target->value()) break;
    if (d == kInfiniteCost) break;  // remaining nodes unreachable

    const double settled_dist = d;
    relax_out(NodeId{u_raw}, [&](NodeId v, double w, LinkId via) {
      if (w == kInfiniteCost || settled[v.value()]) return;
      const double candidate = settled_dist + w;
      if (candidate < tree.dist[v.value()]) {
        tree.dist[v.value()] = candidate;
        tree.parent_link[v.value()] = via;
        ++tree.relaxations;
        if (in_heap[v.value()]) {
          heap.decrease_key(handle[v.value()], candidate);
        } else {
          handle[v.value()] = heap.push(candidate, v.value());
          in_heap[v.value()] = 1;
        }
      }
    });
  }
  return tree;
}

/// Runs Dijkstra from `source`.  If `target` is given, the search stops as
/// soon as the target is settled (distances of other nodes may then be
/// upper bounds only, but dist[target] and the path to it are exact).
template <class Heap>
ShortestPathTree dijkstra_with(const Digraph& g, NodeId source,
                               std::optional<NodeId> target = std::nullopt) {
  return dijkstra_search<Heap>(
      g.num_nodes(), source, target, [&g](NodeId u, auto&& relax) {
        for (const LinkId e : g.out_links(u)) relax(g.head(e), g.weight(e), e);
      });
}

/// Dijkstra with the Fibonacci heap (the paper's choice).
[[nodiscard]] ShortestPathTree dijkstra(
    const Digraph& g, NodeId source,
    std::optional<NodeId> target = std::nullopt);

/// Reconstructs the link sequence of the tree path source -> target.
/// Returns std::nullopt when the target was not reached.
[[nodiscard]] std::optional<std::vector<LinkId>> extract_path(
    const Digraph& g, const ShortestPathTree& tree, NodeId target);

}  // namespace lumen

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

/// Runs Dijkstra from `source`.  If `target` is given, the search stops as
/// soon as the target is settled (distances of other nodes may then be
/// upper bounds only, but dist[target] and the path to it are exact).
///
/// Heap must provide: Handle push(double,uint32_t), pop_min(),
/// decrease_key(Handle,double), empty().
template <class Heap>
ShortestPathTree dijkstra_with(const Digraph& g, NodeId source,
                               std::optional<NodeId> target = std::nullopt) {
  LUMEN_REQUIRE(source.value() < g.num_nodes());
  if (target) LUMEN_REQUIRE(target->value() < g.num_nodes());

  ShortestPathTree tree;
  tree.source = source;
  tree.dist.assign(g.num_nodes(), kInfiniteCost);
  tree.parent_link.assign(g.num_nodes(), LinkId::invalid());

  // Per-thread search buffers and heap, reused across calls: repeated
  // queries (the RouteEngine regime, all-pairs trees, per-wavelength sweeps,
  // one G_{s,t} per route) stop paying O(n) heap allocations each, and a
  // warm heap keeps its node pool.  assign()/clear() recycle capacity; an
  // early exit (target settled) may leave entries behind, which clear()
  // drops at the start of the next call.
  struct Scratch {
    std::vector<typename Heap::Handle> handle;
    std::vector<char> in_heap;
    std::vector<char> settled;
    Heap heap;
  };
  thread_local Scratch scratch;
  if (scratch.handle.size() < g.num_nodes())
    scratch.handle.resize(g.num_nodes());
  scratch.in_heap.assign(g.num_nodes(), 0);
  scratch.settled.assign(g.num_nodes(), 0);
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
    const NodeId u{u_raw};
    in_heap[u_raw] = 0;
    settled[u_raw] = 1;
    if (target && u == *target) break;
    if (d == kInfiniteCost) break;  // remaining nodes unreachable

    for (const LinkId e : g.out_links(u)) {
      const double w = g.weight(e);
      if (w == kInfiniteCost) continue;
      const NodeId v = g.head(e);
      if (settled[v.value()]) continue;
      const double candidate = d + w;
      if (candidate < tree.dist[v.value()]) {
        tree.dist[v.value()] = candidate;
        tree.parent_link[v.value()] = e;
        ++tree.relaxations;
        if (in_heap[v.value()]) {
          heap.decrease_key(handle[v.value()], candidate);
        } else {
          handle[v.value()] = heap.push(candidate, v.value());
          in_heap[v.value()] = 1;
        }
      }
    }
  }
  return tree;
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

#include "graph/traversal.h"

#include <algorithm>
#include <optional>

namespace lumen {

namespace {

/// A BFS tree: nodes in discovery order and the link that discovered each.
struct BfsTree {
  std::vector<NodeId> order;        ///< discovery order, source first
  std::vector<LinkId> parent_link;  ///< invalid at the source / undiscovered
  std::vector<char> seen;
};

/// The FIFO loop behind every traversal here.  For each dequeued node u it
/// calls `visit_out(u, discover)`, which must call `discover(v, via)` once
/// per neighbour v in row order; the first discovery of v records `via` as
/// its parent link.  The discovery order doubles as the queue.  With a
/// target, the search stops once the target is discovered.
template <class VisitOut>
BfsTree bfs_search(std::uint32_t num_nodes, NodeId source,
                   std::optional<NodeId> target, VisitOut&& visit_out) {
  LUMEN_REQUIRE(source.value() < num_nodes);
  if (target) LUMEN_REQUIRE(target->value() < num_nodes);
  BfsTree tree;
  tree.order.reserve(num_nodes);
  tree.parent_link.assign(num_nodes, LinkId::invalid());
  tree.seen.assign(num_nodes, 0);
  tree.order.push_back(source);
  tree.seen[source.value()] = 1;
  for (std::size_t next = 0; next < tree.order.size(); ++next) {
    if (target && tree.seen[target->value()]) break;
    visit_out(tree.order[next], [&tree](NodeId v, LinkId via) {
      if (tree.seen[v.value()]) return;
      tree.seen[v.value()] = 1;
      tree.parent_link[v.value()] = via;
      tree.order.push_back(v);
    });
  }
  return tree;
}

}  // namespace

std::vector<NodeId> bfs_order(const Digraph& g, NodeId source) {
  return bfs_search(g.num_nodes(), source, std::nullopt,
                    [&g](NodeId u, auto&& discover) {
                      for (const LinkId e : g.out_links(u))
                        discover(g.head(e), e);
                    })
      .order;
}

std::vector<bool> reachable_from(const Digraph& g, NodeId source) {
  std::vector<bool> reachable(g.num_nodes(), false);
  for (const NodeId v : bfs_order(g, source)) reachable[v.value()] = true;
  return reachable;
}

bool is_strongly_connected(const Digraph& g) {
  if (g.num_nodes() == 0) return true;
  // Node 0 must reach everything following links, and everything must
  // reach node 0: a BFS from it following links backwards.
  if (bfs_order(g, NodeId{0}).size() != g.num_nodes()) return false;
  return bfs_search(g.num_nodes(), NodeId{0}, std::nullopt,
                    [&g](NodeId u, auto&& discover) {
                      for (const LinkId e : g.in_links(u))
                        discover(g.tail(e), e);
                    })
             .order.size() == g.num_nodes();
}

bool is_weakly_connected(const Digraph& g) {
  if (g.num_nodes() == 0) return true;
  return bfs_search(g.num_nodes(), NodeId{0}, std::nullopt,
                    [&g](NodeId u, auto&& discover) {
                      for (const LinkId e : g.out_links(u))
                        discover(g.head(e), e);
                      for (const LinkId e : g.in_links(u))
                        discover(g.tail(e), e);
                    })
             .order.size() == g.num_nodes();
}

int bfs_hops(const Digraph& g, NodeId source, NodeId target) {
  LUMEN_REQUIRE(source.value() < g.num_nodes());
  LUMEN_REQUIRE(target.value() < g.num_nodes());
  if (source == target) return 0;
  const auto path =
      bfs_link_path(g, source, target, [](LinkId) { return true; });
  return path.empty() ? -1 : static_cast<int>(path.size());
}

std::vector<LinkId> bfs_link_path(const Digraph& g, NodeId source,
                                  NodeId target,
                                  const std::function<bool(LinkId)>& usable) {
  const BfsTree tree = bfs_search(
      g.num_nodes(), source, target, [&](NodeId u, auto&& discover) {
        for (const LinkId e : g.out_links(u))
          if (usable(e)) discover(g.head(e), e);
      });
  std::vector<LinkId> path;
  if (!tree.seen[target.value()]) return path;
  for (NodeId v = target; v != source; v = g.tail(path.back()))
    path.push_back(tree.parent_link[v.value()]);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace lumen

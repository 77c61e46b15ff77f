#include "graph/yen_ksp.h"

#include <algorithm>
#include <set>

#include "graph/dijkstra.h"

namespace lumen {

namespace {

/// Dijkstra on g with some links and nodes masked out.  Masked links are
/// skipped; masked nodes are never relaxed into or popped (except the
/// source, which is legal by construction in Yen: masked nodes are root
/// prefix nodes other than the spur node itself).
ShortestPathTree masked_dijkstra(const Digraph& g, NodeId source,
                                 NodeId target,
                                 const std::vector<char>& link_banned,
                                 const std::vector<char>& node_banned) {
  return dijkstra_search<FibHeap>(
      g.num_nodes(), source, target, [&](NodeId u, auto&& relax) {
        for (const LinkId e : g.out_links(u)) {
          const NodeId v = g.head(e);
          if (!link_banned[e.value()] && !node_banned[v.value()])
            relax(v, g.weight(e), e);
        }
      });
}

double path_cost(const Digraph& g, const std::vector<LinkId>& links) {
  double total = 0.0;
  for (const LinkId e : links) total += g.weight(e);
  return total;
}

}  // namespace

std::vector<RankedPath> yen_k_shortest_paths(const Digraph& g, NodeId source,
                                             NodeId target, std::uint32_t K) {
  LUMEN_REQUIRE(source.value() < g.num_nodes());
  LUMEN_REQUIRE(target.value() < g.num_nodes());
  LUMEN_REQUIRE_MSG(source != target, "Yen requires source != target");
  LUMEN_REQUIRE(K >= 1);

  std::vector<RankedPath> accepted;
  std::vector<char> link_banned(g.num_links(), 0);
  std::vector<char> node_banned(g.num_nodes(), 0);

  // First path: plain Dijkstra.
  {
    const auto tree = masked_dijkstra(g, source, target, link_banned,
                                      node_banned);
    const auto links = extract_path(g, tree, target);
    if (!links) return accepted;
    accepted.push_back(RankedPath{*links, tree.dist[target.value()]});
  }

  // Candidate pool, ordered by (cost, links) for deterministic ties.
  auto cmp = [](const RankedPath& a, const RankedPath& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.links < b.links;
  };
  std::set<RankedPath, decltype(cmp)> candidates(cmp);

  while (accepted.size() < K) {
    const RankedPath& previous = accepted.back();
    // Spur from every prefix of the previous path.
    std::vector<LinkId> root;
    double root_cost = 0.0;
    NodeId spur = source;
    for (std::size_t i = 0; i < previous.links.size(); ++i) {
      // Ban links that would recreate an already accepted path sharing
      // this root.
      std::fill(link_banned.begin(), link_banned.end(), 0);
      std::fill(node_banned.begin(), node_banned.end(), 0);
      for (const RankedPath& p : accepted) {
        if (p.links.size() <= i) continue;
        if (std::equal(root.begin(), root.end(), p.links.begin())) {
          link_banned[p.links[i].value()] = 1;
        }
      }
      // Ban the root's interior nodes so the spur path stays loopless.
      NodeId walker = source;
      for (const LinkId e : root) {
        node_banned[walker.value()] = 1;
        walker = g.head(e);
      }
      LUMEN_ASSERT(walker == spur);

      const auto tree = masked_dijkstra(g, spur, target, link_banned,
                                        node_banned);
      const auto spur_links = extract_path(g, tree, target);
      if (spur_links) {
        RankedPath candidate;
        candidate.links = root;
        candidate.links.insert(candidate.links.end(), spur_links->begin(),
                               spur_links->end());
        candidate.cost = root_cost + tree.dist[target.value()];
        candidates.insert(std::move(candidate));
      }

      // Extend the root by one link of the previous path.
      const LinkId next = previous.links[i];
      root.push_back(next);
      root_cost += g.weight(next);
      spur = g.head(next);
      if (spur == target) break;  // no spur node beyond the target
    }

    // Promote the cheapest unseen candidate.
    bool promoted = false;
    while (!candidates.empty()) {
      auto it = candidates.begin();
      RankedPath best = *it;
      candidates.erase(it);
      if (std::find_if(accepted.begin(), accepted.end(),
                       [&](const RankedPath& p) {
                         return p.links == best.links;
                       }) == accepted.end()) {
        accepted.push_back(std::move(best));
        promoted = true;
        break;
      }
    }
    if (!promoted) break;  // pool exhausted: fewer than K paths exist
  }

  // Candidate costs were accumulated as root_cost + spur distance; sums
  // bracketed differently can drift by ~1 ulp, so recompute each path's
  // cost canonically and restore exact ordering (stable: equal-cost paths
  // keep their discovery order).
  for (RankedPath& p : accepted) p.cost = path_cost(g, p.links);
  std::stable_sort(accepted.begin(), accepted.end(),
                   [](const RankedPath& a, const RankedPath& b) {
                     return a.cost < b.cost;
                   });
  return accepted;
}

}  // namespace lumen

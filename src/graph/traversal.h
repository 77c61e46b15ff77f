// Basic graph traversals: BFS, reachability, connectivity checks and the
// hop-shortest link path.
//
// Callers: batch provisioning ranks demands by bfs_hops; the occupancy
// workload generator (topo/wavelengths) and SessionManager's first-fit
// policy route on bfs_link_path; tests use the connectivity checks as
// structural oracles (every topology generator must return a strongly
// connected graph).  All of them run the one FIFO loop in traversal.cc.
#pragma once

#include <functional>
#include <vector>

#include "graph/digraph.h"
#include "util/strong_id.h"

namespace lumen {

/// Nodes reachable from `source` following link directions (including the
/// source itself), in BFS order.
[[nodiscard]] std::vector<NodeId> bfs_order(const Digraph& g, NodeId source);

/// reachable[v] == true iff v is reachable from source.
[[nodiscard]] std::vector<bool> reachable_from(const Digraph& g,
                                               NodeId source);

/// True iff every node reaches every other node following link directions.
[[nodiscard]] bool is_strongly_connected(const Digraph& g);

/// True iff the underlying undirected graph is connected.
[[nodiscard]] bool is_weakly_connected(const Digraph& g);

/// Number of hops of the shortest unweighted path source -> target, or -1
/// when unreachable.
[[nodiscard]] int bfs_hops(const Digraph& g, NodeId source, NodeId target);

/// Links of a hop-shortest path source -> target over the links for which
/// `usable` holds; empty when target is unreachable or equals source.  Ties
/// go to the path discovered first: out-links are scanned in row order.
[[nodiscard]] std::vector<LinkId> bfs_link_path(
    const Digraph& g, NodeId source, NodeId target,
    const std::function<bool(LinkId)>& usable);

}  // namespace lumen

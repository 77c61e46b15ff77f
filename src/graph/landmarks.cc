#include "graph/landmarks.h"

#include <algorithm>

namespace lumen {

namespace {

/// Full SSSP over a CSR view into a preallocated row (no early exit).
void sssp_into(const CsrDigraph& csr, NodeId source, SearchScratch& scratch,
               double* row) {
  scratch.begin(csr.num_nodes());
  const NodeId sources[1] = {source};
  (void)dijkstra_csr_run(csr, sources, scratch);
  for (std::uint32_t v = 0; v < csr.num_nodes(); ++v)
    row[v] = scratch.dist(NodeId{v});
}

}  // namespace

LandmarkTables select_landmarks(const Digraph& g, std::uint32_t count,
                                std::uint64_t seed) {
  LandmarkTables tables;
  tables.num_nodes = g.num_nodes();
  const std::uint32_t n = g.num_nodes();
  if (n == 0 || count == 0) return tables;
  count = std::min(count, n);

  const CsrDigraph forward(g);
  const CsrDigraph reverse = CsrDigraph::reversed(g);
  SearchScratch scratch;
  tables.from_landmark.resize(static_cast<std::size_t>(count) * n);
  tables.to_landmark.resize(static_cast<std::size_t>(count) * n);

  // score[v] = round-trip distance from v to its closest chosen landmark;
  // the next landmark maximizes it (∞ = a component no landmark covers
  // yet, which is exactly what we want to grab first).
  std::vector<double> score(n, kInfiniteCost);
  std::vector<char> chosen(n, 0);

  NodeId next{static_cast<std::uint32_t>(seed % n)};
  for (std::uint32_t l = 0; l < count; ++l) {
    chosen[next.value()] = 1;
    tables.landmarks.push_back(next);
    double* fwd = tables.from_landmark.data() +
                  static_cast<std::size_t>(l) * n;
    double* rev = tables.to_landmark.data() + static_cast<std::size_t>(l) * n;
    sssp_into(forward, next, scratch, fwd);
    sssp_into(reverse, next, scratch, rev);
    tables.num_landmarks = l + 1;
    if (l + 1 == count) break;

    NodeId farthest = NodeId::invalid();
    double farthest_score = -1.0;
    for (std::uint32_t v = 0; v < n; ++v) {
      // min(∞, x) semantics fall out of IEEE addition: ∞ + x = ∞.
      score[v] = std::min(score[v], fwd[v] + rev[v]);
      if (chosen[v] || score[v] <= 0.0) continue;
      if (score[v] > farthest_score) {
        farthest_score = score[v];
        farthest = NodeId{v};
      }
    }
    if (!farthest.valid()) break;  // every remaining node sits on a landmark
    next = farthest;
  }
  return tables;
}

}  // namespace lumen

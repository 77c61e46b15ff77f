#include "graph/csr.h"

#include <algorithm>
#include <utility>

#include "graph/fib_heap.h"

namespace lumen {

namespace {

/// Packs g's out-rows, or with `reverse` its in-rows pointing back at the
/// links' tails, in node order.
CsrDigraph pack(const Digraph& g, bool reverse) {
  AlignedVector<std::uint32_t> offsets, heads;
  AlignedVector<double> weights;
  std::vector<LinkId> originals;
  offsets.reserve(g.num_nodes() + 1);
  heads.reserve(g.num_links());
  weights.reserve(g.num_links());
  originals.reserve(g.num_links());
  for (std::uint32_t v = 0; v < g.num_nodes(); ++v) {
    offsets.push_back(static_cast<std::uint32_t>(heads.size()));
    for (const LinkId e : reverse ? g.in_links(NodeId{v})
                                  : g.out_links(NodeId{v})) {
      heads.push_back((reverse ? g.tail(e) : g.head(e)).value());
      weights.push_back(g.weight(e));
      originals.push_back(e);
    }
  }
  offsets.push_back(static_cast<std::uint32_t>(heads.size()));
  return CsrDigraph(std::move(offsets), std::move(heads), std::move(weights),
                    std::move(originals));
}

}  // namespace

CsrDigraph::CsrDigraph(const Digraph& g) : CsrDigraph(pack(g, false)) {}

CsrDigraph::CsrDigraph(AlignedVector<std::uint32_t> offsets,
                       AlignedVector<std::uint32_t> heads,
                       AlignedVector<double> weights,
                       std::vector<LinkId> originals)
    : offsets_(std::move(offsets)),
      heads_(std::move(heads)),
      weights_(std::move(weights)),
      originals_(std::move(originals)) {
  LUMEN_REQUIRE(!offsets_.empty() && offsets_.back() == heads_.size() &&
                weights_.size() == heads_.size() &&
                originals_.size() == heads_.size());
}

CsrDigraph CsrDigraph::reversed(const Digraph& g) { return pack(g, true); }

NodeId CsrDigraph::tail(std::uint32_t slot) const {
  LUMEN_REQUIRE(slot < num_links());
  // offsets_ is non-decreasing with offsets_[v] <= slot < offsets_[v+1]
  // exactly for the tail v; upper_bound lands one past that entry.
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), slot);
  return NodeId{static_cast<std::uint32_t>(it - offsets_.begin() - 1)};
}

std::vector<std::uint32_t> CsrDigraph::slots_by_original() const {
  std::vector<std::uint32_t> slots(num_links(), kInvalidSlot);
  for (std::uint32_t slot = 0; slot < num_links(); ++slot) {
    const std::uint32_t original = originals_[slot].value();
    LUMEN_ASSERT(original < slots.size());
    slots[original] = slot;
  }
  return slots;
}

// --- SearchScratch -------------------------------------------------------

void SearchScratch::begin(std::uint32_t num_nodes) {
  if (stamp_.size() < num_nodes) {
    stamp_.resize(num_nodes, 0);
    sink_stamp_.resize(num_nodes, 0);
    dist_.resize(num_nodes, kInfiniteCost);
    parent_.resize(num_nodes, CsrDigraph::kInvalidSlot);
    state_.resize(num_nodes, 0);
    pos_.resize(num_nodes, 0);
    // The A* potential memo is sized lazily by ensure_potentials(), so
    // plain-Dijkstra scratches carry only this set.
  }
  ++generation_;  // O(1) invalidation of all per-node state
  heap_.clear();
  hkey_.clear();
}

void SearchScratch::mark_sink(NodeId v) {
  LUMEN_REQUIRE(v.value() < sink_stamp_.size());
  sink_stamp_[v.value()] = generation_;
}

void SearchScratch::heap_push(std::uint32_t v, double key) {
  heap_.push_back(v);
  hkey_.push_back(key);
  pos_[v] = static_cast<std::uint32_t>(heap_.size() - 1);
  state_[v] = kInHeap;
  sift_up(heap_.size() - 1);
}

void SearchScratch::heap_decrease(std::uint32_t v, double key) {
  const std::uint32_t i = pos_[v];
  hkey_[i] = key;
  sift_up(i);
}

std::uint32_t SearchScratch::heap_pop_min() {
  const std::uint32_t top = heap_.front();
  const std::uint32_t last = heap_.back();
  const double last_key = hkey_.back();
  heap_.pop_back();
  hkey_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    hkey_[0] = last_key;
    pos_[last] = 0;
    sift_down(0);
  }
  return top;
}

void SearchScratch::sift_up(std::size_t i) {
  const std::uint32_t v = heap_[i];
  const double key = hkey_[i];
  while (i > 0) {
    const std::size_t up = (i - 1) / 4;
    if (hkey_[up] <= key) break;
    heap_[i] = heap_[up];
    hkey_[i] = hkey_[up];
    pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    i = up;
  }
  heap_[i] = v;
  hkey_[i] = key;
  pos_[v] = static_cast<std::uint32_t>(i);
}

void SearchScratch::sift_down(std::size_t i) {
  const std::uint32_t v = heap_[i];
  const double key = hkey_[i];
  const std::size_t size = heap_.size();
  while (true) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= size) break;
    const std::size_t count = std::min<std::size_t>(4, size - first_child);
    std::size_t best = first_child;
    double best_key = hkey_[first_child];
    for (std::size_t c = first_child + 1; c < first_child + count; ++c) {
      const double ck = hkey_[c];
      if (ck < best_key) {
        best = c;
        best_key = ck;
      }
    }
    if (best_key >= key) break;
    heap_[i] = heap_[best];
    hkey_[i] = best_key;
    pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    i = best;
  }
  heap_[i] = v;
  hkey_[i] = key;
  pos_[v] = static_cast<std::uint32_t>(i);
}

// --- multi-source early-exit search ---------------------------------------

NodeId dijkstra_csr_run(const CsrDigraph& g, std::span<const NodeId> sources,
                        SearchScratch& scratch, CsrRunStats* stats,
                        std::span<const double> weights) {
  return csr_search_run(g, sources, scratch, NoPotential{}, stats, weights);
}

double dijkstra_csr_budget(const CsrDigraph& g, NodeId source,
                           std::uint32_t budget, SearchScratch& scratch,
                           std::vector<std::uint32_t>& order,
                           CsrRunStats* stats) {
  LUMEN_REQUIRE(source.value() < g.num_nodes());
  scratch.begin(g.num_nodes());
  scratch.touch(source.value());
  scratch.dist_[source.value()] = 0.0;
  scratch.heap_push(source.value(), 0.0);
  const double* w = g.weights_data();
  const std::uint32_t* heads = g.heads_data();
  for (std::uint32_t pops = 0; !scratch.heap_.empty(); ++pops) {
    // Every unsettled node lies behind the frontier, so none is closer
    // than its least key.
    if (pops == budget) return scratch.hkey_.front();
    const std::uint32_t u = scratch.heap_pop_min();
    scratch.state_[u] = SearchScratch::kSettled;
    order.push_back(u);
    if (stats != nullptr) {
      ++stats->pops;
      ++stats->settled;
    }
    const double du = scratch.dist_[u];
    const auto [first, last] = g.out_slot_range(NodeId{u});
    for (std::uint32_t slot = first; slot < last; ++slot) {
      if (w[slot] == kInfiniteCost) continue;
      const std::uint32_t v = heads[slot];
      scratch.touch(v);
      if (scratch.state_[v] == SearchScratch::kSettled) continue;
      const double candidate = du + w[slot];
      if (candidate < scratch.dist_[v]) {
        const bool queued = scratch.state_[v] == SearchScratch::kInHeap;
        scratch.dist_[v] = candidate;
        scratch.parent_[v] = slot;
        if (stats != nullptr) ++stats->relaxations;
        if (queued) {
          scratch.heap_decrease(v, candidate);
        } else {
          scratch.heap_push(v, candidate);
        }
      }
    }
  }
  return kInfiniteCost;
}

ShortestPathTree dijkstra_csr(const CsrDigraph& g, NodeId source,
                              std::optional<NodeId> target) {
  const std::uint32_t* heads = g.heads_data();
  const double* w = g.weights_data();
  return dijkstra_search<FibHeap>(
      g.num_nodes(), source, target, [&](NodeId u, auto&& relax) {
        const auto [first, last] = g.out_slot_range(u);
        for (std::uint32_t slot = first; slot < last; ++slot)
          relax(NodeId{heads[slot]}, w[slot], g.original(slot));
      });
}

}  // namespace lumen

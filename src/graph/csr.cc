#include "graph/csr.h"

#include <algorithm>

#include "graph/fib_heap.h"

namespace lumen {

CsrDigraph::CsrDigraph(const Digraph& g) {
  offsets_.resize(g.num_nodes() + 1);
  heads_.reserve(g.num_links());
  weights_.reserve(g.num_links());
  originals_.reserve(g.num_links());
  std::uint32_t cursor = 0;
  for (std::uint32_t v = 0; v < g.num_nodes(); ++v) {
    offsets_[v] = cursor;
    for (const LinkId e : g.out_links(NodeId{v})) {
      heads_.push_back(g.head(e).value());
      weights_.push_back(g.weight(e));
      originals_.push_back(e);
      ++cursor;
    }
  }
  offsets_[g.num_nodes()] = cursor;
}

CsrDigraph CsrDigraph::reversed(const Digraph& g) {
  CsrDigraph csr;
  csr.offsets_.resize(g.num_nodes() + 1);
  csr.heads_.reserve(g.num_links());
  csr.weights_.reserve(g.num_links());
  csr.originals_.reserve(g.num_links());
  std::uint32_t cursor = 0;
  for (std::uint32_t v = 0; v < g.num_nodes(); ++v) {
    csr.offsets_[v] = cursor;
    for (const LinkId e : g.in_links(NodeId{v})) {
      csr.heads_.push_back(g.tail(e).value());
      csr.weights_.push_back(g.weight(e));
      csr.originals_.push_back(e);
      ++cursor;
    }
  }
  csr.offsets_[g.num_nodes()] = cursor;
  return csr;
}

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
  LUMEN_REQUIRE(source.value() < g.num_nodes());
  if (target) LUMEN_REQUIRE(target->value() < g.num_nodes());

  ShortestPathTree tree;
  tree.source = source;
  tree.dist.assign(g.num_nodes(), kInfiniteCost);
  tree.parent_link.assign(g.num_nodes(), LinkId::invalid());

  std::vector<FibHeap::Handle> handle(g.num_nodes());
  std::vector<char> in_heap(g.num_nodes(), 0);
  std::vector<char> settled(g.num_nodes(), 0);

  FibHeap heap;
  tree.dist[source.value()] = 0.0;
  handle[source.value()] = heap.push(0.0, source.value());
  in_heap[source.value()] = 1;

  const std::uint32_t* heads = g.heads_data();
  const double* w = g.weights_data();
  while (!heap.empty()) {
    const auto [d, u_raw] = heap.pop_min();
    ++tree.pops;
    in_heap[u_raw] = 0;
    settled[u_raw] = 1;
    if (target && NodeId{u_raw} == *target) break;
    if (d == kInfiniteCost) break;

    const auto [first, last] = g.out_slot_range(NodeId{u_raw});
    for (std::uint32_t slot = first; slot < last; ++slot) {
      if (w[slot] == kInfiniteCost) continue;
      const std::uint32_t v = heads[slot];
      if (settled[v]) continue;
      const double candidate = d + w[slot];
      if (candidate < tree.dist[v]) {
        tree.dist[v] = candidate;
        tree.parent_link[v] = g.original(slot);
        ++tree.relaxations;
        if (in_heap[v]) {
          heap.decrease_key(handle[v], candidate);
        } else {
          handle[v] = heap.push(candidate, v);
          in_heap[v] = 1;
        }
      }
    }
  }
  return tree;
}

}  // namespace lumen

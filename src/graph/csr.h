// Compressed-sparse-row (CSR) digraph view with overridable weights.
//
// The mutable Digraph stores per-node link vectors — convenient while
// building, but each adjacency list is its own heap allocation.  CSR packs
// all out-links into contiguous arrays for cache-friendly traversal; the
// Dijkstra inner loop on large auxiliary graphs is memory-bound, so this
// is the representation ablation bench_csr measures.  Link identity is
// preserved: every slot carries the original LinkId so results (parent
// links, extracted paths) remain expressed in Digraph terms.
//
// Layout is structure-of-arrays: heads, weights, and original ids live in
// separate cache-line-aligned arrays keyed by slot.  The search kernel
// streams exactly two of them (heads + weights) per relaxation, so SoA
// halves the touched bytes versus the old array-of-structs packing — and
// a per-wavelength weight override becomes a plain row-pointer swap
// instead of a per-link branch.
//
// The view is immutable after construction, but a search may read its
// weights from the caller's own row instead of the stored one: this is
// what lets the build-once RouteEngine flip residual availability to/from
// +inf in O(1) per (link, wavelength) without touching the shared arena.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/dijkstra.h"  // ShortestPathTree, kInfiniteCost
#include "util/mem.h"

namespace lumen {

/// CSR snapshot of a Digraph's out-adjacency (or of packed rows).  Fixed
/// once built; searches may override its weights with a per-slot row.
class CsrDigraph {
 public:
  /// One packed out-link, materialized by value from the SoA rows.
  struct OutLink {
    NodeId head;
    double weight;
    LinkId original;  ///< id of the corresponding Digraph link
  };

  /// Sentinel for "no slot" (e.g. a search seed's parent).
  static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;

  /// Snapshots `g` (O(n + m)).
  explicit CsrDigraph(const Digraph& g);

  /// Adopts packed rows: node v's out-links are the slots
  /// [offsets[v], offsets[v + 1]) of `heads`, `weights` and `originals`.
  CsrDigraph(AlignedVector<std::uint32_t> offsets,
             AlignedVector<std::uint32_t> heads, AlignedVector<double> weights,
             std::vector<LinkId> originals);

  /// Snapshots the *reversed* graph: slot (v, e) holds link e of g packed
  /// under its head v, pointing back at g.tail(e).  Searches over this
  /// view compute distances *to* a node (the reverse-Dijkstra potentials
  /// of goal-directed routing).  Slot order differs from the forward CSR,
  /// so per-slot weight rows built against one view do not apply to the
  /// other; `original` ids stay those of g.
  [[nodiscard]] static CsrDigraph reversed(const Digraph& g);

  [[nodiscard]] std::uint32_t num_nodes() const noexcept {
    return static_cast<std::uint32_t>(offsets_.size() - 1);
  }
  [[nodiscard]] std::uint32_t num_links() const noexcept {
    return static_cast<std::uint32_t>(heads_.size());
  }

  /// Slot range [first, last) of v's out-links in the packed arrays.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> out_slot_range(
      NodeId v) const {
    LUMEN_REQUIRE(v.value() < num_nodes());
    return {offsets_[v.value()], offsets_[v.value() + 1]};
  }

  [[nodiscard]] NodeId head(std::uint32_t slot) const {
    LUMEN_REQUIRE(slot < num_links());
    return NodeId{heads_[slot]};
  }
  [[nodiscard]] double weight(std::uint32_t slot) const {
    LUMEN_REQUIRE(slot < num_links());
    return weights_[slot];
  }
  [[nodiscard]] LinkId original(std::uint32_t slot) const {
    LUMEN_REQUIRE(slot < num_links());
    return originals_[slot];
  }

  /// The packed out-link stored in `slot`, materialized by value.
  [[nodiscard]] OutLink link(std::uint32_t slot) const {
    LUMEN_REQUIRE(slot < num_links());
    return {NodeId{heads_[slot]}, weights_[slot], originals_[slot]};
  }

  /// Raw SoA rows for the search kernels (indexed by slot, num_links
  /// entries).  weights_data() doubles as the default weight row a
  /// per-wavelength override replaces wholesale.
  [[nodiscard]] const std::uint32_t* heads_data() const noexcept {
    return heads_.data();
  }
  [[nodiscard]] const double* weights_data() const noexcept {
    return weights_.data();
  }

  /// Tail node of the link stored in `slot` (O(log n) over the offsets).
  /// Lets parent-slot chains from SearchScratch be walked back to a seed.
  [[nodiscard]] NodeId tail(std::uint32_t slot) const;

  /// Reverse index: result[original link id] = slot holding its snapshot.
  /// Each Digraph link appears in exactly one slot.  O(m).
  [[nodiscard]] std::vector<std::uint32_t> slots_by_original() const;

 private:
  AlignedVector<std::uint32_t> offsets_;  // n+1 entries
  AlignedVector<std::uint32_t> heads_;    // per slot
  AlignedVector<double> weights_;         // per slot
  std::vector<LinkId> originals_;         // per slot (cold: path extraction)
};

class SearchScratch;
struct CsrRunStats;

/// Tag potential for the shared kernel: compiles the uninformed Dijkstra
/// (no potential memo, no pruning branch) out of csr_search_run.
struct NoPotential {};

template <class Potential>
NodeId csr_search_run(const CsrDigraph& g, std::span<const NodeId> sources,
                      SearchScratch& scratch, Potential&& potential,
                      CsrRunStats* stats = nullptr,
                      std::span<const double> weights = {});

/// Reusable search state for the CSR search kernels.  Buffers are sized to
/// the graph once and invalidated lazily via generation stamps, so after
/// warm-up a query allocates nothing and "clearing" is O(1).
///
/// Protocol per query: begin(n), mark_sink(v) for each early-exit target
/// (optional), run, then read dist()/parent_slot() for settled nodes.
/// One scratch serves one thread; concurrent searches need one scratch
/// each (the graph itself is safe to share read-only).
///
/// Footprint is mode-aware: begin() sizes only the arrays every search
/// touches.  The A* potential memo and the per-target reverse-potential
/// cache are each sized lazily on the first goal-directed query, so a
/// scratch that only ever runs plain Dijkstra never allocates them.
class SearchScratch {
 public:
  /// Opens a new query over an `num_nodes`-node graph: grows the buffers
  /// if needed and invalidates all per-node state from previous queries.
  void begin(std::uint32_t num_nodes);

  /// The goal-directed query's per-target distance table: one engine
  /// potential row expanded over the node ids.  The owner (a RouteEngine
  /// family, identified by a unique token) keeps one write-once row per
  /// target: the nodes its budgeted reverse Dijkstra from `target`
  /// settled, each with its exact distance to the target, and the radius
  /// r at which the search stopped (+inf when it ran out of nodes, in
  /// which case the row is exact everywhere).  Every node the row does not
  /// list is at least r from the target, so the potential of v is
  /// min(dist[v], radius): the min of two consistent bounds, hence a
  /// consistent, admissible potential for every source.  Expanding a row
  /// writes its entries into `dist` and resets the previous row's (O(row),
  /// not O(n)); `dist` holds +inf off the row.  The table is reused while
  /// (owner, target) match, so repeated queries to one target read it
  /// as it is.  Rows hold *base*-weight distances, which stay admissible
  /// for the owner's whole lifetime (weight patches only ever raise
  /// weights), so no weight-change invalidation is ever needed.
  struct TargetPotential {
    std::uint64_t owner = 0;  ///< 0 = empty slot
    std::uint32_t target = 0xffffffffu;
    double radius = 0.0;       ///< r; +inf when the row is exact
    std::vector<double> dist;  ///< per node: row distance, +inf off the row
    std::vector<std::uint32_t> nodes;  ///< the row's nodes (reset on reuse)
  };
  [[nodiscard]] TargetPotential& target_potential() noexcept {
    return target_potential_;
  }

  /// Marks v as a sink of the current query (search stops at the first
  /// settled sink).
  void mark_sink(NodeId v);

  /// Tentative/final distance of v in the current query (+inf when never
  /// touched).  Final once the search has settled v.
  [[nodiscard]] double dist(NodeId v) const noexcept {
    return stamp_[v.value()] == generation_ ? dist_[v.value()] : kInfiniteCost;
  }
  /// Slot of the CSR link that last relaxed v (kInvalidSlot at seeds and
  /// untouched nodes).
  [[nodiscard]] std::uint32_t parent_slot(NodeId v) const noexcept {
    return stamp_[v.value()] == generation_ ? parent_[v.value()]
                                            : CsrDigraph::kInvalidSlot;
  }

 private:
  friend NodeId dijkstra_csr_run(const CsrDigraph&, std::span<const NodeId>,
                                 SearchScratch&, CsrRunStats*,
                                 std::span<const double>);
  friend double dijkstra_csr_budget(const CsrDigraph&, NodeId, std::uint32_t,
                                    SearchScratch&,
                                    std::vector<std::uint32_t>&,
                                    CsrRunStats*);
  template <class Potential>
  friend NodeId csr_search_run(const CsrDigraph&, std::span<const NodeId>,
                               SearchScratch&, Potential&&, CsrRunStats*,
                               std::span<const double>);

  static constexpr std::uint8_t kInHeap = 1;
  static constexpr std::uint8_t kSettled = 2;

  /// First touch of v in this query: resets its per-query state.
  void touch(std::uint32_t v) {
    if (stamp_[v] != generation_) {
      stamp_[v] = generation_;
      dist_[v] = kInfiniteCost;
      parent_[v] = CsrDigraph::kInvalidSlot;
      state_[v] = 0;
    }
  }

  /// Lazily sizes the A* potential memo (goal-directed queries only).
  void ensure_potentials() {
    if (pot_stamp_.size() < stamp_.size()) {
      pot_stamp_.resize(stamp_.size(), 0);
      pot_.resize(stamp_.size(), 0.0);
    }
  }
  // --- indexed 4-ary heap over node ids, keyed by hkey_ -----------------
  // (Dijkstra pushes key == dist; A* pushes key == dist + potential.)
  void heap_push(std::uint32_t v, double key);
  void heap_decrease(std::uint32_t v, double key);
  std::uint32_t heap_pop_min();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::uint64_t generation_ = 0;
  AlignedVector<std::uint64_t> stamp_;  // per node: generation when touched
  AlignedVector<std::uint64_t> sink_stamp_;  // generation when marked
  AlignedVector<double> dist_;
  AlignedVector<std::uint32_t> parent_;  // CSR slot
  AlignedVector<std::uint8_t> state_;    // kInHeap / kSettled (stamped)
  AlignedVector<std::uint32_t> heap_;  // node ids, min-ordered by hkey_
  // Heap keys (f-values) stored position-parallel to heap_, NOT per node:
  // sift-down's four child keys then sit in one contiguous 32-byte run, so
  // the min scan reads them in place instead of gathering through heap_
  // into a node-indexed array.
  AlignedVector<double> hkey_;
  AlignedVector<std::uint32_t> pos_;  // heap position (valid while kInHeap)
  // Per-query memo of the A* potential (evaluating it costs O(L) per
  // node, and a node can be relaxed many times before settling); sized
  // lazily by ensure_potentials().
  AlignedVector<std::uint64_t> pot_stamp_;
  AlignedVector<double> pot_;
  TargetPotential target_potential_;
};

/// Per-run effort counters of the CSR search kernels.
struct CsrRunStats {
  std::uint64_t pops = 0;
  std::uint64_t settled = 0;  ///< == pops (no lazy deletion), kept explicit
  std::uint64_t relaxations = 0;
  /// Relaxations (or seeds) skipped because the potential proved the node
  /// cannot reach the target; 0 for uninformed Dijkstra runs.
  std::uint64_t pruned = 0;
};

/// Multi-source, early-exit Dijkstra over a CSR arena.
///
/// Seeds every node of `sources` at distance 0 (this is the RouteEngine's
/// "virtual terminal": equivalent to a zero-weight tie from an implicit
/// super-source, without materializing terminal nodes).  When sinks were
/// marked in `scratch`, the search stops at the first settled sink — which,
/// by Dijkstra's settle order, is the closest sink — and returns it
/// (invalid id when no sink is reachable).  With no sinks marked it runs to
/// exhaustion and returns an invalid id; distances are then a full SSSP.
///
/// `weights`, when non-empty, overrides the arena's stored weights
/// (indexed by slot; size num_links).  This serves structure-sharing
/// subnetwork caches that keep one weight row per wavelength.
NodeId dijkstra_csr_run(const CsrDigraph& g, std::span<const NodeId> sources,
                        SearchScratch& scratch, CsrRunStats* stats = nullptr,
                        std::span<const double> weights = {});

/// Budgeted single-source Dijkstra (the engine's per-target potential
/// rows): settles at most `budget` nodes from `source`, appending each to
/// `order` in settle order (its final distance is scratch.dist(v)).
/// Returns the least key left in the frontier at the stop, a lower bound
/// on the distance of every unsettled node, or +inf when the search ran
/// out of reachable nodes first (every unsettled node is then
/// unreachable).
double dijkstra_csr_budget(const CsrDigraph& g, NodeId source,
                           std::uint32_t budget, SearchScratch& scratch,
                           std::vector<std::uint32_t>& order,
                           CsrRunStats* stats = nullptr);

/// Goal-directed (A*) variant of dijkstra_csr_run, and the one relaxation
/// loop behind both: dijkstra_csr_run instantiates it with NoPotential, so
/// the goal-directed branches compile out.
///
/// `potential(v)` must be an *admissible, consistent* lower bound on the
/// remaining cost from node v to every marked sink (kInfiniteCost when v
/// provably cannot reach one — such nodes are pruned outright and counted
/// in CsrRunStats::pruned).  The heap is ordered by f = dist + potential;
/// settled distances (scratch.dist()) are true g-costs, so results are
/// exchangeable with dijkstra_csr_run's.  With a consistent potential the
/// first settled sink is still the cheapest one (all sinks must have
/// potential 0), and every settled node carries its optimal distance.
/// The potential is evaluated once per seed, and at most once more per
/// node a relaxation reaches (memoized in the scratch).
template <class Potential>
NodeId csr_search_run(const CsrDigraph& g, std::span<const NodeId> sources,
                      SearchScratch& scratch, Potential&& potential,
                      CsrRunStats* stats, std::span<const double> weights) {
  constexpr bool kGoal = !std::is_same_v<std::decay_t<Potential>, NoPotential>;
  LUMEN_REQUIRE(weights.empty() || weights.size() == g.num_links());
  // SoA: an override is a wholesale row swap, not a per-link branch.
  const double* w = weights.empty() ? g.weights_data() : weights.data();
  const std::uint32_t* heads = g.heads_data();
  if constexpr (kGoal) scratch.ensure_potentials();

  // The memo is read only by relaxations: a seed that survives settles at
  // distance 0 and is never relaxed again, so the seeds below call
  // `potential` directly.  With this single call site the memo inlines
  // into the relaxation loop; called from both loops, GCC -O2 left it out
  // of line, a call per relaxation.
  const auto pot_of = [&](std::uint32_t v) -> double {
    if (scratch.pot_stamp_[v] != scratch.generation_) {
      scratch.pot_stamp_[v] = scratch.generation_;
      if constexpr (kGoal) scratch.pot_[v] = potential(v);
    }
    return scratch.pot_[v];
  };

  for (const NodeId s : sources) {
    LUMEN_REQUIRE(s.value() < g.num_nodes());
    scratch.touch(s.value());
    if (scratch.dist_[s.value()] > 0.0) {
      double h = 0.0;
      if constexpr (kGoal) {
        h = potential(s.value());
        if (h == kInfiniteCost) {
          if (stats != nullptr) ++stats->pruned;
          continue;
        }
      }
      scratch.dist_[s.value()] = 0.0;
      scratch.parent_[s.value()] = CsrDigraph::kInvalidSlot;
      scratch.heap_push(s.value(), h);
    }
  }

  while (!scratch.heap_.empty()) {
    const std::uint32_t u = scratch.heap_pop_min();
    scratch.state_[u] = SearchScratch::kSettled;
    const auto [first, last] = g.out_slot_range(NodeId{u});
    if (stats != nullptr) {
      ++stats->pops;
      ++stats->settled;
    }
    if (scratch.sink_stamp_[u] == scratch.generation_) return NodeId{u};
    const double du = scratch.dist_[u];

    for (std::uint32_t slot = first; slot < last; ++slot) {
      const double wt = w[slot];
      if (wt == kInfiniteCost) continue;
      const std::uint32_t v = heads[slot];
      scratch.touch(v);
      if (scratch.state_[v] == SearchScratch::kSettled) continue;
      const double candidate = du + wt;
      if (candidate < scratch.dist_[v]) {
        double key = candidate;
        if constexpr (kGoal) {
          const double hv = pot_of(v);
          if (hv == kInfiniteCost) {
            if (stats != nullptr) ++stats->pruned;
            continue;
          }
          key = candidate + hv;
        }
        const bool queued = scratch.state_[v] == SearchScratch::kInHeap;
        scratch.dist_[v] = candidate;
        scratch.parent_[v] = slot;
        if (stats != nullptr) ++stats->relaxations;
        if (queued) {
          scratch.heap_decrease(v, key);
        } else {
          scratch.heap_push(v, key);
        }
      }
    }
  }
  return NodeId::invalid();
}

/// Dijkstra over the CSR view: dijkstra_search<FibHeap> with a CSR row
/// visitor.  Semantics identical to dijkstra() on the originating Digraph —
/// parent links are original ids.
[[nodiscard]] ShortestPathTree dijkstra_csr(
    const CsrDigraph& g, NodeId source,
    std::optional<NodeId> target = std::nullopt);

}  // namespace lumen

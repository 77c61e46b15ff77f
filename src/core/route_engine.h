// Build-once route-many: a reusable flattened auxiliary-graph engine.
//
// route_semilightpath() lays out a fresh G_{s,t} on every query: an
// O(km + Σ_v |X_v| + |Y_v|) build, plus the k² gadget links of every
// X-node its search settles.  Only the two terminal nodes depend on
// (s, t), so the engine hoists everything else out of the hot path:
//
//   * The wavelength-gadget core G' (G_M + conversion gadgets, NO
//     terminals) is built once per network and flattened into a
//     cache-friendly CSR arena (CsrDigraph).
//   * A query (s, t) uses *virtual terminals*: a multi-source Dijkstra is
//     seeded from every y_s(λ) at distance 0 (exactly the zero-weight
//     s' ties of G_{s,t}) and stops at the first settled x_t(λ) (which,
//     by settle order, realizes the zero-weight X_t → t'' fan-in).  A
//     query therefore mutates nothing and — after warm-up — allocates
//     only its result; the search state lives in a reusable
//     generation-stamped SearchScratch.
//   * Residual updates are in-place weight patches: set_weight(e, λ, w)
//     rewrites one transmission slot (and one per-wavelength subnetwork
//     slot) in O(log k0); reserving is setting +inf, releasing is
//     setting the base cost back.  The structure never changes, so the
//     core stays valid for the network's whole lifetime.
//   * route_lightpath gets the same treatment: one CSR snapshot of the
//     physical topology shared by all wavelengths, with one weight row
//     per λ — k searches per query, zero construction.
//   * route_many() fans a batch of queries over a ThreadPool; the
//     flattened core is searched concurrently with per-thread scratch.
//   * Goal direction (QueryOptions{goal_directed}): single-pair queries
//     run multi-source A* instead of uniform Dijkstra, keyed by
//     f = g + π_t(v).  π_t comes from a cheapest-wavelength reverse
//     Dijkstra from t that stops when s settles, at radius
//     r = d_base(s, t): π_t(v) = min(d_base(v, t), r), the min of two
//     consistent potentials, cached in the scratch and reused by later
//     queries to t whose source lies inside the ball (stats
//     potential_pops; 0 on a hit).  Engines built with num_landmarks > 0
//     max-combine ALT landmark bounds into π_t.  The default builds none:
//     an ALT bound never exceeds d_base(v, t), so it can only lift nodes
//     outside the ball above r, and that did not pay for its table
//     lookups (E17 and the svc-sparse-mt runs in docs/PERFORMANCE.md).
//     All bounds are *base*-weight distances, which is what makes them
//     residual-safe with zero invalidation: weight patches only ever
//     raise a link's weight above its base value (reserve/fail → +inf,
//     release/repair → restore base; set_weight enforces this), so the
//     bounds stay admissible and consistent for the engine's whole
//     lifetime.  Pruning degrades gracefully as load rises; correctness
//     never does.
//
// Invalidation rules: weight-only residual changes (reserve/release of a
// wavelength that exists in the base network, span failure/repair) are
// O(log k0) patches.  Structural changes — adding links or nodes, making a
// wavelength available that was NOT in the base Λ(e), or swapping the
// conversion model — require constructing a new engine.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/route_types.h"
#include "graph/csr.h"
#include "graph/landmarks.h"
#include "wdm/network.h"

namespace lumen {

/// Answers repeated (semi)lightpath queries over one network, amortizing
/// construction.  The engine copies everything it needs at build time, so
/// the source network need not outlive it; keeping the engine's patched
/// weights in sync with a mutating residual network is the caller's job
/// (SessionManager does this for every policy).
class RouteEngine {
 public:
  /// Build-time configuration.
  struct Options {
    /// ALT landmarks precomputed on the physical topology at build time
    /// (farthest-point selection, base cheapest-wavelength weights).
    /// 0 (the default) builds no tables; goal-directed queries then rely
    /// on the per-target reverse-Dijkstra potential alone.  Nonzero
    /// values are the E17 ablation.
    std::uint32_t num_landmarks = 0;
  };

  /// Per-query configuration.
  struct QueryOptions {
    /// Run the semilightpath query as goal-directed A* (same optimum,
    /// fewer heap pops — see stats search_pops/settled/pruned).
    bool goal_directed = false;
  };

  /// Builds the flattened core from the network's current availability
  /// (one-time O(k²n + km) cost; see stats().build_seconds).
  explicit RouteEngine(const WdmNetwork& net) : RouteEngine(net, Options{}) {}
  RouteEngine(const WdmNetwork& net, const Options& options);

  // --- queries ----------------------------------------------------------

  /// Optimal semilightpath s -> t on the current (patched) weights.
  /// Result contract identical to route_semilightpath(); stats report the
  /// prebuilt core size and build_seconds = 0 (construction is amortized).
  /// The scratch-less overloads use the engine's internal scratch and are
  /// NOT thread-safe; for concurrent queries pass one SearchScratch per
  /// thread (the engine itself is then safe to share read-only).
  [[nodiscard]] RouteResult route_semilightpath(NodeId s, NodeId t);
  [[nodiscard]] RouteResult route_semilightpath(NodeId s, NodeId t,
                                                const QueryOptions& query);
  [[nodiscard]] RouteResult route_semilightpath(NodeId s, NodeId t,
                                                SearchScratch& scratch) const {
    return route_semilightpath(s, t, scratch, QueryOptions{});
  }
  [[nodiscard]] RouteResult route_semilightpath(NodeId s, NodeId t,
                                                SearchScratch& scratch,
                                                const QueryOptions& query) const;

  /// Optimal lightpath (single wavelength end-to-end) s -> t: one early-
  /// exit Dijkstra per wavelength over the shared physical CSR.
  [[nodiscard]] RouteResult route_lightpath(NodeId s, NodeId t);
  [[nodiscard]] RouteResult route_lightpath(NodeId s, NodeId t,
                                            SearchScratch& scratch) const;

  enum class QueryKind { kSemilightpath, kLightpath };

  /// Routes a batch of (s, t) queries concurrently over the immutable
  /// flattened core (threads = 0 → one per hardware thread; 1 → inline).
  /// results[i] answers pairs[i].  Weights must not be patched while a
  /// batch is in flight.  `query` applies to semilightpath batches; each
  /// worker owns a scratch, so goal-directed batches sorted by target
  /// amortize the per-target potential within a worker (a row is reused
  /// for sources inside its ball, recomputed for the others).
  [[nodiscard]] std::vector<RouteResult> route_many(
      std::span<const std::pair<NodeId, NodeId>> pairs, unsigned threads = 0,
      QueryKind kind = QueryKind::kSemilightpath) const {
    return route_many(pairs, threads, kind, QueryOptions{});
  }
  [[nodiscard]] std::vector<RouteResult> route_many(
      std::span<const std::pair<NodeId, NodeId>> pairs, unsigned threads,
      QueryKind kind, const QueryOptions& query) const;

  // --- one-to-all cost rows ----------------------------------------------

  /// Full semilightpath cost rows: result[i][t] = cheapest cost
  /// sources[i] → t for every physical node t (+inf when unreachable,
  /// always 0 on the diagonal).  One flat full Dijkstra over the core per
  /// source, reduced over each target's sinks — the same relaxations and
  /// additions as a point query, so every row entry equals the matching
  /// route_semilightpath cost bit-for-bit.  threads = 0 → one per
  /// hardware thread, 1 → inline; weights must not be patched while a
  /// call is in flight.
  [[nodiscard]] std::vector<std::vector<double>> bulk_costs(
      std::span<const NodeId> sources, unsigned threads = 0) const;

  // --- in-place residual updates ------------------------------------------

  /// Sets w(e, λ) to `weight` in both the semilightpath core and the
  /// per-wavelength subnetwork cache: +inf reserves or fails the slot, the
  /// base cost releases or repairs it.  O(log k0) slot lookup.  Requires
  /// λ ∈ base Λ(e), and `weight` must not drop below the base w(e, λ) —
  /// the goal-direction invariant (base distances stay admissible lower
  /// bounds) depends on weights only ever rising above their build-time
  /// snapshot.  Discounting a link below base is a structural change:
  /// build a new engine.
  void set_weight(LinkId e, Wavelength lambda, double weight);

  /// Claims (e, λ): set_weight(e, λ, +inf).
  void reserve(LinkId e, Wavelength lambda) {
    set_weight(e, lambda, kInfiniteCost);
  }

  /// Current (patched) w(e, λ); +inf when λ ∉ base Λ(e) or patched out.
  [[nodiscard]] double weight(LinkId e, Wavelength lambda) const;

  // --- introspection --------------------------------------------------------

  struct Stats {
    std::uint64_t core_nodes = 0;          ///< gadget nodes of G'
    std::uint64_t core_links = 0;          ///< gadget + transmission links
    std::uint64_t transmission_slots = 0;  ///< patchable (e, λ) slots
    std::uint32_t landmarks = 0;           ///< ALT landmarks precomputed
    double build_seconds = 0.0;            ///< one-time flatten cost
    double landmark_seconds = 0.0;         ///< of which: landmark tables
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  [[nodiscard]] std::uint32_t num_nodes() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t num_wavelengths() const noexcept { return k_; }

 private:
  /// What a core CSR slot stands for: a transmission of `phys` on
  /// `from` (== `to`), or a conversion `from`→`to` at `node`.
  struct SlotInfo {
    LinkId phys;  ///< invalid for conversion slots
    NodeId node;  ///< conversion site (invalid for transmission slots)
    Wavelength from;
    Wavelength to;
  };

  [[nodiscard]] RouteResult trivial_self_route() const;
  /// Binary-searches the per-link transmission table for λ's (core slot,
  /// phys weight index); the core slot is kInvalidSlot when λ ∉ base Λ(e).
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> find_slot(
      LinkId e, Wavelength lambda) const;
  /// find_slot() that fails (REQUIRE) on a miss — a structural change
  /// needs a rebuild.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> locate(
      LinkId e, Wavelength lambda) const;
  /// Returns the per-physical-node potential row min(d_base(v, t), r) for
  /// the query (s, t), r = d_base(s, t).  Reuses the scratch's
  /// token-stamped row when s lies inside its ball; otherwise runs one
  /// reverse Dijkstra from t that stops when s settles.  `pops` receives
  /// that search's heap pops (0 on a hit).
  [[nodiscard]] const double* target_potential(NodeId s, NodeId t,
                                               SearchScratch& scratch,
                                               std::uint64_t& pops) const;

  std::uint32_t n_ = 0;  ///< physical nodes
  std::uint32_t k_ = 0;  ///< wavelength universe size

  // Semilightpath core: flattened G' plus seed/sink lists and metadata.
  std::unique_ptr<CsrDigraph> core_;
  std::vector<SlotInfo> slot_info_;             // per core slot
  std::vector<std::vector<NodeId>> sources_of_; // Y_v (aux node ids)
  std::vector<std::vector<NodeId>> sinks_of_;   // X_v (aux node ids)
  std::vector<std::uint32_t> core_phys_;        // core node -> physical node

  // Goal direction: base-weight lower-bound machinery.  All of it is
  // frozen at build time (see the residual-safety invariant above).
  LandmarkTables landmarks_;
  /// Reversed physical topology, each link weighted by its *base*
  /// cheapest-wavelength cost (the per-target potential's search graph).
  std::unique_ptr<CsrDigraph> rev_base_;
  /// Base (build-time) weight per core slot; set_weight's floor.
  std::vector<double> base_core_weights_;
  /// Identity token stamped into scratch-resident potential caches.
  std::uint64_t potential_token_ = 0;

  // Per-link sorted (λ, core transmission slot) table for O(log k0) patch
  // lookup; entries parallel a (λ, phys weight index) table.
  struct TransSlot {
    Wavelength lambda;
    std::uint32_t core_slot;
    std::uint32_t phys_weight_index;
  };
  std::vector<std::vector<TransSlot>> trans_slots_;  // per physical link

  // Lightpath cache: one CSR of the physical topology, shared by all
  // wavelengths; weight rows lw_[λ * phys_links + slot].
  std::unique_ptr<CsrDigraph> phys_;
  std::vector<double> lightpath_weights_;

  Stats stats_;
  SearchScratch scratch_;  // backs the scratch-less query overloads
};

}  // namespace lumen

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
//     Dijkstra from t that stops after a pop budget B = 6⌈√n⌉, at the
//     radius r_B its frontier reached: π_t(v) = min(d_base(v, t), r_B),
//     the min of two consistent potentials.  The row depends on t alone,
//     so it is built at most once per target and published write-once
//     in a table that every copy of the engine shares (a copy shares all
//     build-time structure and keeps only its own patched weights);
//     every later query to t, from any source, thread or copy, expands
//     it in O(B) (stats potential_pops; 0 when the row already existed).
//     Engines built with num_landmarks > 0 max-combine ALT landmark
//     bounds into π_t.  The default builds none: an ALT bound never
//     exceeds d_base(v, t), so it can only lift nodes outside the ball
//     above r_B, and that did not pay for its table lookups (E17 and the
//     svc-sparse-mt runs in docs/PERFORMANCE.md).
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
#include "wdm/network.h"

namespace lumen {

/// Answers repeated (semi)lightpath queries over one network, amortizing
/// construction.  The engine copies everything it needs at build time, so
/// the source network need not outlive it; keeping the engine's patched
/// weights in sync with a mutating residual network is the caller's job
/// (SessionManager does this for every policy).  A copy is a replica: it
/// shares the build-time structure and the per-target potential rows
/// (write-once, safe to build from any thread) and copies only the
/// current weights, which it then patches on its own — O(km), no core
/// rebuild.
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
  /// worker owns a scratch, and goal-directed workers share the engine's
  /// per-target potential rows, so a batch builds each target's row once
  /// whatever its order.
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
  [[nodiscard]] RouteResult trivial_self_route() const;
  /// Binary-searches the per-link transmission table for λ's (core slot,
  /// phys weight index); the core slot is kInvalidSlot when λ ∉ base Λ(e).
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> find_slot(
      LinkId e, Wavelength lambda) const;
  /// find_slot() that fails (REQUIRE) on a miss — a structural change
  /// needs a rebuild.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> locate(
      LinkId e, Wavelength lambda) const;
  /// Expands t's potential row into the scratch's target table and
  /// returns it: the node's potential is min(dist[v], radius).  Builds
  /// and publishes the row on the first query to t in this engine family
  /// (`pops` receives that budgeted reverse search's heap pops, 0
  /// otherwise) and skips the expansion when the scratch already holds it.
  [[nodiscard]] const SearchScratch::TargetPotential& target_potential(
      NodeId t, SearchScratch& scratch, std::uint64_t& pops) const;

  /// Build-time structure that no weight patch touches, plus the
  /// write-once potential rows; shared by every copy (route_engine.cc).
  struct Frozen;

  std::uint32_t n_ = 0;  ///< physical nodes
  std::uint32_t k_ = 0;  ///< wavelength universe size
  std::shared_ptr<const Frozen> frozen_;

  /// This copy's current weight per core slot (the core's own weights
  /// stay the build-time base, set_weight's floor).
  AlignedVector<double> core_weights_;
  /// Lightpath weight rows over the shared physical CSR:
  /// lightpath_weights_[λ * phys_links + slot].
  std::vector<double> lightpath_weights_;

  Stats stats_;
  SearchScratch scratch_;  // backs the scratch-less query overloads
};

}  // namespace lumen

// Result and instrumentation types shared by all routers.
#pragma once

#include <cstdint>
#include <vector>

#include "wdm/semilightpath.h"

namespace lumen {

/// Size and effort instrumentation for one routing run.  The size fields
/// let tests check the paper's Observations 1–5 and benches expose the
/// structural difference between the Liang–Shen and CFZ constructions.
/// The routers' obs::CausalSpans time the operational stages (build,
/// search, path extraction); see docs/OBSERVABILITY.md.
struct RouteStats {
  /// Nodes in the auxiliary graph actually searched.
  std::uint64_t aux_nodes = 0;
  /// Links in the auxiliary graph actually searched.
  std::uint64_t aux_links = 0;
  /// Wavelength subnetworks searched (lightpath routing only: one Dijkstra
  /// per wavelength; 0 for single-search semilightpath routing).
  std::uint64_t wavelengths_searched = 0;
  /// Heap pops during the shortest-path search.  0 when a RouteEngine
  /// query refused before searching because an endpoint is saturated
  /// (every slot out of s or into t reserved or failed); that refusal
  /// also builds no potential row (potential_pops = 0).
  std::uint64_t search_pops = 0;
  /// Nodes settled by the search (== search_pops for the heap codes here,
  /// which never lazy-delete; kept explicit so goal-directed and plain
  /// searches report comparable effort).
  std::uint64_t search_settled = 0;
  /// Successful relaxations during the search.
  std::uint64_t search_relaxations = 0;
  /// Relaxations skipped because a goal-directed potential proved the
  /// node cannot reach the target (0 for uninformed searches).
  std::uint64_t search_pruned = 0;
  /// Heap pops of the per-target reverse search a goal-directed engine
  /// query ran to build its potential (0 on a cache hit, and for every
  /// uninformed search).
  std::uint64_t potential_pops = 0;
  /// Seconds spent building the auxiliary graph.
  double build_seconds = 0.0;
  /// Seconds spent in the shortest-path search.
  double search_seconds = 0.0;

  [[nodiscard]] double total_seconds() const noexcept {
    return build_seconds + search_seconds;
  }
};

/// The outcome of a single-pair routing query.
struct RouteResult {
  /// True when a semilightpath from s to t exists.
  bool found = false;
  /// C(P) of the optimal semilightpath (kInfiniteCost when !found).
  double cost = 0.0;
  /// The optimal semilightpath (empty when !found, or when s == t).
  Semilightpath path;
  /// Wavelength-conversion switch settings along the path.
  std::vector<SwitchSetting> switches;
  /// Instrumentation.
  RouteStats stats;
};

}  // namespace lumen

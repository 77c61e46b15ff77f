// The Liang–Shen optimal semilightpath algorithm (Theorem 1).
//
// route_semilightpath lays out G' for one request (core/layout.h) and runs
// Dijkstra (Fibonacci heap by default) from s' to t'' of its PairGraph.
// The gadget links x_v(λ) -> y_v(λ') are generated from c_v when the
// search settles x_v(λ), in the order the materialised graph lists them,
// so the search is Dijkstra on G_{s,t} exactly: same optimum, same pops,
// same hops.  The build is a few O(|E_M| + n) counting-sort passes over
// E_M (|E_M| <= km), one λ pass while every λ < |E_M|; the k² gadget term
// is paid only for settled X-nodes, O(k²n + km + kn log(kn)) in the worst
// case.  With |Λ(e)| <= k_0 that meets Theorem 4's O(d²nk_0² + mk_0 log n),
// independent of the universe size k, because Λ is never enumerated and
// no array is sized by k.
//
// RouteStats::aux_nodes is |V'|; aux_links counts the links the search saw
// (PairGraph::links_searched).  route_on_aux searches a materialised
// AuxiliaryGraph instead: the paper's construction (E1/E3), and the
// reference route_semilightpath is tested against.
#pragma once

#include "core/aux_graph.h"
#include "core/route_types.h"
#include "wdm/network.h"

namespace lumen {

/// Heap used inside the Dijkstra phase (the bench E8 ablation axis).
enum class HeapKind {
  kFibonacci,   ///< Fredman–Tarjan heap: the paper's choice
  kBinary,      ///< classic 2-ary array heap
  kQuaternary,  ///< cache-friendlier 4-ary array heap
  kPairing,     ///< self-adjusting pairing heap
};

/// Finds the optimal semilightpath from s to t (Theorem 1).
///
/// Returns found=false when no semilightpath exists.  s == t yields an
/// empty path of cost 0.  The result carries the wavelength assignment on
/// every hop and the switch settings at conversion nodes.
[[nodiscard]] RouteResult route_semilightpath(
    const WdmNetwork& net, NodeId s, NodeId t,
    HeapKind heap = HeapKind::kFibonacci);

/// As route_semilightpath, but searches a prebuilt, materialised
/// single-pair auxiliary graph (the caller owns the build cost; useful for
/// benches that separate construction from search).  aux_links is then
/// the whole |E'|.
[[nodiscard]] RouteResult route_on_aux(const WdmNetwork& net,
                                       const AuxiliaryGraph& aux,
                                       HeapKind heap = HeapKind::kFibonacci);

/// Finds the optimal *lightpath* (single wavelength end-to-end, no
/// conversion) from s to t: one Dijkstra per wavelength on the subnetwork
/// where that wavelength is available.  Returns found=false when every
/// wavelength is blocked.  This is the classic wavelength-continuity
/// routing the semilightpath model generalizes.
[[nodiscard]] RouteResult route_lightpath(const WdmNetwork& net, NodeId s,
                                          NodeId t);

}  // namespace lumen

// Conversion-budget-constrained semilightpath routing (extension).
//
// The paper motivates semilightpaths with physical limits — lightwave
// dispersion, limited transceivers — and the same physics bounds how many
// opto-electronic conversions a signal tolerates end-to-end.  This router
// finds the cheapest semilightpath using at most `max_conversions`
// wavelength switches.  It runs route_semilightpath's search of G_{s,t}
// (core/layout.h) first; if its optimum makes c* conversions and the
// budget C ≥ c*, that optimum is the answer.  Otherwise a Dijkstra over
// the product of G_{s,t} with the budget (layers 0..C) finds it, a real
// conversion being a gadget link with λ != λ'.  That multiplies Theorem
// 1's cost by C + 1 < c* + 1; an unreachable t needs no product search.
//
//   budget 0    == optimal pure lightpath
//   budget ≥ c* == the unconstrained Theorem 1 optimum (the same search,
//                  pops, cost and path as route_semilightpath)
//
// The full cost profile (optimal cost per budget) is also exposed; its
// marginal improvements quantify what each additional converter stage
// buys — an ablation DESIGN.md tracks.
#pragma once

#include <cstdint>
#include <vector>

#include "core/route_types.h"
#include "wdm/network.h"

namespace lumen {

/// Optimal semilightpath from s to t with at most `max_conversions`
/// wavelength switches.  Result contract matches route_semilightpath;
/// found == false also covers "reachable, but not within budget".
[[nodiscard]] RouteResult route_semilightpath_bounded(
    const WdmNetwork& net, NodeId s, NodeId t, std::uint32_t max_conversions);

/// profile[c] = optimal cost using at most c conversions, for
/// c = 0..max_conversions (kInfiniteCost where infeasible; entries past
/// c* repeat the optimum).  Computed in one constrained Dijkstra of
/// min(max_conversions, c*) + 1 layers after the unconstrained one, not
/// max_conversions+1 separate runs.  Requires
/// max_conversions < 2^32 - 1.
[[nodiscard]] std::vector<double> conversion_cost_profile(
    const WdmNetwork& net, NodeId s, NodeId t, std::uint32_t max_conversions);

}  // namespace lumen

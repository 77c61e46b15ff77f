// Capacity planning: how many wavelengths does a demand set need?
//
//   $ ./capacity_planning [num_demands] [seed]
//
// The planning workflow, end to end: generate gravity-model traffic for
// NSFNET, compute the conflict-graph lower bound for the routed paths,
// then sweep installed wavelength counts k and batch-provision the whole
// set (longest-demands-first) until everything is carried — reporting the
// carried fraction and residual fragmentation at each k.  Exercises the
// gravity workload, batch provisioning, wavelength-assignment bounds, and
// the metrics module together.
#include <cstdio>
#include <memory>

#include "core/liang_shen.h"
#include "rwa/batch.h"
#include "rwa/wavelength_assignment.h"
#include "topo/topologies.h"
#include "topo/wavelengths.h"
#include "util/parse.h"
#include "util/table.h"
#include "wdm/metrics.h"

using namespace lumen;

int main(int argc, char** argv) {
  std::uint32_t num_demands = 60;
  std::uint64_t seed = 5;
  if (!parse_positional(argc, argv, num_demands, seed)) {
    std::fprintf(stderr, "usage: %s [num_demands] [seed]\n", argv[0]);
    return 2;
  }

  const Topology topo = nsfnet_topology();
  Rng demand_rng(seed);
  const auto demands = gravity_demands(topo, num_demands, demand_rng);

  // Phase 1: the static lower bound.  Route every demand on a bare
  // single-wavelength substrate and bound the wavelength need by the
  // conflict structure of the chosen paths.
  Rng rng(seed ^ 0xfaceULL);
  const auto probe = assemble_network(
      topo, 1, full_availability(topo, 1, CostSpec::unit(), rng),
      std::make_shared<NoConversion>());
  std::vector<RoutedPath> routed;
  for (const auto& [s, t] : demands) {
    const RouteResult r = route_semilightpath(probe, s, t);
    if (!r.found) continue;
    RoutedPath p;
    for (const Hop& hop : r.path.hops()) p.links.push_back(hop.link);
    routed.push_back(std::move(p));
  }
  const std::uint32_t congestion = congestion_lower_bound(routed);
  const auto coloring = assign_wavelengths(routed, AssignmentHeuristic::kDsatur);
  std::printf("NSFNET, %u gravity demands: link congestion bound %u, "
              "DSATUR coloring of shortest-path routes uses %u wavelengths\n\n",
              num_demands, congestion, coloring.wavelengths_used);

  // Phase 2: dynamic check — provision the batch with conversion-capable
  // routing at each candidate k and report what actually fits.
  Table table({"k installed", "carried", "blocked", "utilization %",
               "continuity alignment"});
  for (std::uint32_t k = congestion / 2 + 1; k <= coloring.wavelengths_used + 2;
       ++k) {
    Rng avail_rng(seed ^ k);
    SessionManager manager(
        assemble_network(topo, k,
                         full_availability(topo, k, CostSpec::unit(),
                                           avail_rng),
                         std::make_shared<UniformConversion>(0.1)),
        RoutingPolicy::kSemilightpathEngine);
    const auto result =
        provision_batch(manager, demands, DemandOrder::kLongestFirst);
    const NetworkMetrics metrics = compute_metrics(manager.residual());
    table.add_row({fmt_int(k), fmt_int(result.carried),
                   fmt_int(result.blocked),
                   fmt_double(100.0 * manager.wavelength_utilization(), 1),
                   fmt_double(metrics.continuity_alignment, 3)});
    if (result.blocked == 0) break;  // found the smallest sufficient k
  }
  std::printf("%s\nthe first row with 0 blocked is the smallest installed "
              "capacity that carries the full set with conversion; compare "
              "it to the wavelength-continuity bounds above.\n",
              table.to_markdown().c_str());
  return 0;
}

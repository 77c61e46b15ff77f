// Distributed semilightpath routing (Theorem 3) on a wide-area topology.
//
//   $ ./distributed_routing [n] [seed]
//
// Builds a Waxman WAN, runs the synchronous distributed protocol for a few
// demands, and compares its answers and measured message/round counts with
// the centralized router and with the paper's O(km) / O(kn) bounds.
#include <cstdio>
#include <memory>

#include "core/liang_shen.h"
#include "dist/dist_router.h"
#include "topo/topologies.h"
#include "topo/wavelengths.h"
#include "util/parse.h"
#include "util/table.h"

using namespace lumen;

int main(int argc, char** argv) {
  std::uint32_t n = 60;
  std::uint64_t seed = 7;
  if (!parse_positional(argc, argv, n, seed) || n < 2) {
    std::fprintf(stderr, "usage: %s [n >= 2] [seed]\n", argv[0]);
    return 2;
  }

  constexpr std::uint32_t kWavelengths = 8;
  constexpr std::uint32_t kK0 = 4;
  Rng rng(seed);
  const Topology topo = waxman_topology(n, 0.4, 0.2, rng);
  const Availability avail = uniform_availability(
      topo, kWavelengths, 2, kK0, CostSpec::distance(10.0), rng);
  const auto net = assemble_network(
      topo, kWavelengths, avail,
      std::make_shared<RangeLimitedConversion>(3, 0.2, 0.1));

  const std::uint64_t km = static_cast<std::uint64_t>(kWavelengths) *
                           net.num_links();
  std::printf("Waxman WAN: n=%u m=%u k=%u k0=%u; Theorem 3 bounds: "
              "O(km)=O(%llu) messages, O(kn)=O(%llu) rounds\n\n",
              net.num_nodes(), net.num_links(), kWavelengths, net.k0(),
              static_cast<unsigned long long>(km),
              static_cast<unsigned long long>(
                  static_cast<std::uint64_t>(kWavelengths) * n));

  Table table({"demand", "centralized cost", "distributed cost", "messages",
               "rounds", "messages/km"});
  Rng demand_rng(seed ^ 0x1234ULL);
  for (const auto& [s, t] : random_demands(n, 8, demand_rng)) {
    const RouteResult central = route_semilightpath(net, s, t);
    const DistRouteResult dist = distributed_route_semilightpath(net, s, t);
    char label[32];
    std::snprintf(label, sizeof label, "%u -> %u", s.value(), t.value());
    table.add_row(
        {label, central.found ? fmt_double(central.cost, 3) : "blocked",
         dist.found ? fmt_double(dist.cost, 3) : "blocked",
         fmt_int(static_cast<std::int64_t>(dist.messages)),
         fmt_int(static_cast<std::int64_t>(dist.rounds)),
         fmt_double(static_cast<double>(dist.messages) /
                        static_cast<double>(km),
                    3)});
    if (central.found && dist.found &&
        std::abs(central.cost - dist.cost) > 1e-9) {
      std::printf("MISMATCH on %s!\n", label);
      return 1;
    }
  }
  std::printf("%s\n", table.to_markdown().c_str());
  std::printf("distributed and centralized optima agree on every demand; "
              "message totals sit well inside the O(km) envelope.\n");
  return 0;
}

// Ranked alternative semilightpaths for protection routing.
//
//   $ ./protection_alternatives [K] [seed]
//
// Provisioning a protected connection needs a working path plus fallbacks
// that are ready if provisioning races or failures invalidate the first
// choice.  This demo ranks the K cheapest semilightpaths on NSFNET and
// highlights how alternatives differ — sometimes a different physical
// route, sometimes the same route on different wavelengths or with
// different conversion points.
#include <cstdio>
#include <memory>

#include "core/k_shortest.h"
#include "topo/topologies.h"
#include "topo/wavelengths.h"
#include "util/parse.h"
#include "util/table.h"

using namespace lumen;

int main(int argc, char** argv) {
  std::uint32_t K = 6;
  std::uint64_t seed = 4;
  if (!parse_positional(argc, argv, K, seed) || K < 1) {
    std::fprintf(stderr, "usage: %s [K >= 1] [seed]\n", argv[0]);
    return 2;
  }

  constexpr std::uint32_t kWavelengths = 6;
  Rng rng(seed);
  const Topology topo = nsfnet_topology();
  const Availability avail = uniform_availability(
      topo, kWavelengths, 2, 4, CostSpec::distance(10.0), rng);
  const auto net = assemble_network(
      topo, kWavelengths, avail, std::make_shared<UniformConversion>(0.4));

  const NodeId s{0 /* Seattle */}, t{13 /* Princeton */};
  const auto ranked = k_shortest_semilightpaths(net, s, t, K);
  if (ranked.empty()) {
    std::printf("no semilightpath from %u to %u\n", s.value(), t.value());
    return 1;
  }

  std::printf("top %zu semilightpaths %u -> %u on NSFNET (k=%u):\n\n",
              ranked.size(), s.value(), t.value(), kWavelengths);
  Table table({"rank", "cost", "hops", "conversions", "route"});
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const auto& route = ranked[i];
    table.add_row({fmt_int(static_cast<std::int64_t>(i + 1)),
                   fmt_double(route.cost, 3),
                   fmt_int(static_cast<std::int64_t>(route.path.length())),
                   fmt_int(route.path.num_conversions()),
                   route.path.to_string(net)});
  }
  std::printf("%s\n", table.to_markdown().c_str());

  const double premium =
      ranked.size() > 1
          ? 100.0 * (ranked.back().cost - ranked.front().cost) /
                ranked.front().cost
          : 0.0;
  std::printf("the %zu-th alternative costs %.1f%% more than the optimum — "
              "the protection premium.\n",
              ranked.size(), premium);
  return 0;
}

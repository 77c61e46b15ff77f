// NSFNET demand routing under contention.
//
// The scenario the paper's introduction motivates: a realistic WAN where
// existing lightpaths occupy wavelengths, so new demands often cannot find
// a wavelength-continuous path and must convert at intermediate nodes.
//
//   $ ./nsfnet_demands [num_interferers] [num_demands] [seed]
//
// Routes a batch of demands twice — as pure lightpaths and as
// semilightpaths — and reports blocking rates, mean costs, and conversion
// usage.
#include <cstdio>
#include <memory>

#include "core/liang_shen.h"
#include "topo/topologies.h"
#include "topo/wavelengths.h"
#include "util/parse.h"
#include "util/stats.h"
#include "util/table.h"

using namespace lumen;

int main(int argc, char** argv) {
  std::uint32_t interferers = 150;
  std::uint32_t num_demands = 100;
  std::uint64_t seed = 2026;
  if (!parse_positional(argc, argv, interferers, num_demands, seed)) {
    std::fprintf(stderr,
                 "usage: %s [num_interferers] [num_demands] [seed]\n",
                 argv[0]);
    return 2;
  }

  constexpr std::uint32_t kWavelengths = 8;
  Rng rng(seed);
  const Topology topo = nsfnet_topology();
  // Pre-route `interferers` lightpath demands; what they consume is gone.
  const Availability avail = occupancy_availability(
      topo, kWavelengths, interferers, CostSpec::distance(10.0), rng);
  const auto net = assemble_network(
      topo, kWavelengths, avail, std::make_shared<UniformConversion>(0.5));

  std::uint64_t remaining = 0;
  for (std::uint32_t e = 0; e < net.num_links(); ++e)
    remaining += net.num_available(LinkId{e});
  std::printf("NSFNET: %u nodes, %u links, k=%u; after %u interfering "
              "lightpaths %llu/%llu (link,λ) pairs remain free\n\n",
              net.num_nodes(), net.num_links(), kWavelengths, interferers,
              static_cast<unsigned long long>(remaining),
              static_cast<unsigned long long>(net.num_links()) * kWavelengths);

  std::uint32_t light_ok = 0, semi_ok = 0;
  RunningStats light_cost, semi_cost, conversions;
  Rng demand_rng(seed ^ 0xbeefULL);
  for (const auto& [s, t] : random_demands(net.num_nodes(), num_demands,
                                           demand_rng)) {
    const RouteResult light = route_lightpath(net, s, t);
    const RouteResult semi = route_semilightpath(net, s, t);
    if (light.found) {
      ++light_ok;
      light_cost.add(light.cost);
    }
    if (semi.found) {
      ++semi_ok;
      semi_cost.add(semi.cost);
      conversions.add(semi.path.num_conversions());
    }
  }

  Table table({"routing mode", "carried", "blocked", "blocking %",
               "mean cost", "mean conversions"});
  table.add_row({"lightpath (no conversion)", fmt_int(light_ok),
                 fmt_int(num_demands - light_ok),
                 fmt_double(100.0 * (num_demands - light_ok) / num_demands, 1),
                 light_ok ? fmt_double(light_cost.mean(), 2) : "-", "0"});
  table.add_row({"semilightpath (Liang–Shen)", fmt_int(semi_ok),
                 fmt_int(num_demands - semi_ok),
                 fmt_double(100.0 * (num_demands - semi_ok) / num_demands, 1),
                 semi_ok ? fmt_double(semi_cost.mean(), 2) : "-",
                 semi_ok ? fmt_double(conversions.mean(), 2) : "-"});
  std::printf("%s\n", table.to_markdown().c_str());

  std::printf("wavelength conversion rescued %u demands that pure "
              "lightpath routing blocks.\n",
              semi_ok - light_ok);
  return 0;
}

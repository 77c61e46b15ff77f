// Multicast content distribution over a hierarchical metro/backbone WAN.
//
//   $ ./multicast_distribution [hubs] [ring_size] [seed]
//
// A content source at one hub feeds subscribers scattered across the metro
// rings.  Routing the whole group on one auxiliary shortest-path tree
// (core/multicast) keeps every leg individually optimal while shared tree
// prefixes carry one copy of the signal — the light-forest saving this
// demo quantifies against independent unicasts.
#include <cstdio>
#include <memory>

#include "core/multicast.h"
#include "topo/topologies.h"
#include "topo/wavelengths.h"
#include "util/parse.h"
#include "util/table.h"

using namespace lumen;

int main(int argc, char** argv) {
  std::uint32_t hubs = 5;
  std::uint32_t ring_size = 6;
  std::uint64_t seed = 3;
  if (!parse_positional(argc, argv, hubs, ring_size, seed) || hubs < 3 ||
      ring_size < 2) {
    std::fprintf(stderr, "usage: %s [hubs >= 3] [ring_size >= 2] [seed]\n",
                 argv[0]);
    return 2;
  }

  constexpr std::uint32_t kWavelengths = 8;
  Rng rng(seed);
  const Topology topo = hierarchical_topology(hubs, ring_size, hubs / 2, rng);
  const Availability avail = uniform_availability(
      topo, kWavelengths, 3, 6, CostSpec::distance(10.0), rng);
  const auto net = assemble_network(
      topo, kWavelengths, avail,
      std::make_shared<RangeLimitedConversion>(2, 0.3, 0.1));

  std::printf("hierarchical WAN: %u hubs x %u metro nodes = %u nodes, "
              "%u links, k=%u\n\n",
              hubs, ring_size, net.num_nodes(), net.num_links(),
              kWavelengths);

  // Source at hub 0; subscribers cluster in two remote metro rings, so
  // their backbone legs overlap (that overlap is the light-tree sharing).
  const NodeId source{0};
  std::vector<NodeId> subscribers;
  for (const std::uint32_t h : {hubs / 2, hubs / 2 + 1}) {
    for (std::uint32_t i = 0; i < ring_size; i += 2) {
      subscribers.push_back(NodeId{hubs + h * ring_size + i});
    }
  }

  const MulticastResult mc = route_multicast(net, source, subscribers);
  Table table({"subscriber", "reached", "cost", "hops", "conversions"});
  for (const MulticastLeg& leg : mc.legs) {
    table.add_row({fmt_int(leg.destination.value()),
                   leg.reached ? "yes" : "NO",
                   leg.reached ? fmt_double(leg.cost, 3) : "-",
                   fmt_int(static_cast<std::int64_t>(leg.path.length())),
                   fmt_int(leg.path.num_conversions())});
  }
  std::printf("%s\n", table.to_markdown().c_str());

  std::printf("forest provisions %llu (link,λ) pairs; independent unicasts "
              "would need %llu — sharing saves %llu (%.0f%%).\n",
              static_cast<unsigned long long>(mc.tree_resources),
              static_cast<unsigned long long>(mc.unicast_resources),
              static_cast<unsigned long long>(mc.sharing()),
              mc.unicast_resources
                  ? 100.0 * static_cast<double>(mc.sharing()) /
                        static_cast<double>(mc.unicast_resources)
                  : 0.0);
  return mc.all_reached ? 0 : 1;
}

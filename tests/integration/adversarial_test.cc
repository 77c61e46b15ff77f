// Adversarial instances through every router: n = 1, isolated nodes,
// self-loops, parallel links, zero-cost links and conversions, all-∞
// conversion, and k = 1024 with k₀ = 1.  For every ordered pair (s == t
// included) each semilightpath router must agree with the state-space
// oracle on found and cost, and the per-request lightpath router with the
// engine's lightpath query.  A query rejected with lumen::Error is
// acceptable; a crash, another exception or a disagreement is a bug.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/all_pairs.h"
#include "core/cfz.h"
#include "core/liang_shen.h"
#include "core/route_engine.h"
#include "core/state_dijkstra.h"
#include "dist/dist_router.h"
#include "graph/dijkstra.h"
#include "topo/topologies.h"
#include "topo/wavelengths.h"
#include "util/error.h"
#include "util/rng.h"
#include "wdm/conversion.h"
#include "wdm/network.h"

namespace lumen {
namespace {

struct Instance {
  std::string name;
  WdmNetwork net;
};

std::shared_ptr<const ConversionModel> uniform(double c) {
  return std::make_shared<UniformConversion>(c);
}

void link(WdmNetwork& net, std::uint32_t u, std::uint32_t v,
          std::uint32_t lambda, double cost) {
  const LinkId e = net.add_link(NodeId{u}, NodeId{v});
  net.set_wavelength(e, Wavelength{lambda}, cost);
}

std::vector<Instance> adversarial_instances() {
  std::vector<Instance> out;

  // n = 1: the only query is s == t, with and without a self-loop.
  out.push_back({"n=1", WdmNetwork(1, 2, uniform(0.5))});
  {
    WdmNetwork net(1, 2, uniform(0.5));
    link(net, 0, 0, 1, 1.0);
    out.push_back({"n=1 self-loop", std::move(net)});
  }

  // Isolated nodes: a 3-cycle plus two nodes with no links at all.
  {
    WdmNetwork net(5, 2, uniform(0.5));
    link(net, 0, 1, 0, 1.0);
    link(net, 1, 2, 1, 1.0);
    link(net, 2, 0, 0, 2.0);
    out.push_back({"isolated nodes", std::move(net)});
  }

  // Self-loops on every node of a ring, cheaper than any real hop and on
  // wavelengths that would save a conversion if a loop could be used.
  {
    WdmNetwork net(4, 3, uniform(0.25));
    for (std::uint32_t v = 0; v < 4; ++v) {
      link(net, v, (v + 1) % 4, v % 3, 1.0);
      const LinkId loop = net.add_link(NodeId{v}, NodeId{v});
      for (std::uint32_t l = 0; l < 3; ++l)
        net.set_wavelength(loop, Wavelength{l}, l == 0 ? 0.0 : 0.1);
    }
    out.push_back({"self-loops", std::move(net)});
  }

  // Parallel links: three 0 -> 1 links whose cheapest hop depends on the
  // wavelength the next link needs, and a parallel pair back.
  {
    WdmNetwork net(3, 3, uniform(0.3));
    link(net, 0, 1, 0, 1.0);
    link(net, 0, 1, 1, 0.5);
    link(net, 0, 1, 2, 2.0);
    link(net, 1, 2, 2, 1.0);
    link(net, 2, 0, 0, 1.0);
    link(net, 2, 0, 0, 0.25);
    out.push_back({"parallel links", std::move(net)});
  }

  // Zero-cost links and conversions: every reachable pair costs 0.
  {
    Rng rng(11);
    const Topology topo = random_sparse_topology(8, 6, rng);
    const Availability avail = uniform_availability(
        topo, 3, 1, 2, CostSpec::uniform(0.0, 0.0), rng);
    out.push_back(
        {"zero costs", assemble_network(topo, 3, avail, uniform(0.0))});
  }

  // All-∞ conversion: a matrix model with every entry left at +∞, over
  // links that alternate wavelengths, so most pairs need a lightpath.
  {
    WdmNetwork net(5, 2, std::make_shared<MatrixConversion>(5, 2));
    for (std::uint32_t v = 0; v < 5; ++v) {
      link(net, v, (v + 1) % 5, v % 2, 1.0);
      link(net, (v + 1) % 5, v, 0, 3.0);
    }
    out.push_back({"all-inf conversion", std::move(net)});
  }

  // k = 1024 with k₀ = 1: each link carries one random wavelength, with
  // full conversion at one node, and with none.
  for (const bool converters : {true, false}) {
    Rng rng(converters ? 21 : 22);
    const Topology topo = random_sparse_topology(10, 8, rng);
    const Availability avail = uniform_availability(
        topo, 1024, 1, 1, CostSpec::uniform(0.5, 3.0), rng);
    std::shared_ptr<const ConversionModel> conversion =
        std::make_shared<NoConversion>();
    if (converters)
      conversion = std::make_shared<SparseConversion>(
          std::vector<NodeId>{NodeId{5}}, uniform(0.5));
    out.push_back({converters ? "k=1024 k0=1" : "k=1024 k0=1 no conversion",
                   assemble_network(topo, 1024, avail, conversion)});
  }
  return out;
}

/// One router's answer to one query.
struct Answer {
  bool rejected = false;
  bool found = false;
  double cost = 0.0;
};

Answer ask(const std::function<Answer()>& query) {
  try {
    return query();
  } catch (const Error& e) {
    fprintf(stderr, "REJECT %s\n", e.what());
    return Answer{.rejected = true};
  }
}

Answer of(const RouteResult& r) { return {false, r.found, r.cost}; }

void expect_agrees(const std::string& router, const Answer& got,
                   const Answer& want, std::uint32_t s, std::uint32_t t) {
  if (got.rejected) return;
  ASSERT_EQ(got.found, want.found) << router << " " << s << "->" << t;
  if (want.found) {
    EXPECT_NEAR(got.cost, want.cost, 1e-9) << router << " " << s << "->" << t;
  }
}

TEST(AdversarialTest, EveryRouterAgreesWithTheOracle) {
  for (const Instance& instance : adversarial_instances()) {
    SCOPED_TRACE(instance.name);
    const WdmNetwork& net = instance.net;
    RouteEngine engine(net);
    AllPairsRouter all_pairs(net);
    std::uint32_t answered = 0;
    for (std::uint32_t si = 0; si < net.num_nodes(); ++si) {
      for (std::uint32_t ti = 0; ti < net.num_nodes(); ++ti) {
        const NodeId s{si};
        const NodeId t{ti};
        const Answer oracle = of(state_dijkstra_route(net, s, t));
        expect_agrees("route_semilightpath",
                      ask([&] { return of(route_semilightpath(net, s, t)); }),
                      oracle, si, ti);
        expect_agrees(
            "engine",
            ask([&] { return of(engine.route_semilightpath(s, t)); }),
            oracle, si, ti);
        expect_agrees("engine goal-directed", ask([&] {
                        return of(engine.route_semilightpath(
                            s, t,
                            RouteEngine::QueryOptions{.goal_directed = true}));
                      }),
                      oracle, si, ti);
        expect_agrees("all_pairs", ask([&] {
                        const double c = all_pairs.cost(s, t);
                        return Answer{false, c < kInfiniteCost, c};
                      }),
                      oracle, si, ti);
        // CFZ scans all k² conversions of every node per query (about
        // 0.1 s at k = 1024), so large k runs one query.
        if (net.num_wavelengths() < 64 || (si == 0 && ti == 1))
          expect_agrees("cfz", ask([&] { return of(cfz_route(net, s, t)); }),
                        oracle, si, ti);
        expect_agrees("distributed", ask([&] {
                        const DistRouteResult r =
                            distributed_route_semilightpath(net, s, t);
                        return Answer{false, r.found, r.cost};
                      }),
                      oracle, si, ti);
        const Answer lightpath =
            ask([&] { return of(engine.route_lightpath(s, t)); });
        if (!lightpath.rejected)
          expect_agrees("route_lightpath",
                        ask([&] { return of(route_lightpath(net, s, t)); }),
                        lightpath, si, ti);
        if (oracle.found) ++answered;
      }
    }
    // The diagonal alone is routable everywhere; the oracle must find it.
    EXPECT_GE(answered, net.num_nodes());
  }
}

}  // namespace
}  // namespace lumen

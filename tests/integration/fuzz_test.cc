// Fuzz-style differential sweep: many random networks, including
// degenerate shapes, checked against the independent state-space oracle.
// Any disagreement or thrown invariant is a bug.
#include <gtest/gtest.h>

#include <memory>

#include "core/constrained.h"
#include "core/liang_shen.h"
#include "core/route_engine.h"
#include "core/state_dijkstra.h"
#include "dist/dist_router.h"
#include "tests/test_util.h"

namespace lumen {
namespace {

using testing::fuzz_network;

TEST(FuzzTest, RoutersAgreeWithOracleAcrossManySeeds) {
  std::uint32_t routed = 0;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    Rng rng(seed * 2654435761ULL + 17);
    const WdmNetwork net = fuzz_network(rng);
    const auto s =
        NodeId{static_cast<std::uint32_t>(rng.next_below(net.num_nodes()))};
    auto t =
        NodeId{static_cast<std::uint32_t>(rng.next_below(net.num_nodes()))};
    if (s == t) t = NodeId{(t.value() + 1) % net.num_nodes()};

    const auto oracle = state_dijkstra_route(net, s, t);
    const auto ls = route_semilightpath(net, s, t);
    const auto astar = RouteEngine(net).route_semilightpath(
        s, t, RouteEngine::QueryOptions{.goal_directed = true});
    const auto dist = distributed_route_semilightpath(net, s, t);

    ASSERT_EQ(ls.found, oracle.found) << "seed " << seed;
    ASSERT_EQ(astar.found, oracle.found) << "seed " << seed;
    ASSERT_EQ(dist.found, oracle.found) << "seed " << seed;
    if (!oracle.found) continue;
    ++routed;
    EXPECT_NEAR(ls.cost, oracle.cost, 1e-9) << "seed " << seed;
    EXPECT_NEAR(astar.cost, oracle.cost, 1e-9) << "seed " << seed;
    EXPECT_NEAR(dist.cost, oracle.cost, 1e-9) << "seed " << seed;
    EXPECT_TRUE(ls.path.is_valid(net)) << "seed " << seed;
    EXPECT_NEAR(ls.path.cost(net), ls.cost, 1e-9) << "seed " << seed;

    // The bounded router with a generous budget must agree too.
    const auto bounded = route_semilightpath_bounded(
        net, s, t, net.num_nodes() * net.num_wavelengths());
    ASSERT_TRUE(bounded.found) << "seed " << seed;
    EXPECT_NEAR(bounded.cost, oracle.cost, 1e-9) << "seed " << seed;
  }
  // The generator must not be degenerate-only: a healthy fraction of the
  // seeds produce routable instances (the rest exercise unreachable and
  // empty-availability paths).
  EXPECT_GE(routed, 25u);
}

TEST(FuzzTest, ZeroCostNetworksBehave) {
  // All-zero costs: every reachable pair has optimal cost 0; ties must not
  // break invariants anywhere.
  WdmNetwork net(6, 2, std::make_shared<UniformConversion>(0.0));
  Rng rng(99);
  for (int i = 0; i < 15; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.next_below(6));
    const auto v = static_cast<std::uint32_t>(rng.next_below(6));
    if (u == v) continue;
    const LinkId e = net.add_link(NodeId{u}, NodeId{v});
    net.set_wavelength(e, Wavelength{0}, 0.0);
    net.set_wavelength(e, Wavelength{1}, 0.0);
  }
  for (std::uint32_t s = 0; s < 6; ++s) {
    for (std::uint32_t t = 0; t < 6; ++t) {
      if (s == t) continue;
      const auto ls = route_semilightpath(net, NodeId{s}, NodeId{t});
      const auto oracle = state_dijkstra_route(net, NodeId{s}, NodeId{t});
      ASSERT_EQ(ls.found, oracle.found);
      if (ls.found) {
        EXPECT_DOUBLE_EQ(ls.cost, 0.0);
        EXPECT_DOUBLE_EQ(oracle.cost, 0.0);
      }
    }
  }
}

TEST(FuzzTest, SingleWavelengthNetworkIsPlainShortestPath) {
  // k = 1 degenerates to ordinary shortest paths; cross-check against
  // Dijkstra on the bare weighted digraph.
  Rng rng(77);
  WdmNetwork net(12, 1, std::make_shared<NoConversion>());
  Digraph bare(12);
  for (int i = 0; i < 40; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.next_below(12));
    const auto v = static_cast<std::uint32_t>(rng.next_below(12));
    if (u == v) continue;
    const double w = rng.next_double_in(0.5, 3.0);
    const LinkId e = net.add_link(NodeId{u}, NodeId{v});
    net.set_wavelength(e, Wavelength{0}, w);
    bare.add_link(NodeId{u}, NodeId{v}, w);
  }
  const auto tree = dijkstra(bare, NodeId{0});
  for (std::uint32_t t = 1; t < 12; ++t) {
    const auto r = route_semilightpath(net, NodeId{0}, NodeId{t});
    if (tree.dist[t] == kInfiniteCost) {
      EXPECT_FALSE(r.found);
    } else {
      ASSERT_TRUE(r.found);
      EXPECT_NEAR(r.cost, tree.dist[t], 1e-9);
    }
  }
}

}  // namespace
}  // namespace lumen

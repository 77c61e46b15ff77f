// The engine's goal-directed query (QueryOptions{goal_directed}) checked
// against the paper's per-request router: same optimum, fewer heap pops.
#include <gtest/gtest.h>

#include "core/liang_shen.h"
#include "core/route_engine.h"
#include "tests/test_util.h"

namespace lumen {
namespace {

using testing::ConvKind;
using testing::random_network;

constexpr RouteEngine::QueryOptions kGoal{.goal_directed = true};

TEST(GoalDirectedTest, MatchesDijkstraOnPaperExample) {
  const auto net = testing::paper_example_network();
  RouteEngine engine(net);
  for (std::uint32_t s = 0; s < 7; ++s) {
    for (std::uint32_t t = 0; t < 7; ++t) {
      const auto plain = route_semilightpath(net, NodeId{s}, NodeId{t});
      const auto astar =
          engine.route_semilightpath(NodeId{s}, NodeId{t}, kGoal);
      ASSERT_EQ(plain.found, astar.found) << s << "->" << t;
      if (plain.found) {
        EXPECT_NEAR(plain.cost, astar.cost, 1e-9) << s << "->" << t;
        EXPECT_TRUE(astar.path.is_valid(net));
        EXPECT_NEAR(astar.path.cost(net), astar.cost, 1e-9);
      }
    }
  }
}

class GoalDirectedRandomTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GoalDirectedRandomTest, SameOptimumFewerPops) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const auto net = random_network(60, 120, 6, 3, ConvKind::kUniform, rng);
  RouteEngine engine(net);
  std::uint64_t plain_pops = 0, astar_pops = 0;
  Rng pick(seed ^ 0xa57aULL);
  for (int trial = 0; trial < 10; ++trial) {
    const auto s = static_cast<std::uint32_t>(pick.next_below(60));
    auto t = static_cast<std::uint32_t>(pick.next_below(60));
    if (s == t) t = (t + 1) % 60;
    const auto plain = route_semilightpath(net, NodeId{s}, NodeId{t});
    const auto astar = engine.route_semilightpath(NodeId{s}, NodeId{t}, kGoal);
    ASSERT_EQ(plain.found, astar.found) << s << "->" << t;
    if (plain.found) {
      EXPECT_NEAR(plain.cost, astar.cost, 1e-9) << s << "->" << t;
    }
    plain_pops += plain.stats.search_pops;
    astar_pops += astar.stats.search_pops;
  }
  // A consistent potential never expands more settled nodes than Dijkstra.
  EXPECT_LE(astar_pops, plain_pops);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoalDirectedRandomTest,
                         ::testing::Values(201ULL, 202ULL, 203ULL, 204ULL,
                                           205ULL));

TEST(GoalDirectedTest, SelfRouteAndUnreachable) {
  const auto net = testing::paper_example_network();
  RouteEngine engine(net);
  const auto self = engine.route_semilightpath(NodeId{3}, NodeId{3}, kGoal);
  EXPECT_TRUE(self.found);
  EXPECT_DOUBLE_EQ(self.cost, 0.0);
  const auto unreachable =
      engine.route_semilightpath(NodeId{6}, NodeId{0}, kGoal);
  EXPECT_FALSE(unreachable.found);
  EXPECT_FALSE(route_semilightpath(net, NodeId{6}, NodeId{0}).found);
}

TEST(GoalDirectedTest, PrunesPhysicallyDeadBranches) {
  // A long appendix that cannot reach t: A* must not explore it at all.
  WdmNetwork net(12, 2, std::make_shared<UniformConversion>(0.1));
  // Chain 0 -> 1 -> 2 (the real route).
  for (std::uint32_t i = 0; i < 2; ++i) {
    const LinkId e = net.add_link(NodeId{i}, NodeId{i + 1});
    net.set_wavelength(e, Wavelength{0}, 1.0);
  }
  // Dead appendix 0 -> 3 -> 4 -> ... -> 11 (cheap but hits a dead end).
  {
    const LinkId e = net.add_link(NodeId{0}, NodeId{3});
    net.set_wavelength(e, Wavelength{0}, 0.01);
  }
  for (std::uint32_t i = 3; i < 11; ++i) {
    const LinkId e = net.add_link(NodeId{i}, NodeId{i + 1});
    net.set_wavelength(e, Wavelength{0}, 0.01);
  }
  RouteEngine engine(net);
  const auto plain = route_semilightpath(net, NodeId{0}, NodeId{2});
  const auto astar = engine.route_semilightpath(NodeId{0}, NodeId{2}, kGoal);
  ASSERT_TRUE(plain.found);
  ASSERT_TRUE(astar.found);
  EXPECT_NEAR(plain.cost, astar.cost, 1e-9);
  // Dijkstra wades through the cheap appendix; A* skips it (those nodes
  // have +inf potential).
  EXPECT_LT(astar.stats.search_pops, plain.stats.search_pops);
  EXPECT_LE(astar.stats.search_pops, 6u);
}

}  // namespace
}  // namespace lumen

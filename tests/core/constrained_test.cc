#include "core/constrained.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/aux_graph.h"
#include "core/liang_shen.h"
#include "tests/test_util.h"

namespace lumen {
namespace {

using testing::ConvKind;
using testing::random_network;

TEST(ConstrainedTest, BudgetZeroEqualsLightpathRouter) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Rng rng(seed);
    const auto net = random_network(20, 40, 5, 3, ConvKind::kUniform, rng);
    for (std::uint32_t t = 1; t < 20; t += 4) {
      const auto bounded =
          route_semilightpath_bounded(net, NodeId{0}, NodeId{t}, 0);
      const auto light = route_lightpath(net, NodeId{0}, NodeId{t});
      ASSERT_EQ(bounded.found, light.found) << "t=" << t << " seed " << seed;
      if (bounded.found) {
        EXPECT_NEAR(bounded.cost, light.cost, 1e-9);
        EXPECT_TRUE(bounded.path.is_lightpath());
      }
    }
  }
}

TEST(ConstrainedTest, LargeBudgetEqualsUnconstrained) {
  for (const std::uint64_t seed : {4ULL, 5ULL}) {
    Rng rng(seed);
    const auto net = random_network(15, 30, 4, 3, ConvKind::kRange, rng);
    for (std::uint32_t t = 1; t < 15; t += 3) {
      const auto bounded =
          route_semilightpath_bounded(net, NodeId{0}, NodeId{t}, 64);
      const auto free = route_semilightpath(net, NodeId{0}, NodeId{t});
      ASSERT_EQ(bounded.found, free.found) << "t=" << t;
      if (bounded.found) {
        EXPECT_NEAR(bounded.cost, free.cost, 1e-9);
      }
    }
  }
}

TEST(ConstrainedTest, BudgetEnforcedExactly) {
  // Chain forcing one conversion per hop boundary: 0-λ0->1-λ1->2-λ2->3.
  WdmNetwork net(4, 3, std::make_shared<UniformConversion>(0.1));
  for (std::uint32_t i = 0; i < 3; ++i) {
    const LinkId e = net.add_link(NodeId{i}, NodeId{i + 1});
    net.set_wavelength(e, Wavelength{i}, 1.0);
  }
  EXPECT_FALSE(
      route_semilightpath_bounded(net, NodeId{0}, NodeId{3}, 0).found);
  EXPECT_FALSE(
      route_semilightpath_bounded(net, NodeId{0}, NodeId{3}, 1).found);
  const auto two = route_semilightpath_bounded(net, NodeId{0}, NodeId{3}, 2);
  ASSERT_TRUE(two.found);
  EXPECT_EQ(two.path.num_conversions(), 2u);
  EXPECT_NEAR(two.cost, 3.0 + 0.2, 1e-9);
}

TEST(ConstrainedTest, ReturnedPathRespectsBudget) {
  Rng rng(6);
  const auto net = random_network(20, 40, 5, 3, ConvKind::kUniform, rng);
  for (std::uint32_t budget = 0; budget <= 3; ++budget) {
    for (std::uint32_t t = 1; t < 20; t += 5) {
      const auto r =
          route_semilightpath_bounded(net, NodeId{0}, NodeId{t}, budget);
      if (!r.found) continue;
      EXPECT_LE(r.path.num_conversions(), budget);
      EXPECT_TRUE(r.path.is_valid(net));
      EXPECT_NEAR(r.path.cost(net), r.cost, 1e-9);
    }
  }
}

TEST(ConstrainedTest, ProfileMonotoneAndConsistent) {
  Rng rng(7);
  const auto net = random_network(18, 36, 4, 2, ConvKind::kUniform, rng);
  for (std::uint32_t t = 1; t < 18; t += 4) {
    const auto profile =
        conversion_cost_profile(net, NodeId{0}, NodeId{t}, 5);
    ASSERT_EQ(profile.size(), 6u);
    for (std::size_t c = 1; c < profile.size(); ++c) {
      EXPECT_LE(profile[c], profile[c - 1] + 1e-12)
          << "profile must be non-increasing in the budget";
    }
    // Each entry matches the dedicated bounded router.
    for (std::uint32_t c = 0; c <= 5; ++c) {
      const auto r =
          route_semilightpath_bounded(net, NodeId{0}, NodeId{t}, c);
      if (r.found) {
        EXPECT_NEAR(profile[c], r.cost, 1e-9) << "c=" << c;
      } else {
        EXPECT_EQ(profile[c], kInfiniteCost) << "c=" << c;
      }
    }
    // Unconstrained optimum is the profile's floor (for big enough c).
    const auto free = route_semilightpath(net, NodeId{0}, NodeId{t});
    if (free.found) {
      EXPECT_GE(profile[5] + 1e-9, free.cost);
    }
  }
}

TEST(ConstrainedTest, SelfRouteAndPreconditions) {
  const auto net = testing::paper_example_network();
  const auto self = route_semilightpath_bounded(net, NodeId{2}, NodeId{2}, 0);
  EXPECT_TRUE(self.found);
  EXPECT_DOUBLE_EQ(self.cost, 0.0);
  const auto profile = conversion_cost_profile(net, NodeId{2}, NodeId{2}, 3);
  for (const double c : profile) EXPECT_DOUBLE_EQ(c, 0.0);
  EXPECT_THROW(
      (void)route_semilightpath_bounded(net, NodeId{9}, NodeId{0}, 1), Error);
}

TEST(ConstrainedTest, BudgetsPastTheConversionBoundAreClamped) {
  // A shortest auxiliary path leaves each X-node at most once, so budgets
  // at or above Σ_v |X_v| all give the unconstrained optimum, up to
  // UINT32_MAX, where budget + 1 wraps a 32-bit layer count to zero.
  for (const std::uint64_t seed : {8ULL, 9ULL}) {
    Rng rng(seed);
    const auto net = random_network(12, 24, 4, 3, ConvKind::kUniform, rng);
    for (std::uint32_t t = 1; t < 12; t += 3) {
      const auto aux =
          AuxiliaryGraph::build_single_pair(net, NodeId{0}, NodeId{t});
      std::uint32_t x_nodes = 0;
      for (std::uint32_t v = 0; v < net.num_nodes(); ++v)
        x_nodes += aux.x_size(NodeId{v});
      const auto free = route_semilightpath(net, NodeId{0}, NodeId{t});
      for (const std::uint32_t budget :
           {x_nodes, x_nodes + 7, std::numeric_limits<std::uint32_t>::max()}) {
        const auto bounded =
            route_semilightpath_bounded(net, NodeId{0}, NodeId{t}, budget);
        ASSERT_EQ(bounded.found, free.found) << "t=" << t;
        EXPECT_EQ(bounded.cost, free.cost) << "t=" << t << " C=" << budget;
      }
      // Profile entries past the clamp repeat the clamped value.
      const auto profile =
          conversion_cost_profile(net, NodeId{0}, NodeId{t}, x_nodes + 3);
      for (std::uint32_t c = x_nodes; c <= x_nodes + 3; ++c)
        EXPECT_EQ(profile[c], free.cost) << "t=" << t << " c=" << c;
    }
  }
  const auto net = testing::paper_example_network();
  EXPECT_THROW((void)conversion_cost_profile(
                   net, NodeId{0}, NodeId{6},
                   std::numeric_limits<std::uint32_t>::max()),
               Error);
}

TEST(ConstrainedTest, UnboundedBudgetSearchesOnlyTheOptimumsLayers) {
  // The unconstrained optimum's c* conversions bound every budget that
  // matters, so even budget UINT32_MAX searches at most c* + 1 layers of
  // G_{s,t}, not Σ_v |X_v| + 1 of them; an unreachable target needs none.
  Rng rng(28);
  const auto net = random_network(40, 120, 8, 4, ConvKind::kRange, rng);
  constexpr auto kUnbounded = std::numeric_limits<std::uint32_t>::max();
  int found = 0;
  for (std::uint32_t t = 1; t < 40; ++t) {
    const auto aux =
        AuxiliaryGraph::build_single_pair(net, NodeId{0}, NodeId{t});
    const std::uint64_t nodes = aux.stats().total_nodes();
    const auto free = route_semilightpath(net, NodeId{0}, NodeId{t});
    const auto bounded =
        route_semilightpath_bounded(net, NodeId{0}, NodeId{t}, kUnbounded);
    ASSERT_EQ(bounded.found, free.found) << "t=" << t;
    if (!free.found) {
      EXPECT_EQ(bounded.stats.aux_nodes, nodes) << "t=" << t;
      continue;
    }
    ++found;
    const std::uint32_t optimum = free.path.num_conversions();
    EXPECT_LE(bounded.stats.aux_nodes, nodes * (optimum + 1)) << "t=" << t;
    EXPECT_EQ(bounded.cost, free.cost) << "t=" << t;
    EXPECT_LE(bounded.path.num_conversions(), optimum) << "t=" << t;
    EXPECT_TRUE(bounded.path.is_valid(net)) << "t=" << t;
  }
  EXPECT_GT(found, 20);

  // Nothing enters node 2.
  WdmNetwork cut(3, 2, std::make_shared<UniformConversion>(0.5));
  cut.set_wavelength(cut.add_link(NodeId{0}, NodeId{1}), Wavelength{0}, 1.0);
  const auto none =
      route_semilightpath_bounded(cut, NodeId{0}, NodeId{2}, kUnbounded);
  EXPECT_FALSE(none.found);
  EXPECT_EQ(none.stats.aux_nodes,
            AuxiliaryGraph::build_single_pair(cut, NodeId{0}, NodeId{2})
                .stats()
                .total_nodes());
}

TEST(ConstrainedTest, BudgetsFromTheOptimumsConversionsReturnTheOptimum) {
  // A budget C >= c* admits the unconstrained optimum itself, so the
  // bounded router returns route_semilightpath's search: the same pops,
  // cost, path and switches, with no product search on top.  Below c*
  // the product search runs.
  Rng rng(29);
  const auto net = random_network(40, 120, 8, 4, ConvKind::kRange, rng);
  int found = 0;
  int converting = 0;
  for (std::uint32_t t = 1; t < 40; ++t) {
    const auto free = route_semilightpath(net, NodeId{0}, NodeId{t});
    if (!free.found) continue;
    ++found;
    const std::uint32_t optimum = free.path.num_conversions();
    for (const std::uint32_t budget :
         {optimum, optimum + 1, std::numeric_limits<std::uint32_t>::max()}) {
      const auto bounded =
          route_semilightpath_bounded(net, NodeId{0}, NodeId{t}, budget);
      const std::string context =
          "t=" + std::to_string(t) + " C=" + std::to_string(budget);
      ASSERT_TRUE(bounded.found) << context;
      EXPECT_EQ(bounded.stats.search_pops, free.stats.search_pops) << context;
      EXPECT_EQ(bounded.cost, free.cost) << context;
      EXPECT_EQ(bounded.path, free.path) << context;
      EXPECT_EQ(bounded.switches, free.switches) << context;
      EXPECT_EQ(bounded.stats.aux_nodes, free.stats.aux_nodes) << context;
    }
    if (optimum == 0) continue;
    ++converting;
    const auto tighter =
        route_semilightpath_bounded(net, NodeId{0}, NodeId{t}, optimum - 1);
    EXPECT_GT(tighter.stats.search_pops, free.stats.search_pops) << "t=" << t;
    if (tighter.found) {
      EXPECT_GE(tighter.cost, free.cost) << "t=" << t;
    }
  }
  EXPECT_GT(found, 20);
  EXPECT_GT(converting, 5);
}

TEST(ConstrainedTest, RevisitInstanceNeedsBudgetTwo) {
  // The Fig. 5 instance needs two conversions at w; budget 1 blocks it.
  auto conv = std::make_shared<MatrixConversion>(4, 3);
  conv->set(NodeId{1}, Wavelength{0}, Wavelength{1}, 0.1);
  conv->set(NodeId{1}, Wavelength{1}, Wavelength{2}, 0.1);
  WdmNetwork net(4, 3, std::move(conv));
  const LinkId sw = net.add_link(NodeId{0}, NodeId{1});
  net.set_wavelength(sw, Wavelength{0}, 1.0);
  const LinkId wa = net.add_link(NodeId{1}, NodeId{2});
  net.set_wavelength(wa, Wavelength{1}, 1.0);
  const LinkId aw = net.add_link(NodeId{2}, NodeId{1});
  net.set_wavelength(aw, Wavelength{1}, 1.0);
  const LinkId wt = net.add_link(NodeId{1}, NodeId{3});
  net.set_wavelength(wt, Wavelength{2}, 1.0);

  EXPECT_FALSE(
      route_semilightpath_bounded(net, NodeId{0}, NodeId{3}, 1).found);
  const auto two = route_semilightpath_bounded(net, NodeId{0}, NodeId{3}, 2);
  ASSERT_TRUE(two.found);
  EXPECT_TRUE(two.path.revisits_node(net));
}

}  // namespace
}  // namespace lumen

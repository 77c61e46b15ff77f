// Theorem 2 and the Fig. 5 scenario.
//
// Without restrictions, the optimal semilightpath may legitimately visit a
// node more than once (converting on each visit).  Under Restriction 1
// (conversion defined on all of Λ_in(v) × Λ_out(v)) and Restriction 2
// (every conversion cost < every link cost), Theorem 2 proves the optimum
// is node-simple.
#include <gtest/gtest.h>

#include <memory>

#include "core/brute_force.h"
#include "core/liang_shen.h"
#include "core/state_dijkstra.h"
#include "tests/test_util.h"

namespace lumen {
namespace {

using testing::random_network;
using testing::revisit_instance;

TEST(NodeRevisitTest, Fig5OptimumRevisitsNode) {
  const auto net = revisit_instance();
  const auto r = route_semilightpath(net, NodeId{0}, NodeId{3});
  ASSERT_TRUE(r.found);
  EXPECT_NEAR(r.cost, 4.0 + 0.2, 1e-9);  // 4 links + 2 conversions
  EXPECT_EQ(r.path.length(), 4u);
  EXPECT_TRUE(r.path.revisits_node(net));
  // Both conversions happen at w (= node 1).
  ASSERT_EQ(r.switches.size(), 2u);
  EXPECT_EQ(r.switches[0].node, NodeId{1});
  EXPECT_EQ(r.switches[1].node, NodeId{1});
  EXPECT_EQ(r.switches[0].from, Wavelength{0});
  EXPECT_EQ(r.switches[0].to, Wavelength{1});
  EXPECT_EQ(r.switches[1].from, Wavelength{1});
  EXPECT_EQ(r.switches[1].to, Wavelength{2});
}

TEST(NodeRevisitTest, OraclesAgreeOnRevisitInstance) {
  const auto net = revisit_instance();
  const auto ls = route_semilightpath(net, NodeId{0}, NodeId{3});
  const auto sd = state_dijkstra_route(net, NodeId{0}, NodeId{3});
  const auto bf = brute_force_route(net, NodeId{0}, NodeId{3}, 8);
  ASSERT_TRUE(sd.found);
  ASSERT_TRUE(bf.found);
  EXPECT_NEAR(ls.cost, sd.cost, 1e-9);
  EXPECT_NEAR(ls.cost, bf.cost, 1e-9);
  EXPECT_TRUE(bf.path.revisits_node(net));
}

TEST(NodeRevisitTest, AllowingDirectConversionRemovesRevisit) {
  // Same instance but with λ0→λ2 allowed at w (Restriction 1 restored and
  // conversion costs below link costs): the optimum becomes node-simple.
  auto conv = std::make_shared<MatrixConversion>(4, 3);
  conv->set(NodeId{1}, Wavelength{0}, Wavelength{1}, 0.1);
  conv->set(NodeId{1}, Wavelength{1}, Wavelength{2}, 0.1);
  conv->set(NodeId{1}, Wavelength{0}, Wavelength{2}, 0.1);
  WdmNetwork net(4, 3, std::move(conv));
  const LinkId sw = net.add_link(NodeId{0}, NodeId{1});
  net.set_wavelength(sw, Wavelength{0}, 1.0);
  const LinkId wa = net.add_link(NodeId{1}, NodeId{2});
  net.set_wavelength(wa, Wavelength{1}, 1.0);
  const LinkId aw = net.add_link(NodeId{2}, NodeId{1});
  net.set_wavelength(aw, Wavelength{1}, 1.0);
  const LinkId wt = net.add_link(NodeId{1}, NodeId{3});
  net.set_wavelength(wt, Wavelength{2}, 1.0);

  const auto r = route_semilightpath(net, NodeId{0}, NodeId{3});
  ASSERT_TRUE(r.found);
  EXPECT_NEAR(r.cost, 2.0 + 0.1, 1e-9);  // s->w->t with one conversion
  EXPECT_FALSE(r.path.revisits_node(net));
}

// Theorem 2 as a property: under Restrictions 1 and 2, optima are
// node-simple across random networks.
class Theorem2PropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(Theorem2PropertyTest, RestrictedOptimaAreNodeSimple) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  // UniformConversion(c) with c below every link cost satisfies both
  // restrictions: all pairs convertible (R1) and c < min w(e,λ) (R2).
  const Topology topo = random_sparse_topology(25, 50, rng);
  const Availability avail =
      uniform_availability(topo, 6, 1, 4, CostSpec::uniform(1.0, 3.0), rng);
  const auto net = assemble_network(topo, 6, avail,
                                    std::make_shared<UniformConversion>(0.05));
  ASSERT_LT(0.05, net.min_any_link_cost());  // Restriction 2 sanity

  Rng pick(seed ^ 0x777ULL);
  for (int trial = 0; trial < 20; ++trial) {
    const auto s = static_cast<std::uint32_t>(pick.next_below(25));
    auto t = static_cast<std::uint32_t>(pick.next_below(25));
    if (s == t) t = (t + 1) % 25;
    const auto r = route_semilightpath(net, NodeId{s}, NodeId{t});
    if (!r.found) continue;
    EXPECT_FALSE(r.path.revisits_node(net))
        << "seed " << seed << " " << s << "->" << t << ": "
        << r.path.to_string(net);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem2PropertyTest,
                         ::testing::Values(101ULL, 102ULL, 103ULL, 104ULL,
                                           105ULL, 106ULL, 107ULL, 108ULL));

TEST(NodeRevisitTest, RestrictionTwoViolationCanStillBeSimple) {
  // Theorem 2 gives a sufficient condition only; with big conversion costs
  // the optimum tends to avoid conversions altogether.  This documents the
  // one-directional nature of the claim rather than asserting a revisit.
  Rng rng(201);
  const auto net = random_network(15, 30, 4, 3, testing::ConvKind::kUniform,
                                  rng);
  const auto r = route_semilightpath(net, NodeId{0}, NodeId{5});
  if (r.found) {
    EXPECT_TRUE(r.path.is_valid(net));
  }
}

}  // namespace
}  // namespace lumen

#include "rwa/session_manager.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "tests/session_checks.h"
#include "tests/test_util.h"
#include "topo/topologies.h"
#include "topo/wavelengths.h"

namespace lumen {
namespace {

/// A tiny chain 0 -> 1 -> 2 with two wavelengths everywhere.
WdmNetwork chain_net(double conversion_cost = 0.25) {
  WdmNetwork net(3, 2, std::make_shared<UniformConversion>(conversion_cost));
  for (std::uint32_t i = 0; i < 2; ++i) {
    const LinkId e = net.add_link(NodeId{i}, NodeId{i + 1});
    net.set_wavelength(e, Wavelength{0}, 1.0);
    net.set_wavelength(e, Wavelength{1}, 1.0);
  }
  return net;
}

TEST(SessionManagerTest, OpenReservesResources) {
  SessionManager manager(chain_net(), RoutingPolicy::kSemilightpathEngine);
  EXPECT_DOUBLE_EQ(manager.wavelength_utilization(), 0.0);
  const auto id = manager.open(NodeId{0}, NodeId{2});
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(manager.active_sessions(), 1u);
  EXPECT_DOUBLE_EQ(manager.wavelength_utilization(), 0.5);  // 2 of 4 pairs
  const SessionRecord* record = manager.find(*id);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(record->active);
  EXPECT_EQ(record->path.length(), 2u);
  // The reserved wavelengths are gone from the residual network.
  for (const Hop& hop : record->path.hops())
    EXPECT_FALSE(manager.residual().is_available(hop.link, hop.wavelength));
}

TEST(SessionManagerTest, CapacityExhaustionBlocksThenReleaseRestores) {
  SessionManager manager(chain_net(), RoutingPolicy::kSemilightpathEngine);
  const auto first = manager.open(NodeId{0}, NodeId{2});
  const auto second = manager.open(NodeId{0}, NodeId{2});
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  // Both wavelengths on both links are now taken.
  const auto third = manager.open(NodeId{0}, NodeId{2});
  EXPECT_FALSE(third.has_value());
  EXPECT_EQ(manager.stats().blocked, 1u);

  ASSERT_TRUE(manager.close(*first));
  const auto fourth = manager.open(NodeId{0}, NodeId{2});
  EXPECT_TRUE(fourth.has_value());
  EXPECT_EQ(manager.stats().carried, 3u);
  EXPECT_EQ(manager.stats().offered, 4u);
}

TEST(SessionManagerTest, ReleaseRestoresOriginalCosts) {
  WdmNetwork net(2, 1, std::make_shared<NoConversion>());
  const LinkId e = net.add_link(NodeId{0}, NodeId{1});
  net.set_wavelength(e, Wavelength{0}, 3.75);
  SessionManager manager(std::move(net), RoutingPolicy::kSemilightpathEngine);
  const auto id = manager.open(NodeId{0}, NodeId{1});
  ASSERT_TRUE(id.has_value());
  EXPECT_FALSE(manager.residual().is_available(LinkId{0}, Wavelength{0}));
  ASSERT_TRUE(manager.close(*id));
  EXPECT_DOUBLE_EQ(manager.residual().link_cost(LinkId{0}, Wavelength{0}),
                   3.75);
  EXPECT_DOUBLE_EQ(manager.wavelength_utilization(), 0.0);
}

TEST(SessionManagerTest, DoubleCloseAndUnknownIdRejected) {
  SessionManager manager(chain_net(), RoutingPolicy::kSemilightpathEngine);
  const auto id = manager.open(NodeId{0}, NodeId{2});
  ASSERT_TRUE(id.has_value());
  EXPECT_TRUE(manager.close(*id));
  EXPECT_FALSE(manager.close(*id));            // already closed
  EXPECT_FALSE(manager.close(SessionId{99}));  // unknown
  EXPECT_EQ(manager.stats().released, 1u);
}

TEST(SessionManagerTest, PolicyLadderBlockingOrder) {
  // Force a wavelength-continuity conflict: 0->1 only λ0, 1->2 only λ1.
  auto make_conflict_net = [] {
    WdmNetwork net(3, 2, std::make_shared<UniformConversion>(0.1));
    const LinkId a = net.add_link(NodeId{0}, NodeId{1});
    net.set_wavelength(a, Wavelength{0}, 1.0);
    const LinkId b = net.add_link(NodeId{1}, NodeId{2});
    net.set_wavelength(b, Wavelength{1}, 1.0);
    return net;
  };
  SessionManager ff(make_conflict_net(), RoutingPolicy::kLightpathFirstFit);
  SessionManager best(make_conflict_net(), RoutingPolicy::kLightpathEngine);
  SessionManager semi(make_conflict_net(), RoutingPolicy::kSemilightpathEngine);
  EXPECT_FALSE(ff.open(NodeId{0}, NodeId{2}).has_value());
  EXPECT_FALSE(best.open(NodeId{0}, NodeId{2}).has_value());
  EXPECT_TRUE(semi.open(NodeId{0}, NodeId{2}).has_value());
}

TEST(SessionManagerTest, FirstFitPicksSmallestCommonWavelength) {
  WdmNetwork net(3, 3, std::make_shared<NoConversion>());
  const LinkId a = net.add_link(NodeId{0}, NodeId{1});
  const LinkId b = net.add_link(NodeId{1}, NodeId{2});
  // λ0 only on a, λ1 and λ2 on both.
  net.set_wavelength(a, Wavelength{0}, 1.0);
  for (const LinkId e : {a, b}) {
    net.set_wavelength(e, Wavelength{1}, 1.0);
    net.set_wavelength(e, Wavelength{2}, 1.0);
  }
  SessionManager manager(std::move(net), RoutingPolicy::kLightpathFirstFit);
  const auto id = manager.open(NodeId{0}, NodeId{2});
  ASSERT_TRUE(id.has_value());
  for (const Hop& hop : manager.find(*id)->path.hops())
    EXPECT_EQ(hop.wavelength, Wavelength{1});  // smallest common
}

TEST(SessionManagerTest, SemilightpathPolicyBeatsLightpathOnBlocking) {
  // Under heavy sequential load on a ring, the conversion-capable policy
  // must carry at least as many sessions.
  Rng rng(71);
  const Topology topo = ring_topology(8);
  const Availability avail =
      uniform_availability(topo, 4, 2, 3, CostSpec::unit(), rng);
  const auto base = assemble_network(
      topo, 4, avail, std::make_shared<UniformConversion>(0.1));

  SessionManager light(base, RoutingPolicy::kLightpathEngine);
  SessionManager semi(base, RoutingPolicy::kSemilightpathEngine);
  Rng demand_rng(72);
  for (const auto& [s, t] : random_demands(8, 40, demand_rng)) {
    (void)light.open(s, t);
    (void)semi.open(s, t);
  }
  EXPECT_GE(semi.stats().carried, light.stats().carried);
}

TEST(SessionManagerTest, StatsAccounting) {
  SessionManager manager(chain_net(), RoutingPolicy::kSemilightpathEngine);
  (void)manager.open(NodeId{0}, NodeId{2});
  (void)manager.open(NodeId{0}, NodeId{2});
  (void)manager.open(NodeId{0}, NodeId{2});  // blocked
  const SessionStats& stats = manager.stats();
  EXPECT_EQ(stats.offered, 3u);
  EXPECT_EQ(stats.carried, 2u);
  EXPECT_EQ(stats.blocked, 1u);
  EXPECT_NEAR(stats.blocking_rate(), 1.0 / 3.0, 1e-12);
  EXPECT_GT(stats.mean_carried_cost(), 0.0);
}

TEST(SessionManagerTest, Preconditions) {
  SessionManager manager(chain_net(), RoutingPolicy::kSemilightpathEngine);
  EXPECT_THROW((void)manager.open(NodeId{0}, NodeId{0}), Error);
  EXPECT_THROW((void)manager.open(NodeId{0}, NodeId{9}), Error);
}

/// Drives `manager` through a workload of opens, closes, failures,
/// repairs, and reoptimizations.  Every open, span failure and
/// reoptimization is held to the per-request reference router on the
/// residual state just before it, and after every step the live engine
/// must carry the weights of one rebuilt from residual().  This is the end-to-end check that the
/// O(1) weight patches keep the flattened core exactly synchronized with
/// the residual network.
void run_engine_equivalence_workload(SessionManager& manager,
                                     std::uint64_t seed) {
  const std::uint32_t n = manager.residual().num_nodes();
  Rng rng(seed);
  std::vector<SessionId> open_ids;

  for (int step = 0; step < 120; ++step) {
    SCOPED_TRACE(step);
    const auto choice = rng.next_below(10);
    if (choice < 5) {  // open
      NodeId s{static_cast<std::uint32_t>(rng.next_below(n))};
      NodeId t{static_cast<std::uint32_t>(rng.next_below(n))};
      if (s == t) continue;
      const auto id = testing::open_checked(manager, s, t);
      if (id.has_value()) open_ids.push_back(*id);
      continue;
    }
    if (choice < 7) {  // close
      if (open_ids.empty()) continue;
      const std::size_t i = rng.next_below(open_ids.size());
      EXPECT_TRUE(manager.close(open_ids[i]));
      open_ids[i] = open_ids.back();
      open_ids.pop_back();
    } else if (choice == 7) {  // fail a span
      const NodeId a{static_cast<std::uint32_t>(rng.next_below(n))};
      const NodeId b{static_cast<std::uint32_t>(rng.next_below(n))};
      (void)testing::fail_span_checked(manager, a, b);
      // Sessions may have been dropped; prune ids that went inactive.
      std::erase_if(open_ids, [&](SessionId id) {
        return !manager.find(id)->active;
      });
    } else if (choice == 8) {  // repair a span
      const NodeId a{static_cast<std::uint32_t>(rng.next_below(n))};
      const NodeId b{static_cast<std::uint32_t>(rng.next_below(n))};
      manager.repair_span(a, b);
    } else {  // reoptimize
      if (open_ids.empty()) continue;
      (void)testing::reoptimize_checked(
          manager, open_ids[rng.next_below(open_ids.size())]);
    }
    testing::expect_engine_matches_rebuilt(manager, "after step");
    EXPECT_EQ(manager.active_sessions(), open_ids.size());
  }
  EXPECT_GT(manager.stats().carried, 0u);
}

TEST(SessionManagerTest, EnginePolicyMatchesSemilightpathWorkload) {
  Rng rng(91);
  const auto base =
      testing::random_network(10, 12, 4, 3, testing::ConvKind::kUniform, rng);
  SessionManager manager(base, RoutingPolicy::kSemilightpathEngine);
  EXPECT_EQ(manager.policy(), RoutingPolicy::kSemilightpathEngine);
  run_engine_equivalence_workload(manager, 92);
}

TEST(SessionManagerTest, EnginePolicyMatchesLightpathWorkload) {
  Rng rng(93);
  const auto base =
      testing::random_network(10, 12, 4, 3, testing::ConvKind::kNone, rng);
  SessionManager manager(base, RoutingPolicy::kLightpathEngine);
  EXPECT_EQ(manager.policy(), RoutingPolicy::kLightpathEngine);
  run_engine_equivalence_workload(manager, 94);
}

}  // namespace
}  // namespace lumen

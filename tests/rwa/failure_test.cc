// Failure injection: span cuts, restoration, repair — including the
// engine-backed policies, whose in-place patched weights are checked
// against a rebuilt-from-scratch RouteEngine oracle through whole
// fail → reroute → repair cycles, and the FaultPlan span-timeline replay
// that drives the same path from simulator-level fault windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dist/fault_plan.h"
#include "rwa/session_manager.h"
#include "tests/session_checks.h"
#include "tests/test_util.h"
#include "topo/topologies.h"
#include "topo/wavelengths.h"

namespace lumen {
namespace {

/// Bidirectional ring of 6 nodes, 2 wavelengths, full availability.
SessionManager ring_manager(RoutingPolicy policy) {
  Rng rng(17);
  const Topology topo = ring_topology(6);
  const Availability avail = full_availability(topo, 2, CostSpec::unit(), rng);
  return SessionManager(
      assemble_network(topo, 2, avail,
                       std::make_shared<UniformConversion>(0.1)),
      policy);
}

TEST(FailureTest, CutSpanReroutesAroundRing) {
  auto manager = ring_manager(RoutingPolicy::kSemilightpathEngine);
  const auto id = manager.open(NodeId{0}, NodeId{2});
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(manager.find(*id)->path.length(), 2u);  // 0-1-2 the short way

  // Cut span 1-2: the session must reroute the long way (0-5-4-3-2).
  const auto report = manager.fail_span(NodeId{1}, NodeId{2});
  EXPECT_EQ(report.links_failed, 2u);
  EXPECT_EQ(report.affected, 1u);
  EXPECT_EQ(report.rerouted, 1u);
  EXPECT_EQ(report.dropped, 0u);
  const SessionRecord* record = manager.find(*id);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(record->active);
  EXPECT_EQ(record->path.length(), 4u);
  // The new route avoids the cut span entirely.  (Note: an active path is
  // never "available" in the residual network — its wavelengths are
  // reserved — so we check link health, not availability.)
  for (const Hop& hop : record->path.hops())
    EXPECT_FALSE(manager.is_failed(hop.link));
  EXPECT_EQ(manager.stats().rerouted, 1u);
}

TEST(FailureTest, UnaffectedSessionsUntouched) {
  auto manager = ring_manager(RoutingPolicy::kSemilightpathEngine);
  const auto far = manager.open(NodeId{3}, NodeId{5});
  ASSERT_TRUE(far.has_value());
  const auto before = manager.find(*far)->path;
  const auto report = manager.fail_span(NodeId{0}, NodeId{1});
  EXPECT_EQ(report.affected, 0u);
  EXPECT_EQ(manager.find(*far)->path, before);
}

TEST(FailureTest, DropWhenNoAlternateRoute) {
  // Line topology: cutting the only span in the middle drops the session.
  Rng rng(18);
  const Topology topo = line_topology(4);
  const Availability avail = full_availability(topo, 2, CostSpec::unit(), rng);
  SessionManager manager(
      assemble_network(topo, 2, avail, std::make_shared<NoConversion>()),
      RoutingPolicy::kSemilightpathEngine);
  const auto id = manager.open(NodeId{0}, NodeId{3});
  ASSERT_TRUE(id.has_value());
  const auto report = manager.fail_span(NodeId{1}, NodeId{2});
  EXPECT_EQ(report.affected, 1u);
  EXPECT_EQ(report.dropped, 1u);
  EXPECT_EQ(report.rerouted, 0u);
  EXPECT_FALSE(manager.find(*id)->active);
  EXPECT_EQ(manager.active_sessions(), 0u);
  EXPECT_EQ(manager.stats().dropped, 1u);
  // Resources of the dropped session on healthy links are back.
  EXPECT_DOUBLE_EQ(manager.wavelength_utilization(), 0.0);
}

TEST(FailureTest, FailedLinksRejectNewSessions) {
  Rng rng(19);
  const Topology topo = line_topology(3);
  const Availability avail = full_availability(topo, 2, CostSpec::unit(), rng);
  SessionManager manager(
      assemble_network(topo, 2, avail, std::make_shared<NoConversion>()),
      RoutingPolicy::kSemilightpathEngine);
  (void)manager.fail_span(NodeId{0}, NodeId{1});
  EXPECT_FALSE(manager.open(NodeId{0}, NodeId{2}).has_value());
  // But the unaffected half still works.
  EXPECT_TRUE(manager.open(NodeId{1}, NodeId{2}).has_value());
}

TEST(FailureTest, RepairRestoresCapacity) {
  Rng rng(20);
  const Topology topo = line_topology(3);
  const Availability avail = full_availability(topo, 2, CostSpec::unit(), rng);
  SessionManager manager(
      assemble_network(topo, 2, avail, std::make_shared<NoConversion>()),
      RoutingPolicy::kSemilightpathEngine);
  (void)manager.fail_span(NodeId{0}, NodeId{1});
  EXPECT_FALSE(manager.open(NodeId{0}, NodeId{2}).has_value());
  manager.repair_span(NodeId{0}, NodeId{1});
  EXPECT_TRUE(manager.open(NodeId{0}, NodeId{2}).has_value());
}

TEST(FailureTest, RepairRespectsActiveReservations) {
  auto manager = ring_manager(RoutingPolicy::kSemilightpathEngine);
  // Fill span 0-1 in the 0->1 direction on both wavelengths.
  const auto a = manager.open(NodeId{0}, NodeId{1});
  const auto b = manager.open(NodeId{0}, NodeId{1});
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  // Both sessions sit on span 0-1 (direct hop is the optimum both times).
  ASSERT_EQ(manager.find(*a)->path.length(), 1u);
  ASSERT_EQ(manager.find(*b)->path.length(), 1u);

  (void)manager.fail_span(NodeId{2}, NodeId{3});  // unrelated span
  manager.repair_span(NodeId{2}, NodeId{3});
  // The repair of an unrelated span must not resurrect 0->1 capacity.
  const auto c = manager.open(NodeId{0}, NodeId{1});
  if (c.has_value()) {
    // If carried, it must have gone the long way round.
    EXPECT_GT(manager.find(*c)->path.length(), 1u);
  }
}

TEST(FailureTest, IdempotentFailAndRepair) {
  auto manager = ring_manager(RoutingPolicy::kSemilightpathEngine);
  const auto first = manager.fail_span(NodeId{0}, NodeId{1});
  EXPECT_EQ(first.links_failed, 2u);
  const auto second = manager.fail_span(NodeId{0}, NodeId{1});
  EXPECT_EQ(second.links_failed, 0u);  // already down
  manager.repair_span(NodeId{0}, NodeId{1});
  manager.repair_span(NodeId{0}, NodeId{1});  // no-op
  EXPECT_TRUE(manager.open(NodeId{0}, NodeId{1}).has_value());
}

TEST(FailureTest, IsFailedAccessor) {
  auto manager = ring_manager(RoutingPolicy::kSemilightpathEngine);
  (void)manager.fail_span(NodeId{0}, NodeId{1});
  std::uint32_t failed = 0;
  for (std::uint32_t e = 0; e < manager.residual().num_links(); ++e)
    failed += manager.is_failed(LinkId{e});
  EXPECT_EQ(failed, 2u);
  EXPECT_THROW((void)manager.is_failed(LinkId{999}), Error);
}

TEST(FailureTest, MultiFailureCascade) {
  // Cut spans one by one around the ring; a 0->3 session survives until
  // the last route dies.
  auto manager = ring_manager(RoutingPolicy::kSemilightpathEngine);
  const auto id = manager.open(NodeId{0}, NodeId{3});
  ASSERT_TRUE(id.has_value());
  (void)manager.fail_span(NodeId{1}, NodeId{2});   // kills clockwise
  EXPECT_TRUE(manager.find(*id)->active);
  (void)manager.fail_span(NodeId{4}, NodeId{5});   // kills counterclockwise
  EXPECT_FALSE(manager.find(*id)->active);
  EXPECT_EQ(manager.stats().dropped, 1u);
}

TEST(FailureTest, RepairFindsNoActiveSessionOnFailedLinks) {
  // repair_span hands every base wavelength of a repaired link back
  // without consulting the sessions.  That is sound only because no active
  // session ever holds a failed link: fail_span reroutes or drops every
  // session crossing a newly failed link, and no later route uses a +inf
  // slot.  A seeded open/close/reoptimize/fail/repair tape checks both
  // halves on random networks, under both engine policies.
  for (const RoutingPolicy policy : {RoutingPolicy::kSemilightpathEngine,
                                     RoutingPolicy::kLightpathEngine}) {
    for (const std::uint64_t seed :
         {0xfa11'0001ULL, 0xfa11'0002ULL, 0xfa11'0003ULL}) {
      Rng rng(seed);
      SessionManager manager(testing::random_network(
                                 16, 12, 4, 3, testing::ConvKind::kUniform,
                                 rng),
                             policy);
      const WdmNetwork& net = manager.residual();
      const auto pick_active = [&] {
        const std::vector<SessionId> ids = manager.active_session_ids();
        return ids[rng.next_below(ids.size())];
      };
      std::uint32_t affected = 0;
      std::uint32_t repaired = 0;
      for (int step = 0; step < 300; ++step) {
        const auto action = rng.next_below(10);
        if (action < 5 || manager.active_sessions() == 0) {
          const auto s =
              static_cast<std::uint32_t>(rng.next_below(net.num_nodes()));
          const auto t = (s + 1 + static_cast<std::uint32_t>(rng.next_below(
                                      net.num_nodes() - 1))) %
                         net.num_nodes();
          (void)testing::open_checked(manager, NodeId{s}, NodeId{t});
        } else if (action < 7) {
          EXPECT_TRUE(manager.close(pick_active()));
        } else if (action == 7) {
          (void)testing::reoptimize_checked(manager, pick_active());
        } else if (action == 8) {
          const LinkId e{
              static_cast<std::uint32_t>(rng.next_below(net.num_links()))};
          affected +=
              testing::fail_span_checked(manager, net.tail(e), net.head(e))
                  .affected;
          for (const SessionId id : manager.active_session_ids()) {
            for (const Hop& hop : manager.find(id)->path.hops()) {
              EXPECT_FALSE(manager.is_failed(hop.link))
                  << "session " << id.value() << " step " << step;
            }
          }
        } else {
          std::vector<LinkId> failed;
          for (std::uint32_t ei = 0; ei < net.num_links(); ++ei) {
            if (manager.is_failed(LinkId{ei})) failed.push_back(LinkId{ei});
          }
          if (failed.empty()) continue;
          const LinkId cut = failed[rng.next_below(failed.size())];
          const NodeId a = net.tail(cut);
          const NodeId b = net.head(cut);
          std::vector<LinkId> span;
          for (const LinkId e : failed) {
            if ((net.tail(e) == a && net.head(e) == b) ||
                (net.tail(e) == b && net.head(e) == a)) {
              span.push_back(e);
            }
          }
          ASSERT_EQ(manager.repair_span(a, b), span.size());
          for (const LinkId e : span) {
            const auto now = net.available(e);
            const auto base = manager.base().available(e);
            EXPECT_TRUE(std::equal(now.begin(), now.end(), base.begin(),
                                   base.end()))
                << "link " << e.value() << " step " << step;
          }
          testing::expect_engine_matches_rebuilt(manager, "after repair");
          repaired += static_cast<std::uint32_t>(span.size());
        }
      }
      // The tape must actually exercise the premise.
      EXPECT_GT(affected, 0u);
      EXPECT_GT(repaired, 0u);
    }
  }
}

// --- engine-backed policies through fail/reroute/repair cycles ----------

class EnginePolicyFailureTest
    : public ::testing::TestWithParam<RoutingPolicy> {};

INSTANTIATE_TEST_SUITE_P(EnginePolicies, EnginePolicyFailureTest,
                         ::testing::Values(RoutingPolicy::kSemilightpathEngine,
                                           RoutingPolicy::kLightpathEngine),
                         [](const auto& info) {
                           return info.param ==
                                          RoutingPolicy::kSemilightpathEngine
                                      ? "SemilightpathEngine"
                                      : "LightpathEngine";
                         });

TEST_P(EnginePolicyFailureTest, WeightsMatchRebuiltOracleThroughCycle) {
  auto manager = ring_manager(GetParam());
  testing::expect_engine_matches_rebuilt(manager, "pristine");

  const auto a = manager.open(NodeId{0}, NodeId{2});
  const auto b = manager.open(NodeId{3}, NodeId{5});
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  testing::expect_engine_matches_rebuilt(manager, "after opens");

  const auto report = manager.fail_span(NodeId{1}, NodeId{2});
  EXPECT_EQ(report.links_failed, 2u);
  EXPECT_EQ(report.affected, 1u);
  EXPECT_EQ(report.rerouted, 1u);
  EXPECT_TRUE(manager.find(*a)->active);
  EXPECT_EQ(manager.find(*a)->path.length(), 4u);  // the long way round
  testing::expect_engine_matches_rebuilt(manager, "after fail+reroute");

  manager.repair_span(NodeId{1}, NodeId{2});
  testing::expect_engine_matches_rebuilt(manager, "after repair");

  // The repaired span is routable again at the pre-cut optimum.
  const auto c = manager.open(NodeId{1}, NodeId{2});
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(manager.find(*c)->path.length(), 1u);
  testing::expect_engine_matches_rebuilt(manager, "after reopen");

  EXPECT_TRUE(manager.close(*a));
  EXPECT_TRUE(manager.close(*b));
  EXPECT_TRUE(manager.close(*c));
  testing::expect_engine_matches_rebuilt(manager, "after closes");
  EXPECT_DOUBLE_EQ(manager.wavelength_utilization(), 0.0);
}

TEST_P(EnginePolicyFailureTest, DropOnLineMatchesRebuiltOracle) {
  Rng rng(21);
  const Topology topo = line_topology(4);
  const Availability avail = full_availability(topo, 2, CostSpec::unit(), rng);
  SessionManager manager(
      assemble_network(topo, 2, avail, std::make_shared<NoConversion>()),
      GetParam());
  const auto id = manager.open(NodeId{0}, NodeId{3});
  ASSERT_TRUE(id.has_value());
  const auto report = manager.fail_span(NodeId{1}, NodeId{2});
  EXPECT_EQ(report.dropped, 1u);
  EXPECT_FALSE(manager.find(*id)->active);
  testing::expect_engine_matches_rebuilt(manager, "after drop");
  // Healthy-half resources of the dropped session are back in the pool.
  EXPECT_DOUBLE_EQ(manager.wavelength_utilization(), 0.0);
  manager.repair_span(NodeId{1}, NodeId{2});
  testing::expect_engine_matches_rebuilt(manager, "after repair");
  EXPECT_TRUE(manager.open(NodeId{0}, NodeId{3}).has_value());
}

TEST_P(EnginePolicyFailureTest, MatchesNonEngineTwinThroughCycle) {
  // Every open and the span failure's reroutes must match the per-request
  // reference router on the residual state just before them, and the live
  // engine must match a rebuilt one after every fail, repair and close.
  auto manager = ring_manager(GetParam());
  const std::pair<std::uint32_t, std::uint32_t> opens[] = {
      {0, 2}, {3, 5}, {1, 5}, {2, 4}};
  std::vector<SessionId> ids;
  for (const auto& [s, t] : opens) {
    const auto id = testing::open_checked(manager, NodeId{s}, NodeId{t});
    ASSERT_TRUE(id.has_value()) << s << "->" << t;
    ids.push_back(*id);
  }

  // Only 0->2 crosses 1-2; it survives the long way round.
  const auto report =
      testing::fail_span_checked(manager, NodeId{1}, NodeId{2});
  EXPECT_EQ(report.links_failed, 2u);
  EXPECT_EQ(report.affected, 1u);
  EXPECT_EQ(report.rerouted, 1u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_TRUE(manager.find(ids[0])->active);
  EXPECT_EQ(manager.find(ids[0])->path.length(), 4u);
  testing::expect_engine_matches_rebuilt(manager, "after fail");
  (void)testing::open_checked(manager, NodeId{1}, NodeId{3});

  manager.repair_span(NodeId{1}, NodeId{2});
  testing::expect_engine_matches_rebuilt(manager, "after repair");
  (void)testing::open_checked(manager, NodeId{1}, NodeId{2});

  for (const SessionId id : ids) {
    if (!manager.find(id)->active) continue;
    EXPECT_TRUE(manager.close(id));
    testing::expect_engine_matches_rebuilt(manager, "after close");
  }
}

// --- FaultPlan span-timeline replay --------------------------------------

TEST(FaultTimelineTest, SpanTimelineReplayDrivesFailAndRepair) {
  // Simulator-level span-down windows replayed through apply_span_state
  // exercise the exact fail/repair + engine weight-sync path.
  FaultPlan plan(11);
  plan.span_down(NodeId{1}, NodeId{2}, 1.0, 3.0)
      .span_down(NodeId{4}, NodeId{5}, 4.0, 5.0);
  const auto timeline = plan.span_timeline();
  ASSERT_EQ(timeline.size(), 4u);
  // Sorted by time: down@1, up@3, down@4, up@5.
  EXPECT_TRUE(timeline[0].down);
  EXPECT_FALSE(timeline[1].down);
  EXPECT_TRUE(timeline[2].down);
  EXPECT_FALSE(timeline[3].down);
  EXPECT_LE(timeline[0].time, timeline[1].time);

  auto manager = ring_manager(RoutingPolicy::kSemilightpathEngine);
  const auto id = manager.open(NodeId{0}, NodeId{2});
  ASSERT_TRUE(id.has_value());
  ASSERT_EQ(manager.find(*id)->path.length(), 2u);

  std::uint32_t reroutes = 0;
  for (const SpanEvent& event : timeline) {
    const auto report =
        manager.apply_span_state(event.a, event.b, event.down);
    reroutes += report.rerouted;
    testing::expect_engine_matches_rebuilt(manager, "after span event");
  }
  // Cutting 1-2 forced the session the long way; after that span healed,
  // cutting 4-5 forced it back onto the (repaired) short route — the
  // session survives because the windows never overlap.
  EXPECT_EQ(reroutes, 2u);
  EXPECT_TRUE(manager.find(*id)->active);
  // All spans healed: full capacity is back.
  for (std::uint32_t e = 0; e < manager.residual().num_links(); ++e)
    EXPECT_FALSE(manager.is_failed(LinkId{e}));
  EXPECT_TRUE(manager.open(NodeId{1}, NodeId{2}).has_value());
}

}  // namespace
}  // namespace lumen

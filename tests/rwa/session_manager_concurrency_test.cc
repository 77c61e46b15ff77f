// Pins SessionManager's single-thread semantics ahead of the sharded
// service refactor: span-state replay must be idempotent (a repeated
// transition is a counted no-op with NO per-session scan or engine
// weight re-sync — witnessed by the lumen.rwa.span_noops counter), the
// occupancy gauges must total exactly against a hand count, the engine
// weight view must track the residual bit-for-bit through fail/repair
// churn, and the session table's public views must stay deterministic
// now that the table itself is a FlatMap with unspecified order.
#include "rwa/session_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/registry.h"
#include "tests/test_util.h"

namespace lumen {
namespace {

using lumen::testing::paper_example_network;

/// Engine/residual weight agreement over every base (link, λ) pair: a
/// base pair carries its residual cost when available, +inf otherwise.
void expect_engine_matches_residual(const SessionManager& manager,
                                    const WdmNetwork& base) {
  const WdmNetwork& residual = manager.residual();
  for (std::uint32_t e = 0; e < base.num_links(); ++e) {
    for (const LinkWavelength& lw : base.available(LinkId{e})) {
      const double engine_weight =
          manager.engine().weight(LinkId{e}, lw.lambda);
      if (residual.is_available(LinkId{e}, lw.lambda)) {
        EXPECT_DOUBLE_EQ(engine_weight,
                         residual.link_cost(LinkId{e}, lw.lambda))
            << "link " << e << " λ" << lw.lambda.value();
      } else {
        EXPECT_EQ(engine_weight, kInfiniteCost)
            << "link " << e << " λ" << lw.lambda.value();
      }
    }
  }
}

TEST(SessionManagerConcurrencyTest, SpanStateReplayNoopIsCountedEarlyOut) {
  const WdmNetwork base = paper_example_network();
  SessionManager manager(base, RoutingPolicy::kSemilightpathEngine);
  ASSERT_TRUE(manager.open(NodeId{0}, NodeId{6}).has_value());

  obs::Counter& noops =
      obs::Registry::global().counter("lumen.rwa.span_noops");
  const std::uint64_t before = noops.value();

  // First down does real work; the replayed down is a counted no-op.
  const auto first = manager.apply_span_state(NodeId{0}, NodeId{1}, true);
  EXPECT_GT(first.links_failed, 0u);
  const auto replayed = manager.apply_span_state(NodeId{0}, NodeId{1}, true);
  EXPECT_EQ(replayed.links_failed, 0u);
  EXPECT_EQ(replayed.affected, 0u);

  // Same for up: first repairs, the replay is a no-op.
  manager.apply_span_state(NodeId{0}, NodeId{1}, false);
  manager.apply_span_state(NodeId{0}, NodeId{1}, false);

  if constexpr (obs::kObsEnabled) {
    EXPECT_EQ(noops.value(), before + 2);
  }
  expect_engine_matches_residual(manager, base);
}

TEST(SessionManagerConcurrencyTest, RepairOfHealthySpanDoesNoPerSessionWork) {
  const WdmNetwork base = paper_example_network();
  SessionManager manager(base, RoutingPolicy::kSemilightpathEngine);
  // Load the network so a spurious repair-resync would have plenty of
  // session state to corrupt.
  std::vector<SessionId> ids;
  for (int i = 0; i < 4; ++i) {
    const auto id = manager.open(NodeId{0}, NodeId{6});
    if (id.has_value()) ids.push_back(*id);
  }
  ASSERT_FALSE(ids.empty());

  // repair_span on a span that was never down returns 0 links repaired.
  EXPECT_EQ(manager.repair_span(NodeId{0}, NodeId{1}), 0u);
  expect_engine_matches_residual(manager, base);
  // Sessions are untouched.
  for (const SessionId id : ids) {
    const SessionRecord* record = manager.find(id);
    ASSERT_NE(record, nullptr);
    EXPECT_TRUE(record->active);
  }
}

TEST(SessionManagerConcurrencyTest, ReplayedTimelineConvergesToSameState) {
  // The same span driven through [down, down, up, up] and [down, up]
  // must land the residual, the engine view, and the accounting in the
  // same place (replay idempotence for fault-timeline consumers).
  const WdmNetwork base = paper_example_network();
  SessionManager stutter(base, RoutingPolicy::kSemilightpathEngine);
  SessionManager clean(base, RoutingPolicy::kSemilightpathEngine);
  ASSERT_TRUE(stutter.open(NodeId{0}, NodeId{6}).has_value());
  ASSERT_TRUE(clean.open(NodeId{0}, NodeId{6}).has_value());

  stutter.apply_span_state(NodeId{0}, NodeId{3}, true);
  stutter.apply_span_state(NodeId{0}, NodeId{3}, true);
  stutter.apply_span_state(NodeId{0}, NodeId{3}, false);
  stutter.apply_span_state(NodeId{0}, NodeId{3}, false);
  clean.apply_span_state(NodeId{0}, NodeId{3}, true);
  clean.apply_span_state(NodeId{0}, NodeId{3}, false);

  EXPECT_EQ(stutter.active_sessions(), clean.active_sessions());
  EXPECT_DOUBLE_EQ(stutter.wavelength_utilization(),
                   clean.wavelength_utilization());
  for (std::uint32_t e = 0; e < base.num_links(); ++e) {
    EXPECT_EQ(stutter.is_failed(LinkId{e}), clean.is_failed(LinkId{e}));
    for (const LinkWavelength& lw : base.available(LinkId{e})) {
      EXPECT_EQ(stutter.residual().is_available(LinkId{e}, lw.lambda),
                clean.residual().is_available(LinkId{e}, lw.lambda))
          << "link " << e << " λ" << lw.lambda.value();
    }
  }
  expect_engine_matches_residual(stutter, base);
  expect_engine_matches_residual(clean, base);
}

TEST(SessionManagerConcurrencyTest, UtilizationGaugesTotalExactly) {
  const WdmNetwork base = paper_example_network();
  SessionManager manager(base, RoutingPolicy::kSemilightpathEngine);
  const auto id = manager.open(NodeId{0}, NodeId{6});
  ASSERT_TRUE(id.has_value());
  manager.update_utilization_gauges();

  if constexpr (obs::kObsEnabled) {
    // Hand count: links carrying at least one reservation.
    std::uint64_t busy_links = 0;
    for (std::uint32_t e = 0; e < base.num_links(); ++e) {
      if (manager.residual().num_available(LinkId{e}) <
          base.num_available(LinkId{e})) {
        ++busy_links;
      }
    }
    EXPECT_EQ(busy_links, manager.find(*id)->path.length());
    const double spans_busy =
        obs::Registry::global().gauge("lumen.rwa.util.spans_busy").value();
    EXPECT_DOUBLE_EQ(spans_busy, static_cast<double>(busy_links));
  }

  // The scalar utilization agrees with the reserved-pair count.
  const std::uint64_t reserved = manager.find(*id)->path.length();
  EXPECT_DOUBLE_EQ(manager.wavelength_utilization(),
                   static_cast<double>(reserved) /
                       static_cast<double>(base.total_link_wavelengths()));
}

TEST(SessionManagerConcurrencyTest, ActiveSessionIdsSortedThroughChurn) {
  const WdmNetwork base = paper_example_network();
  SessionManager manager(base, RoutingPolicy::kSemilightpathEngine);
  std::vector<SessionId> opened;
  for (int round = 0; round < 12; ++round) {
    const auto id =
        manager.open(NodeId{static_cast<std::uint32_t>(round) % 7},
                     NodeId{static_cast<std::uint32_t>(round + 3) % 7});
    if (id.has_value()) opened.push_back(*id);
    if (round % 3 == 2 && !opened.empty()) {
      manager.close(opened.front());
      opened.erase(opened.begin());
    }
  }
  const std::vector<SessionId> ids = manager.active_session_ids();
  ASSERT_EQ(ids.size(), opened.size());
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  std::vector<SessionId> expected = opened;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(ids, expected);
}

}  // namespace
}  // namespace lumen

#include "rwa/defragment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "rwa/dynamic_workload.h"
#include "tests/test_util.h"
#include "topo/topologies.h"
#include "topo/wavelengths.h"
#include "wdm/metrics.h"

namespace lumen {
namespace {

SessionManager grid_manager(std::uint32_t k) {
  Rng rng(61);
  const Topology topo = grid_topology(4, 4);
  const Availability avail = full_availability(topo, k, CostSpec::unit(), rng);
  return SessionManager(
      assemble_network(topo, k, avail,
                       std::make_shared<UniformConversion>(0.1)),
      RoutingPolicy::kSemilightpathEngine);
}

TEST(DefragmentTest, NoSessionsNothingToDo) {
  auto manager = grid_manager(4);
  const auto report = defragment(manager);
  EXPECT_EQ(report.considered, 0u);
  EXPECT_EQ(report.improved, 0u);
  EXPECT_DOUBLE_EQ(report.cost_saved, 0.0);
}

TEST(DefragmentTest, FreshOptimalSessionsDontMove) {
  auto manager = grid_manager(4);
  (void)manager.open(NodeId{0}, NodeId{15});
  (void)manager.open(NodeId{3}, NodeId{12});
  const auto report = defragment(manager);
  EXPECT_EQ(report.considered, 2u);
  EXPECT_EQ(report.improved, 0u);  // provisioned optimally moments ago
  EXPECT_EQ(manager.active_sessions(), 2u);
}

TEST(DefragmentTest, ReleasedCapacityGetsReclaimed) {
  // Fill a corridor, force a detour, then free the corridor: defrag must
  // move the detoured session back and save its extra cost.
  Rng rng(62);
  const Topology topo = ring_topology(8);
  const Availability avail = full_availability(topo, 1, CostSpec::unit(), rng);
  SessionManager manager(
      assemble_network(topo, 1, avail, std::make_shared<NoConversion>()),
      RoutingPolicy::kSemilightpathEngine);

  // Blocker takes the short way 0->2 (2 hops on the single wavelength).
  const auto blocker = manager.open(NodeId{0}, NodeId{2});
  ASSERT_TRUE(blocker.has_value());
  ASSERT_EQ(manager.find(*blocker)->path.length(), 2u);
  // Victim 0->2 must go the long way (6 hops).
  const auto victim = manager.open(NodeId{0}, NodeId{2});
  ASSERT_TRUE(victim.has_value());
  ASSERT_EQ(manager.find(*victim)->path.length(), 6u);

  ASSERT_TRUE(manager.close(*blocker));
  const auto report = defragment(manager);
  EXPECT_EQ(report.improved, 1u);
  EXPECT_NEAR(report.cost_saved, 4.0, 1e-9);
  EXPECT_EQ(manager.find(*victim)->path.length(), 2u);
  EXPECT_TRUE(manager.find(*victim)->active);
}

TEST(DefragmentTest, NeverDropsAndNeverWorsens) {
  auto manager = grid_manager(3);
  // Load the network dynamically, leaving survivors on stale routes.
  DynamicWorkloadConfig config;
  config.arrival_rate = 20.0;
  config.mean_holding_time = 1.0;
  config.num_arrivals = 150;
  config.seed = 63;
  (void)run_dynamic_workload(manager, config);
  // Re-open a few long-lived sessions to defragment.
  Rng rng(64);
  std::vector<std::pair<SessionId, double>> before;
  for (const auto& [s, t] : random_demands(16, 12, rng)) {
    const auto id = manager.open(s, t);
    if (id.has_value()) before.emplace_back(*id, manager.find(*id)->cost);
  }
  const std::uint64_t active_before = manager.active_sessions();
  const auto report = defragment(manager);
  EXPECT_EQ(manager.active_sessions(), active_before);
  EXPECT_EQ(report.considered, active_before);
  for (const auto& [id, old_cost] : before) {
    const SessionRecord* record = manager.find(id);
    ASSERT_NE(record, nullptr);
    EXPECT_TRUE(record->active);
    EXPECT_LE(record->cost, old_cost + 1e-9);
  }
}

TEST(DefragmentTest, ImprovesContinuityAlignmentMetricOrLeavesItBe) {
  // Sanity link to wdm/metrics: a defrag pass never reduces free capacity
  // and is measured by the same residual network the metrics read.
  auto manager = grid_manager(3);
  DynamicWorkloadConfig config;
  config.arrival_rate = 25.0;
  config.mean_holding_time = 1.0;
  config.num_arrivals = 120;
  config.seed = 65;
  (void)run_dynamic_workload(manager, config);
  Rng rng(66);
  for (const auto& [s, t] : random_demands(16, 10, rng)) (void)manager.open(s, t);

  const NetworkMetrics before = compute_metrics(manager.residual());
  (void)defragment(manager);
  const NetworkMetrics after = compute_metrics(manager.residual());
  // Moving sessions to cheaper (shorter) routes can only free pairs.
  EXPECT_GE(after.free_pairs, before.free_pairs);
}

// kMatrixGain orders the pass by each session's goal-directed engine
// price on the current residual state; the pass keeps the default
// ordering's guarantees.
TEST(BulkCostsTest, DefragMatrixGainKeepsTheContract) {
  Rng rng(67);
  const Topology topo = grid_topology(4, 4);
  const Availability avail =
      full_availability(topo, 3, CostSpec::unit(), rng);
  SessionManager manager(
      assemble_network(topo, 3, avail,
                       std::make_shared<UniformConversion>(0.1)),
      RoutingPolicy::kSemilightpathEngine);
  DynamicWorkloadConfig config;
  config.arrival_rate = 20.0;
  config.mean_holding_time = 1.0;
  config.num_arrivals = 150;
  config.seed = 68;
  (void)run_dynamic_workload(manager, config);
  Rng demand_rng(69);
  std::vector<std::pair<SessionId, double>> before;
  for (const auto& [s, t] : random_demands(16, 12, demand_rng)) {
    const auto id = manager.open(s, t);
    if (id.has_value()) before.emplace_back(*id, manager.find(*id)->cost);
  }
  const std::uint64_t active_before = manager.active_sessions();

  const auto report = defragment(manager, DefragOrder::kMatrixGain);
  // Same guarantees as the default ordering: nothing dropped, nothing
  // worse, savings non-negative.
  EXPECT_EQ(manager.active_sessions(), active_before);
  EXPECT_EQ(report.considered, active_before);
  EXPECT_GE(report.cost_saved, 0.0);
  for (const auto& [id, old_cost] : before) {
    const SessionRecord* record = manager.find(id);
    ASSERT_NE(record, nullptr);
    EXPECT_TRUE(record->active);
    EXPECT_LE(record->cost, old_cost + 1e-9);
  }
}

}  // namespace
}  // namespace lumen

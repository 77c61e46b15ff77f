#include "rwa/dynamic_workload.h"

#include <gtest/gtest.h>

#include <memory>

#include "tests/test_util.h"
#include "topo/topologies.h"
#include "topo/wavelengths.h"

namespace lumen {
namespace {

SessionManager make_manager(RoutingPolicy policy, std::uint32_t k = 6) {
  Rng rng(5);
  const Topology topo = nsfnet_topology();
  const Availability avail =
      full_availability(topo, k, CostSpec::unit(), rng);
  return SessionManager(
      assemble_network(topo, k, avail,
                       std::make_shared<UniformConversion>(0.25)),
      policy);
}

TEST(DynamicWorkloadTest, OffersExactlyConfiguredArrivals) {
  auto manager = make_manager(RoutingPolicy::kSemilightpathEngine);
  DynamicWorkloadConfig config;
  config.arrival_rate = 5.0;
  config.mean_holding_time = 1.0;
  config.num_arrivals = 200;
  config.seed = 1;
  const auto result = run_dynamic_workload(manager, config);
  EXPECT_EQ(result.stats.offered, 200u);
  EXPECT_EQ(result.stats.carried + result.stats.blocked, 200u);
  // The driver drains everything at the end.
  EXPECT_EQ(manager.active_sessions(), 0u);
  EXPECT_DOUBLE_EQ(manager.wavelength_utilization(), 0.0);
  EXPECT_GT(result.horizon, 0.0);
}

TEST(DynamicWorkloadTest, Deterministic) {
  auto a = make_manager(RoutingPolicy::kSemilightpathEngine);
  auto b = make_manager(RoutingPolicy::kSemilightpathEngine);
  DynamicWorkloadConfig config;
  config.arrival_rate = 10.0;
  config.num_arrivals = 300;
  config.seed = 42;
  const auto ra = run_dynamic_workload(a, config);
  const auto rb = run_dynamic_workload(b, config);
  EXPECT_EQ(ra.stats.carried, rb.stats.carried);
  EXPECT_EQ(ra.stats.blocked, rb.stats.blocked);
  EXPECT_DOUBLE_EQ(ra.mean_utilization, rb.mean_utilization);
}

TEST(DynamicWorkloadTest, LightLoadCarriesEverything) {
  auto manager = make_manager(RoutingPolicy::kSemilightpathEngine);
  DynamicWorkloadConfig config;
  config.arrival_rate = 0.2;  // 0.2 Erlang on 6 wavelengths: trivial
  config.mean_holding_time = 1.0;
  config.num_arrivals = 150;
  config.seed = 3;
  const auto result = run_dynamic_workload(manager, config);
  EXPECT_EQ(result.stats.blocked, 0u);
  EXPECT_LT(result.mean_active_sessions, 2.0);
}

TEST(DynamicWorkloadTest, BlockingGrowsWithLoad) {
  double prev_blocking = -1.0;
  for (const double load : {5.0, 40.0, 160.0}) {
    auto manager = make_manager(RoutingPolicy::kSemilightpathEngine);
    DynamicWorkloadConfig config;
    config.arrival_rate = load;
    config.mean_holding_time = 1.0;
    config.num_arrivals = 400;
    config.seed = 9;
    const auto result = run_dynamic_workload(manager, config);
    EXPECT_GE(result.stats.blocking_rate(), prev_blocking);
    prev_blocking = result.stats.blocking_rate();
  }
  EXPECT_GT(prev_blocking, 0.05);  // 160 Erlang must block noticeably
}

TEST(DynamicWorkloadTest, SemilightpathBlocksNoMoreThanLightpath) {
  for (const double load : {30.0, 60.0}) {
    DynamicWorkloadConfig config;
    config.arrival_rate = load;
    config.mean_holding_time = 1.0;
    config.num_arrivals = 400;
    config.seed = 13;
    auto light = make_manager(RoutingPolicy::kLightpathEngine);
    auto semi = make_manager(RoutingPolicy::kSemilightpathEngine);
    const auto rl = run_dynamic_workload(light, config);
    const auto rs = run_dynamic_workload(semi, config);
    // Same arrival/holding sequence (same seed): conversion can only help
    // per request, and in aggregate should not do worse materially.
    EXPECT_LE(rs.stats.blocking_rate(), rl.stats.blocking_rate() + 0.02)
        << "load " << load;
  }
}

TEST(DynamicWorkloadTest, UtilizationTracksLoad) {
  DynamicWorkloadConfig light_config;
  light_config.arrival_rate = 2.0;
  light_config.num_arrivals = 300;
  light_config.seed = 21;
  auto manager_light = make_manager(RoutingPolicy::kSemilightpathEngine);
  const auto light = run_dynamic_workload(manager_light, light_config);

  DynamicWorkloadConfig heavy_config = light_config;
  heavy_config.arrival_rate = 30.0;
  auto manager_heavy = make_manager(RoutingPolicy::kSemilightpathEngine);
  const auto heavy = run_dynamic_workload(manager_heavy, heavy_config);

  EXPECT_GT(heavy.mean_utilization, light.mean_utilization);
  EXPECT_GT(heavy.mean_active_sessions, light.mean_active_sessions);
}

TEST(DynamicWorkloadTest, Preconditions) {
  auto manager = make_manager(RoutingPolicy::kSemilightpathEngine);
  DynamicWorkloadConfig config;
  config.arrival_rate = 0.0;
  EXPECT_THROW((void)run_dynamic_workload(manager, config), Error);
  config.arrival_rate = 1.0;
  config.mean_holding_time = 0.0;
  EXPECT_THROW((void)run_dynamic_workload(manager, config), Error);
}

}  // namespace
}  // namespace lumen

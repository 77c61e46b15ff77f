// Engine-level coverage for the one-to-all cost rows: bulk_costs rows
// must match the engine's own point queries exactly (both run the same
// flat relaxations with the same additions), and the goal-directed point
// queries that price batch and defrag orderings must match the rows
// bit-for-bit — +inf into a cut node, 0 on the diagonal.  Defragment's
// kMatrixGain ordering must keep its contract.  The svc cases check a
// demand list opened one by one: accounting, double-booking, quota order.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "core/route_engine.h"
#include "rwa/defragment.h"
#include "rwa/dynamic_workload.h"
#include "svc/service.h"
#include "tests/test_util.h"
#include "topo/topologies.h"
#include "topo/wavelengths.h"

namespace lumen {
namespace {

using testing::ConvKind;
using testing::random_network;

/// Every bulk row must equal the engine's own (flat, exact) point
/// queries as doubles — diagonal 0, +inf where no route exists.
void expect_rows_match_point_queries(const RouteEngine& engine,
                                     const std::vector<std::vector<double>>&
                                         rows,
                                     const char* what) {
  SearchScratch scratch;
  const std::uint32_t n = engine.num_nodes();
  ASSERT_EQ(rows.size(), n);
  for (std::uint32_t s = 0; s < n; ++s) {
    ASSERT_EQ(rows[s].size(), n);
    for (std::uint32_t t = 0; t < n; ++t) {
      if (s == t) {
        EXPECT_EQ(rows[s][t], 0.0) << what << " diagonal " << s;
        continue;
      }
      const RouteResult point =
          engine.route_semilightpath(NodeId{s}, NodeId{t}, scratch);
      if (!point.found) {
        EXPECT_EQ(rows[s][t], kInfiniteCost)
            << what << " " << s << "->" << t;
      } else {
        EXPECT_EQ(rows[s][t], point.cost) << what << " " << s << "->" << t;
      }
    }
  }
}

std::vector<NodeId> all_nodes(std::uint32_t n) {
  std::vector<NodeId> nodes;
  nodes.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) nodes.push_back(NodeId{v});
  return nodes;
}

TEST(BulkCostsTest, SweepRowsMatchPointQueriesBitwise) {
  std::uint32_t unroutable = 0;
  for (const std::uint64_t seed : {71ULL, 72ULL, 73ULL}) {
    Rng rng(seed);
    const WdmNetwork net =
        random_network(12, 14, 4, 2, ConvKind::kUniform, rng);
    RouteEngine engine(net);
    const auto sources = all_nodes(net.num_nodes());
    expect_rows_match_point_queries(engine, engine.bulk_costs(sources),
                                    "pristine");

    // Cutting every link into node 0 makes the demands to it unroutable
    // (+inf); the rows and the point queries must both see the cut.
    for (std::uint32_t ei = 0; ei < net.num_links(); ++ei) {
      const LinkId e{ei};
      if (net.head(e) != NodeId{0}) continue;
      for (const auto& lw : net.available(e))
        engine.set_weight(e, lw.lambda, kInfiniteCost);
    }
    const auto rows = engine.bulk_costs(sources, 2);
    expect_rows_match_point_queries(engine, rows, "cut");

    // The goal-directed point queries batch and defrag price with must
    // equal the flat rows as doubles: every source repeats, the diagonal
    // (s == t) demands cost 0, and the demands into node 0 cost +inf.
    std::vector<std::pair<NodeId, NodeId>> demands;
    for (std::uint32_t t = 0; t < net.num_nodes(); ++t)
      for (std::uint32_t s = 0; s < net.num_nodes(); ++s)
        demands.emplace_back(NodeId{s}, NodeId{t});
    const std::vector<RouteResult> priced =
        engine.route_many(demands, 2, RouteEngine::QueryKind::kSemilightpath,
                          {.goal_directed = true});
    ASSERT_EQ(priced.size(), demands.size());
    for (std::size_t i = 0; i < demands.size(); ++i) {
      const auto [s, t] = demands[i];
      EXPECT_EQ(priced[i].cost, rows[s.value()][t.value()])
          << s.value() << "->" << t.value();
      if (s == t) {
        EXPECT_EQ(priced[i].cost, 0.0);
      } else if (t == NodeId{0}) {
        EXPECT_EQ(priced[i].cost, kInfiniteCost);
        ++unroutable;
      }
    }
  }
  EXPECT_GT(unroutable, 0u);
}

TEST(BulkCostsTest, ThreadedMatchesSerial) {
  Rng rng(0xb01dULL);
  const WdmNetwork net = random_network(16, 18, 3, 2, ConvKind::kRange, rng);
  const RouteEngine engine(net, RouteEngine::Options{.num_landmarks = 0});
  const auto sources = all_nodes(net.num_nodes());
  const auto serial = engine.bulk_costs(sources, 1);
  const auto threaded = engine.bulk_costs(sources, 4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t s = 0; s < serial.size(); ++s) {
    for (std::size_t t = 0; t < serial[s].size(); ++t) {
      EXPECT_EQ(serial[s][t], threaded[s][t]) << s << "->" << t;
    }
  }
}

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

  const auto report = defragment(manager, DefragOrder::kMatrixGain, 2);
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

/// Opens `demands` one by one for tenant 0, tickets in input order.
std::vector<svc::AdmitTicket> open_each(
    svc::RoutingService& service,
    const std::vector<std::pair<NodeId, NodeId>>& demands) {
  std::vector<svc::AdmitTicket> tickets;
  for (const auto& [s, t] : demands) {
    tickets.push_back(service.open(svc::TenantId{0}, s, t));
  }
  return tickets;
}

TEST(BulkCostsTest, SvcOpenBatchAdmitsAndAccounts) {
  Rng rng(0x5c'0001ULL);
  const WdmNetwork net = random_network(12, 14, 4, 3, ConvKind::kUniform, rng);
  svc::RoutingService service(net, svc::ServiceOptions{.num_shards = 2});

  std::vector<std::pair<NodeId, NodeId>> demands;
  for (std::uint32_t i = 0; i < 24; ++i) {
    const NodeId s{static_cast<std::uint32_t>(rng.next_below(12))};
    const NodeId t{static_cast<std::uint32_t>(rng.next_below(12))};
    if (s == t) continue;
    demands.emplace_back(s, t);
  }
  const auto tickets = open_each(service, demands);
  ASSERT_EQ(tickets.size(), demands.size());

  std::uint64_t admitted = 0;
  for (const auto& ticket : tickets) {
    ASSERT_TRUE(ticket.status == svc::AdmitStatus::kAdmitted ||
                ticket.status == svc::AdmitStatus::kBlocked);
    if (ticket.status == svc::AdmitStatus::kAdmitted) {
      ++admitted;
      EXPECT_TRUE(ticket.id.valid());
      EXPECT_GT(ticket.hops, 0u);
    }
  }
  EXPECT_GT(admitted, 0u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.offered, demands.size());
  EXPECT_EQ(stats.admitted, admitted);
  EXPECT_EQ(stats.blocked, demands.size() - admitted);
  EXPECT_EQ(service.active_sessions(), admitted);

  // The batch must be double-booking clean, exactly like serial opens.
  service.drain_all();
  std::vector<bool> owned(service.slot_table().num_slots(), false);
  for (const auto& [bits, slots] : service.active_reservations()) {
    for (const std::uint32_t slot : slots) {
      EXPECT_FALSE(owned[slot]) << "slot " << slot << " double-booked";
      owned[slot] = true;
    }
  }

  // Every admitted ticket closes exactly once.
  for (const auto& ticket : tickets) {
    if (ticket.status == svc::AdmitStatus::kAdmitted) {
      EXPECT_TRUE(service.close(ticket.id));
      EXPECT_FALSE(service.close(ticket.id));
    }
  }
  EXPECT_EQ(service.active_sessions(), 0u);
}

TEST(BulkCostsTest, SvcOpenBatchHonorsQuotaInInputOrder) {
  Rng rng(0x5c'0002ULL);
  const WdmNetwork net = random_network(10, 12, 4, 3, ConvKind::kUniform, rng);
  svc::RoutingService service(net, svc::ServiceOptions{.num_shards = 1});
  service.set_quota(svc::TenantId{0}, 2);

  std::vector<std::pair<NodeId, NodeId>> demands;
  for (std::uint32_t i = 0; i + 1 < 10; i += 2) {
    demands.emplace_back(NodeId{i}, NodeId{i + 1});
  }
  const auto tickets = open_each(service, demands);
  ASSERT_EQ(tickets.size(), 5u);
  // Quota claims run in input order: demands past the quota are denied
  // regardless of how cheap they would have been.
  std::uint64_t denied = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    if (tickets[i].status == svc::AdmitStatus::kQuotaDenied) {
      ++denied;
      EXPECT_GE(i, 2u) << "denied inside the quota prefix";
    }
  }
  EXPECT_EQ(denied, 3u);
  EXPECT_LE(service.active_sessions(), 2u);
}

}  // namespace
}  // namespace lumen

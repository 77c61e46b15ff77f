// Cross-module integration: the full static RWA pipeline.
//
// Route a traffic matrix with the Liang–Shen router (conversion-free
// regime so routes are plain paths), build the conflict graph of the
// chosen routes, color it, and check the wavelength count against the
// congestion lower bound and the hardware budget — the classic two-phase
// RWA workflow assembled entirely from this library's pieces.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/liang_shen.h"
#include "graph/traversal.h"
#include "rwa/session_manager.h"
#include "rwa/wavelength_assignment.h"
#include "tests/test_util.h"
#include "topo/topologies.h"
#include "topo/wavelengths.h"

namespace lumen {
namespace {

/// Routes each demand on the cheapest path (single wavelength universe so
/// route choice is purely topological), returning the link sequences.
std::vector<RoutedPath> route_demands(
    const WdmNetwork& net,
    const std::vector<std::pair<NodeId, NodeId>>& demands) {
  std::vector<RoutedPath> routed;
  for (const auto& [s, t] : demands) {
    const RouteResult r = route_semilightpath(net, s, t);
    if (!r.found) continue;
    RoutedPath p;
    for (const Hop& hop : r.path.hops()) p.links.push_back(hop.link);
    routed.push_back(std::move(p));
  }
  return routed;
}

WdmNetwork routing_substrate(const Topology& topo) {
  // One wavelength, unit costs: the router picks hop-shortest paths.
  Rng rng(71);
  const Availability avail = full_availability(topo, 1, CostSpec::unit(), rng);
  return assemble_network(topo, 1, avail, std::make_shared<NoConversion>());
}

TEST(StaticRwaPipelineTest, NsfnetPermutationTraffic) {
  const Topology topo = nsfnet_topology();
  const auto net = routing_substrate(topo);
  // Permutation traffic: every node sends to its index-reverse peer.
  std::vector<std::pair<NodeId, NodeId>> demands;
  for (std::uint32_t v = 0; v < 14; ++v) {
    if (v != 13 - v) demands.emplace_back(NodeId{v}, NodeId{13 - v});
  }
  const auto routed = route_demands(net, demands);
  ASSERT_EQ(routed.size(), demands.size());

  for (const auto heuristic :
       {AssignmentHeuristic::kFirstFit, AssignmentHeuristic::kDsatur}) {
    const auto assignment = assign_wavelengths(routed, heuristic);
    EXPECT_TRUE(assignment_is_valid(routed, assignment.wavelength));
    EXPECT_GE(assignment.wavelengths_used, congestion_lower_bound(routed));
    // Shortest-path permutation traffic on NSFNET is mild: a handful of
    // wavelengths suffices (way below one-per-demand).
    EXPECT_LT(assignment.wavelengths_used, demands.size() / 2);
  }
}

TEST(StaticRwaPipelineTest, RingAllToOneNeedsCongestionWavelengths) {
  // All-to-one traffic on a unidirectional ring: the last link into the
  // sink carries every demand, so congestion == #demands and coloring
  // must use exactly that many wavelengths.
  const Topology topo = ring_topology(6, false);
  const auto net = routing_substrate(topo);
  std::vector<std::pair<NodeId, NodeId>> demands;
  for (std::uint32_t v = 1; v < 6; ++v)
    demands.emplace_back(NodeId{v}, NodeId{0});
  const auto routed = route_demands(net, demands);
  ASSERT_EQ(routed.size(), 5u);
  const auto bound = congestion_lower_bound(routed);
  EXPECT_EQ(bound, 5u);  // link 5->0 carries all of them
  const auto assignment =
      assign_wavelengths(routed, AssignmentHeuristic::kDsatur);
  EXPECT_EQ(assignment.wavelengths_used, bound);
  EXPECT_TRUE(assignment_is_valid(routed, assignment.wavelength));
}

TEST(StaticRwaPipelineTest, RandomTrafficOnHierarchicalWan) {
  Rng rng(72);
  const Topology topo = hierarchical_topology(4, 4, 1, rng);
  const auto net = routing_substrate(topo);
  Rng demand_rng(73);
  const auto demands = random_demands(topo.num_nodes, 40, demand_rng);
  const auto routed = route_demands(net, demands);
  ASSERT_EQ(routed.size(), 40u);  // strongly connected: all routable

  const auto ff = assign_wavelengths(routed, AssignmentHeuristic::kFirstFit);
  const auto ds = assign_wavelengths(routed, AssignmentHeuristic::kDsatur);
  EXPECT_TRUE(assignment_is_valid(routed, ff.wavelength));
  EXPECT_TRUE(assignment_is_valid(routed, ds.wavelength));
  const auto bound = congestion_lower_bound(routed);
  EXPECT_GE(ff.wavelengths_used, bound);
  EXPECT_GE(ds.wavelengths_used, bound);
  // Both heuristics stay within a small factor of the lower bound on
  // this workload (documented expectation, not a theorem).
  EXPECT_LE(ds.wavelengths_used, 2 * bound);
}

TEST(StaticRwaPipelineTest, ConversionBeatsContinuityBoundOnNsfnet) {
  // Deterministic regression of the capacity_planning capstone: 60
  // gravity demands on NSFNET need 9 wavelengths under wavelength
  // continuity (congestion bound) but fit into 6 with conversion.
  const Topology topo = nsfnet_topology();
  Rng demand_rng(5);
  const auto demands = gravity_demands(topo, 60, demand_rng);

  // Continuity bound from the routed shortest paths.
  Rng probe_rng(5 ^ 0xfaceULL);
  const auto probe = assemble_network(
      topo, 1, full_availability(topo, 1, CostSpec::unit(), probe_rng),
      std::make_shared<NoConversion>());
  std::vector<RoutedPath> routed;
  for (const auto& [s, t] : demands) {
    const RouteResult r = route_semilightpath(probe, s, t);
    ASSERT_TRUE(r.found);
    RoutedPath p;
    for (const Hop& hop : r.path.hops()) p.links.push_back(hop.link);
    routed.push_back(std::move(p));
  }
  const std::uint32_t bound = congestion_lower_bound(routed);
  EXPECT_EQ(bound, 9u);

  // Conversion-capable provisioning carries everything with fewer
  // wavelengths than the continuity bound.
  const std::uint32_t k = 6;
  Rng avail_rng(5 ^ k);
  SessionManager manager(
      assemble_network(topo, k,
                       full_availability(topo, k, CostSpec::unit(),
                                         avail_rng),
                       std::make_shared<UniformConversion>(0.1)),
      RoutingPolicy::kSemilightpathEngine);
  std::uint32_t blocked = 0;
  // Longest-first ordering, as in the example.
  std::vector<std::pair<NodeId, NodeId>> ordered(demands.begin(),
                                                 demands.end());
  const Digraph& g = manager.residual().topology();
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](const auto& a, const auto& b) {
                     return bfs_hops(g, a.first, a.second) >
                            bfs_hops(g, b.first, b.second);
                   });
  for (const auto& [s, t] : ordered) {
    if (!manager.open(s, t).has_value()) ++blocked;
  }
  EXPECT_EQ(blocked, 0u) << "k=6 with conversion must carry the full set "
                            "that continuity routing needs 9 for";
  EXPECT_LT(k, bound);
}

}  // namespace
}  // namespace lumen

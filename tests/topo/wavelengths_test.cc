#include "topo/wavelengths.h"

#include <gtest/gtest.h>

#include <bit>
#include <memory>

#include "graph/dijkstra.h"  // kInfiniteCost
#include "util/error.h"

namespace lumen {
namespace {

TEST(AvailabilityTest, FullAvailabilityCoversEverything) {
  Rng rng(1);
  const auto topo = ring_topology(6);
  const auto avail = full_availability(topo, 5, CostSpec::unit(), rng);
  ASSERT_EQ(avail.size(), topo.num_links());
  for (const auto& list : avail) {
    EXPECT_EQ(list.size(), 5u);
    for (const auto& lw : list) EXPECT_DOUBLE_EQ(lw.cost, 1.0);
  }
}

TEST(AvailabilityTest, UniformRespectsK0Bounds) {
  Rng rng(2);
  const auto topo = grid_topology(4, 4);
  const auto avail =
      uniform_availability(topo, 16, 2, 5, CostSpec::unit(), rng);
  bool saw_min = false, saw_max = false;
  for (const auto& list : avail) {
    EXPECT_GE(list.size(), 2u);
    EXPECT_LE(list.size(), 5u);
    saw_min |= list.size() == 2;
    saw_max |= list.size() == 5;
    // Sorted, distinct, within universe.
    for (std::size_t i = 0; i < list.size(); ++i) {
      EXPECT_LT(list[i].lambda.value(), 16u);
      if (i > 0) {
        EXPECT_LT(list[i - 1].lambda, list[i].lambda);
      }
    }
  }
  EXPECT_TRUE(saw_min);
  EXPECT_TRUE(saw_max);
}

TEST(AvailabilityTest, UniformPreconditions) {
  Rng rng(1);
  const auto topo = ring_topology(4);
  EXPECT_THROW(
      (void)uniform_availability(topo, 4, 0, 2, CostSpec::unit(), rng),
      Error);
  EXPECT_THROW(
      (void)uniform_availability(topo, 4, 3, 2, CostSpec::unit(), rng),
      Error);
  EXPECT_THROW(
      (void)uniform_availability(topo, 4, 1, 5, CostSpec::unit(), rng),
      Error);
}

TEST(AvailabilityTest, BandedContiguous) {
  Rng rng(3);
  const auto topo = ring_topology(8);
  const auto avail = banded_availability(topo, 12, 4, CostSpec::unit(), rng);
  for (const auto& list : avail) {
    ASSERT_EQ(list.size(), 4u);
    for (std::size_t i = 1; i < list.size(); ++i) {
      EXPECT_EQ(list[i].lambda.value(), list[i - 1].lambda.value() + 1);
    }
    EXPECT_LE(list.back().lambda.value(), 11u);
  }
}

TEST(AvailabilityTest, UniformCostsInRange) {
  Rng rng(4);
  const auto topo = ring_topology(5);
  const auto avail =
      full_availability(topo, 3, CostSpec::uniform(2.0, 4.0), rng);
  for (const auto& list : avail)
    for (const auto& lw : list) {
      EXPECT_GE(lw.cost, 2.0);
      EXPECT_LT(lw.cost, 4.0);
    }
}

TEST(AvailabilityTest, DistanceCosts) {
  Rng rng(5);
  const auto topo = grid_topology(2, 3);
  const auto avail =
      full_availability(topo, 2, CostSpec::distance(10.0), rng);
  for (std::size_t e = 0; e < avail.size(); ++e) {
    for (const auto& lw : avail[e]) {
      EXPECT_NEAR(lw.cost, 10.0 * topo.link_distance(e), 1e-12);
    }
  }
}

TEST(AvailabilityTest, OccupancyReducesAvailability) {
  Rng rng(6);
  const auto topo = grid_topology(4, 4);
  const auto full = full_availability(topo, 8, CostSpec::unit(), rng);
  Rng rng2(6);
  const auto occupied =
      occupancy_availability(topo, 8, 60, CostSpec::unit(), rng2);
  std::uint64_t full_total = 0, occ_total = 0;
  for (const auto& list : full) full_total += list.size();
  for (const auto& list : occupied) occ_total += list.size();
  EXPECT_LT(occ_total, full_total);
  EXPECT_GT(occ_total, 0u);
}

TEST(AvailabilityTest, OccupancyZeroDemandsIsFull) {
  Rng rng(7);
  const auto topo = ring_topology(5);
  const auto avail =
      occupancy_availability(topo, 4, 0, CostSpec::unit(), rng);
  for (const auto& list : avail) EXPECT_EQ(list.size(), 4u);
}

/// FNV-1a digest of every (link, λ, cost) triple of an occupancy
/// workload on a 40-node sparse topology; `pairs` counts the triples.
std::uint64_t occupancy_digest(std::uint64_t seed, std::size_t& pairs) {
  Rng rng(seed);
  const Topology topo = random_sparse_topology(40, 60, rng);
  const Availability avail =
      occupancy_availability(topo, 8, 120, CostSpec::uniform(0.5, 3.0), rng);
  std::uint64_t digest = 14695981039346656037ULL;
  const auto mix = [&](std::uint64_t x) {
    digest ^= x;
    digest *= 1099511628211ULL;
  };
  pairs = 0;
  for (std::size_t e = 0; e < avail.size(); ++e) {
    for (const LinkWavelength& lw : avail[e]) {
      mix(e);
      mix(lw.lambda.value());
      mix(std::bit_cast<std::uint64_t>(lw.cost));
      ++pairs;
    }
  }
  return digest;
}

TEST(AvailabilityTest, OccupancyOutputIsPinned) {
  // The hop-shortest routes (ties to the lower out-link row) and first-fit
  // wavelengths of the occupancy generator fix exactly which (link, λ)
  // pairs survive; these digests pin that output.
  std::size_t pairs = 0;
  EXPECT_EQ(occupancy_digest(11, pairs), 0x8d8848fe79f3c66dULL);
  EXPECT_EQ(pairs, 441u);
  EXPECT_EQ(occupancy_digest(12, pairs), 0x9da010c8c2cb5cbaULL);
  EXPECT_EQ(pairs, 455u);
  EXPECT_EQ(occupancy_digest(13, pairs), 0x7ef5b00264051e85ULL);
  EXPECT_EQ(pairs, 486u);
}

TEST(AssembleTest, BuildsRoutableNetwork) {
  Rng rng(8);
  const auto topo = nsfnet_topology();
  const auto avail =
      uniform_availability(topo, 8, 2, 4, CostSpec::unit(), rng);
  const auto net =
      assemble_network(topo, 8, avail, std::make_shared<UniformConversion>(0.5));
  EXPECT_EQ(net.num_nodes(), topo.num_nodes);
  EXPECT_EQ(net.num_links(), topo.num_links());
  EXPECT_EQ(net.num_wavelengths(), 8u);
  EXPECT_LE(net.k0(), 4u);
  for (std::uint32_t e = 0; e < net.num_links(); ++e) {
    EXPECT_EQ(net.tail(LinkId{e}), topo.links[e].first);
    EXPECT_EQ(net.head(LinkId{e}), topo.links[e].second);
    EXPECT_EQ(net.available(LinkId{e}).size(), avail[e].size());
  }
}

TEST(AssembleTest, SizeMismatchRejected) {
  Rng rng(9);
  const auto topo = ring_topology(4);
  Availability avail(3);  // wrong: topo has 8 links
  EXPECT_THROW((void)assemble_network(topo, 2, avail,
                                      std::make_shared<NoConversion>()),
               Error);
}

TEST(DemandsTest, RandomDemandsValid) {
  Rng rng(10);
  const auto demands = random_demands(20, 50, rng);
  EXPECT_EQ(demands.size(), 50u);
  for (const auto& [s, t] : demands) {
    EXPECT_NE(s, t);
    EXPECT_LT(s.value(), 20u);
    EXPECT_LT(t.value(), 20u);
  }
}

TEST(DemandsTest, NeedsTwoNodes) {
  Rng rng(1);
  EXPECT_THROW((void)random_demands(1, 5, rng), Error);
}

TEST(DemandsTest, GravityDemandsValidAndDeterministic) {
  Rng a(11), b(11);
  const auto topo = nsfnet_topology();
  const auto da = gravity_demands(topo, 60, a);
  const auto db = gravity_demands(topo, 60, b);
  EXPECT_EQ(da, db);
  EXPECT_EQ(da.size(), 60u);
  for (const auto& [s, t] : da) {
    EXPECT_NE(s, t);
    EXPECT_LT(s.value(), 14u);
    EXPECT_LT(t.value(), 14u);
  }
}

TEST(DemandsTest, GravityFavorsCloseHeavyPairs) {
  // Two tight clusters far apart: intra-cluster pairs must dominate.
  Topology topo;
  topo.num_nodes = 6;
  topo.coords = {{0.0, 0.0}, {0.02, 0.0}, {0.0, 0.02},
                 {1.0, 1.0}, {0.98, 1.0}, {1.0, 0.98}};
  // (links are irrelevant to the demand model)
  Rng rng(12);
  const auto demands = gravity_demands(topo, 400, rng);
  std::uint32_t intra = 0;
  for (const auto& [s, t] : demands) {
    const bool s_left = s.value() < 3, t_left = t.value() < 3;
    if (s_left == t_left) ++intra;
  }
  EXPECT_GT(intra, 350u);  // inter-cluster pairs are ~400x down-weighted
}

TEST(DemandsTest, GravityWithoutCoordsStillWorks) {
  const auto topo = ring_topology(8);  // no coords
  Rng rng(13);
  const auto demands = gravity_demands(topo, 40, rng);
  EXPECT_EQ(demands.size(), 40u);
  for (const auto& [s, t] : demands) EXPECT_NE(s, t);
}

TEST(DemandsTest, GravityNeedsTwoNodes) {
  Topology tiny;
  tiny.num_nodes = 1;
  Rng rng(1);
  EXPECT_THROW((void)gravity_demands(tiny, 3, rng), Error);
}

}  // namespace
}  // namespace lumen

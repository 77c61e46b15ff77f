// RouteEngine's saturated-endpoint refusal: when every current slot out
// of s, or every one into t, is +inf (reserved or failed), the residual
// G_{s,t} has Y_s = ∅ or X_t = ∅ and the query returns not found before
// it builds a potential row or searches.  The answer must be the one the
// search would have given; only the stats (0 pops) and the
// stage=saturated telemetry differ.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/liang_shen.h"
#include "core/route_engine.h"
#include "obs/registry.h"
#include "tests/test_util.h"

namespace lumen {
namespace {

using testing::fuzz_network;

constexpr RouteEngine::QueryOptions kModes[] = {{.goal_directed = false},
                                                {.goal_directed = true}};

/// Five nodes, every span in both directions with λ0 at cost 1 and λ1 at
/// cost 2, uniform conversion:  0 - 1, 0 - 2, 1 - 3, 2 - 3, 3 - 4.
WdmNetwork diamond_with_tail() {
  WdmNetwork net(5, 2, std::make_shared<UniformConversion>(0.5));
  const std::uint32_t spans[][2] = {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}};
  for (const auto& [u, v] : spans) {
    for (const auto& [tail, head] : {std::pair{u, v}, std::pair{v, u}}) {
      const LinkId e = net.add_link(NodeId{tail}, NodeId{head});
      net.set_wavelength(e, Wavelength{0}, 1.0);
      net.set_wavelength(e, Wavelength{1}, 2.0);
    }
  }
  return net;
}

/// Reserves every base slot of `links` in the engine and clears it from
/// the residual network that mirrors the engine.
void reserve_links(RouteEngine& engine, WdmNetwork& residual,
                   std::span<const LinkId> links) {
  for (const LinkId e : links) {
    const std::vector<LinkWavelength> slots(residual.available(e).begin(),
                                            residual.available(e).end());
    for (const LinkWavelength& slot : slots) {
      engine.reserve(e, slot.lambda);
      ASSERT_TRUE(residual.clear_wavelength(e, slot.lambda));
    }
  }
}

std::uint64_t stage_count(const char* family) {
  return obs::Registry::global()
      .labeled_counter(family)
      .at(obs::TagSet{}.stage("saturated"))
      .value();
}

/// Routes s -> t in every mode and expects the zero-effort refusal: no
/// search, no potential row (the callers never route goal-directed to t
/// before), and one stage=saturated query of 0 pops per refusal.
void expect_refused_without_search(const RouteEngine& engine, NodeId s,
                                   NodeId t) {
  obs::Counter& misses =
      obs::Registry::global().counter("lumen.core.potential.misses");
  for (const RouteEngine::QueryOptions& query : kModes) {
    SearchScratch scratch;
    const std::uint64_t refusals =
        stage_count("lumen.route.engine.stage_queries");
    const std::uint64_t refused_pops =
        stage_count("lumen.route.engine.stage_pops");
    const std::uint64_t misses_before = misses.value();
    const RouteResult r = engine.route_semilightpath(s, t, scratch, query);
    const std::string context = query.goal_directed ? "goal" : "flat";
    EXPECT_FALSE(r.found) << context;
    EXPECT_EQ(r.cost, kInfiniteCost) << context;
    EXPECT_TRUE(r.path.empty()) << context;
    EXPECT_TRUE(r.switches.empty()) << context;
    EXPECT_EQ(r.stats.search_pops, 0u) << context;
    EXPECT_EQ(r.stats.search_relaxations, 0u) << context;
    EXPECT_EQ(r.stats.potential_pops, 0u) << context;
    EXPECT_EQ(r.stats.aux_nodes, engine.stats().core_nodes) << context;
    if constexpr (obs::kObsEnabled) {
      EXPECT_EQ(stage_count("lumen.route.engine.stage_queries") - refusals, 1u)
          << context;
      EXPECT_EQ(stage_count("lumen.route.engine.stage_pops"), refused_pops)
          << context;
      EXPECT_EQ(misses.value(), misses_before) << context;
    }
  }
}

TEST(SaturatedEndpointTest, EveryOutSlotOfTheSourceReserved) {
  WdmNetwork residual = diamond_with_tail();
  RouteEngine engine(residual);
  reserve_links(engine, residual, residual.out_links(NodeId{0}));
  expect_refused_without_search(engine, NodeId{0}, NodeId{4});
  EXPECT_FALSE(route_semilightpath(residual, NodeId{0}, NodeId{4}).found);
  // The saturated node can still be reached.
  EXPECT_TRUE(engine.route_semilightpath(NodeId{4}, NodeId{0}).found);
}

TEST(SaturatedEndpointTest, EveryInSlotOfTheTargetReserved) {
  WdmNetwork residual = diamond_with_tail();
  RouteEngine engine(residual);
  reserve_links(engine, residual, residual.in_links(NodeId{3}));
  for (const std::uint32_t s : {0u, 1u, 4u})
    expect_refused_without_search(engine, NodeId{s}, NodeId{3});
  EXPECT_FALSE(route_semilightpath(residual, NodeId{0}, NodeId{3}).found);
  // t's own out-slots are free: it is only unreachable.
  EXPECT_TRUE(engine.route_semilightpath(NodeId{3}, NodeId{0}).found);
}

TEST(SaturatedEndpointTest, FailedInSpansOfTheTarget) {
  // A span cut fails both directions of every wavelength: all of t's
  // spans down isolates t both ways.
  WdmNetwork residual = diamond_with_tail();
  RouteEngine engine(residual);
  const NodeId t{3};
  for (const auto links : {residual.in_links(t), residual.out_links(t)}) {
    for (const LinkId e : links) {
      for (const LinkWavelength& slot : residual.available(e))
        engine.set_weight(e, slot.lambda, kInfiniteCost);
    }
  }
  expect_refused_without_search(engine, NodeId{0}, t);
  expect_refused_without_search(engine, t, NodeId{0});
}

TEST(SaturatedEndpointTest, InteriorCutStillSearches) {
  // Free endpoints, no route: 1 -> 3 and 2 -> 3 are reserved, so 0 cannot
  // reach 3 or 4, but 0 has free out-slots and 4 a free in-slot (3 -> 4).
  // Only the search can prove that.
  WdmNetwork residual = diamond_with_tail();
  RouteEngine engine(residual);
  const LinkId cut[] = {residual.in_links(NodeId{3})[0],
                        residual.in_links(NodeId{3})[1]};
  ASSERT_EQ(residual.tail(cut[0]), NodeId{1});
  ASSERT_EQ(residual.tail(cut[1]), NodeId{2});
  reserve_links(engine, residual, cut);
  ASSERT_FALSE(route_semilightpath(residual, NodeId{0}, NodeId{4}).found);
  for (const RouteEngine::QueryOptions& query : kModes) {
    const RouteResult r =
        engine.route_semilightpath(NodeId{0}, NodeId{4}, query);
    EXPECT_FALSE(r.found);
    EXPECT_GT(r.stats.search_pops, 0u) << query.goal_directed;
  }
}

TEST(SaturatedEndpointTest, ReleasingOneInSlotRoutesAgain) {
  WdmNetwork residual = diamond_with_tail();
  RouteEngine engine(residual);
  reserve_links(engine, residual, residual.in_links(NodeId{3}));
  expect_refused_without_search(engine, NodeId{0}, NodeId{3});

  // Release λ1 on 2 -> 3 only: the one route left is 0 -> 2 -> 3 landing
  // on λ1.
  const LinkId e = residual.in_links(NodeId{3})[1];
  ASSERT_EQ(residual.tail(e), NodeId{2});
  engine.set_weight(e, Wavelength{1}, 2.0);
  residual.set_wavelength(e, Wavelength{1}, 2.0);
  const RouteResult reference =
      route_semilightpath(residual, NodeId{0}, NodeId{3});
  ASSERT_TRUE(reference.found);
  for (const RouteEngine::QueryOptions& query : kModes) {
    const RouteResult r =
        engine.route_semilightpath(NodeId{0}, NodeId{3}, query);
    ASSERT_TRUE(r.found) << query.goal_directed;
    EXPECT_EQ(r.cost, reference.cost);
    EXPECT_GT(r.stats.search_pops, 0u);
    EXPECT_TRUE(r.path.is_valid(residual));
    EXPECT_EQ(r.path.hops().back().link, e);
    EXPECT_EQ(r.path.hops().back().wavelength, Wavelength{1});
  }
}

/// True when the residual network leaves no wavelength on any link out of
/// s or on any link into t.
bool saturated(const WdmNetwork& residual, NodeId s, NodeId t) {
  const auto none_free = [&](std::span<const LinkId> links) {
    for (const LinkId e : links)
      if (residual.num_available(e) > 0) return false;
    return true;
  };
  return none_free(residual.out_links(s)) || none_free(residual.in_links(t));
}

TEST(SaturatedEndpointTest, EngineMatchesTheResidualRouterUnderReservations) {
  // Random reservations at three loads; every engine answer must be the
  // per-request router's on the residual network (each held λ cleared).
  // A flat query searches exactly when no endpoint is saturated; a
  // goal-directed one never searches a saturated endpoint (it may also
  // pop nothing when the potential proves every seed dead).
  Rng rng(0x5a7'e0d9ULL);
  int refused = 0;
  int searched = 0;
  for (int iteration = 0; iteration < 60; ++iteration) {
    WdmNetwork residual = fuzz_network(rng);
    RouteEngine engine(residual);
    const double load = 0.3 * (1 + iteration % 3);
    for (std::uint32_t ei = 0; ei < residual.num_links(); ++ei) {
      const LinkId e{ei};
      const std::vector<LinkWavelength> slots(residual.available(e).begin(),
                                              residual.available(e).end());
      for (const LinkWavelength& slot : slots) {
        if (!rng.next_bool(load)) continue;
        engine.reserve(e, slot.lambda);
        residual.clear_wavelength(e, slot.lambda);
      }
    }
    SearchScratch scratch;
    for (int query = 0; query < 12; ++query) {
      const NodeId s{
          static_cast<std::uint32_t>(rng.next_below(residual.num_nodes()))};
      const NodeId t{
          static_cast<std::uint32_t>(rng.next_below(residual.num_nodes()))};
      const RouteResult reference = route_semilightpath(residual, s, t);
      const bool refuse = s != t && saturated(residual, s, t);
      (refuse ? refused : searched) += 1;
      for (const RouteEngine::QueryOptions& mode : kModes) {
        const RouteResult r = engine.route_semilightpath(s, t, scratch, mode);
        const std::string context =
            "iteration " + std::to_string(iteration) + " s=" +
            std::to_string(s.value()) + " t=" + std::to_string(t.value()) +
            (mode.goal_directed ? " goal" : " flat");
        ASSERT_EQ(r.found, reference.found) << context;
        if (reference.found) {
          EXPECT_NEAR(r.cost, reference.cost, 1e-9) << context;
        }
        if (refuse) {
          EXPECT_EQ(r.stats.search_pops, 0u) << context;
          EXPECT_EQ(r.stats.potential_pops, 0u) << context;
        } else if (s != t && !mode.goal_directed) {
          EXPECT_GT(r.stats.search_pops, 0u) << context;
        }
      }
    }
  }
  EXPECT_GT(refused, 50);
  EXPECT_GT(searched, 200);
}

}  // namespace
}  // namespace lumen

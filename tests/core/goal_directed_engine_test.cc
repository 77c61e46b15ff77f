// Goal-directed RouteEngine equivalence: the A* search (ALT landmarks
// max-combined with the cached per-target reverse-Dijkstra potential)
// must return *bit-identical* costs to the engine's uninformed Dijkstra —
// both searches relax the same weights with the same left-to-right
// additions, so even tied optima are the same double — and must match the
// per-request reference router to rounding, on random networks and under
// interleaved reserve/release/fail/repair churn (the residual-safety
// invariant: base-weight potentials stay admissible because patches only
// ever raise weights).
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/goal_directed.h"
#include "core/liang_shen.h"
#include "core/route_engine.h"
#include "rwa/session_manager.h"
#include "tests/test_util.h"
#include "util/error.h"

namespace lumen {
namespace {

using testing::ConvKind;
using testing::fuzz_network;
using testing::paper_example_network;
using testing::random_network;

constexpr ConvKind kAllKinds[] = {
    ConvKind::kNone, ConvKind::kUniform, ConvKind::kRange, ConvKind::kSparse,
    ConvKind::kRandomMatrix};

WdmNetwork random_engine_network(Rng& rng) {
  const std::uint32_t n = 4 + static_cast<std::uint32_t>(rng.next_below(12));
  const std::uint32_t k = 2 + static_cast<std::uint32_t>(rng.next_below(5));
  const std::uint32_t k0 = 1 + static_cast<std::uint32_t>(rng.next_below(k));
  const ConvKind kind = kAllKinds[rng.next_below(std::size(kAllKinds))];
  return random_network(n, n, k, k0, kind, rng);
}

constexpr RouteEngine::QueryOptions kCombined{.goal_directed = true};
constexpr RouteEngine::QueryOptions kTargetOnly{.goal_directed = true,
                                                .use_landmarks = false};
constexpr RouteEngine::QueryOptions kLandmarksOnly{
    .goal_directed = true, .use_target_potential = false};

/// Every goal-directed flavor must agree with the engine's own uninformed
/// search exactly (same costs as doubles, same feasibility) and produce a
/// valid path of the claimed cost.
void expect_modes_identical(const WdmNetwork& net, RouteEngine& engine,
                            NodeId s, NodeId t) {
  const RouteResult plain = engine.route_semilightpath(s, t);
  for (const auto& query : {kCombined, kTargetOnly, kLandmarksOnly}) {
    const RouteResult goal = engine.route_semilightpath(s, t, query);
    ASSERT_EQ(plain.found, goal.found)
        << "s=" << s.value() << " t=" << t.value();
    // Bit-identical, not NEAR: both searches sum the same weights in the
    // same order along the optimal parent chain.
    EXPECT_EQ(plain.cost, goal.cost) << "s=" << s.value() << " t=" << t.value();
    if (!goal.found || s == t) continue;
    EXPECT_TRUE(goal.path.is_valid(net));
    EXPECT_EQ(goal.path.source(net), s);
    EXPECT_EQ(goal.path.destination(net), t);
    EXPECT_NEAR(goal.path.cost(net), goal.cost, 1e-9);
  }
}

TEST(GoalDirectedEngineTest, PaperExampleAllPairsAllModes) {
  const WdmNetwork net = paper_example_network();
  RouteEngine engine(net);
  for (std::uint32_t s = 0; s < net.num_nodes(); ++s) {
    for (std::uint32_t t = 0; t < net.num_nodes(); ++t) {
      expect_modes_identical(net, engine, NodeId{s}, NodeId{t});
      const RouteResult reference =
          route_semilightpath(net, NodeId{s}, NodeId{t});
      const RouteResult goal =
          engine.route_semilightpath(NodeId{s}, NodeId{t}, kCombined);
      ASSERT_EQ(reference.found, goal.found);
      if (reference.found) {
        EXPECT_NEAR(reference.cost, goal.cost, 1e-9);
      }
    }
  }
}

class GoalDirectedEngineFuzz : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(GoalDirectedEngineFuzz, EquivalenceOnRandomNetworks) {
  Rng rng(GetParam());
  // 5 structured + 2 degenerate networks per seed; 10 seeds → 70 nets.
  for (int iteration = 0; iteration < 7; ++iteration) {
    const WdmNetwork net =
        iteration < 5 ? random_engine_network(rng) : fuzz_network(rng);
    if (net.num_nodes() < 2) continue;
    RouteEngine engine(net);
    std::uint64_t plain_pops = 0;
    std::uint64_t goal_pops = 0;
    for (int query = 0; query < 8; ++query) {
      const NodeId s{
          static_cast<std::uint32_t>(rng.next_below(net.num_nodes()))};
      const NodeId t{
          static_cast<std::uint32_t>(rng.next_below(net.num_nodes()))};
      expect_modes_identical(net, engine, s, t);
      const RouteResult reference = route_semilightpath(net, s, t);
      const RouteResult plain = engine.route_semilightpath(s, t);
      const RouteResult goal = engine.route_semilightpath(s, t, kCombined);
      ASSERT_EQ(reference.found, goal.found)
          << "s=" << s.value() << " t=" << t.value();
      if (reference.found) {
        EXPECT_NEAR(reference.cost, goal.cost, 1e-9);
      }
      plain_pops += plain.stats.search_pops;
      goal_pops += goal.stats.search_pops;
      EXPECT_EQ(goal.stats.search_settled, goal.stats.search_pops);
      EXPECT_EQ(plain.stats.search_pruned, 0u);
    }
    // A consistent potential never settles more nodes than the uninformed
    // search (up to f-ties at exactly the optimum, which wash out in the
    // aggregate across queries).
    EXPECT_LE(goal_pops, plain_pops);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoalDirectedEngineFuzz,
                         ::testing::Values(0xa17'0001ULL, 0xa17'0002ULL,
                                           0xa17'0003ULL, 0xa17'0004ULL,
                                           0xa17'0005ULL, 0xa17'0006ULL,
                                           0xa17'0007ULL, 0xa17'0008ULL,
                                           0xa17'0009ULL, 0xa17'000aULL));

TEST(GoalDirectedEngineTest, ChurnKeepsBaseBoundsAdmissible) {
  // Interleave reserve / release / span-fail / repair on the engine while
  // mirroring every change into an oracle WdmNetwork; after each batch the
  // goal-directed search must still match the uninformed engine exactly
  // and the per-request router on the oracle.  This is the invariant the
  // whole design rests on: the potentials are never recomputed, yet stay
  // admissible because weights only ever rise above base.
  Rng rng(0x6d1'c4a2'2026ULL);
  for (int iteration = 0; iteration < 12; ++iteration) {
    WdmNetwork oracle = random_engine_network(rng);
    RouteEngine engine(oracle);

    struct Claim {
      LinkId link;
      Wavelength lambda;
      double cost = 0.0;
      RouteEngine::ReserveHandle handle;
      bool failed = false;  // true: set_weight(inf) fail, not a reserve
    };
    std::vector<Claim> claims;

    for (int step = 0; step < 30; ++step) {
      const int action = static_cast<int>(rng.next_below(4));
      if (action == 0 || claims.empty()) {
        // Reserve or fail a random still-available (link, λ).
        const LinkId e{
            static_cast<std::uint32_t>(rng.next_below(oracle.num_links()))};
        if (oracle.num_links() == 0 || oracle.num_available(e) == 0) continue;
        const LinkWavelength lw =
            oracle.available(e)[rng.next_below(oracle.num_available(e))];
        Claim claim{e, lw.lambda, lw.cost, {}, rng.next_bool(0.4)};
        ASSERT_TRUE(oracle.clear_wavelength(e, claim.lambda));
        if (claim.failed) {
          engine.set_weight(e, claim.lambda, kInfiniteCost);
        } else {
          claim.handle = engine.reserve(e, claim.lambda);
        }
        claims.push_back(claim);
      } else {
        // Release / repair a random outstanding claim.
        const std::size_t i = rng.next_below(claims.size());
        const Claim claim = claims[i];
        claims.erase(claims.begin() + static_cast<std::ptrdiff_t>(i));
        oracle.set_wavelength(claim.link, claim.lambda, claim.cost);
        if (claim.failed) {
          engine.set_weight(claim.link, claim.lambda, claim.cost);
        } else {
          engine.release(claim.handle);
        }
      }

      const NodeId s{
          static_cast<std::uint32_t>(rng.next_below(oracle.num_nodes()))};
      const NodeId t{
          static_cast<std::uint32_t>(rng.next_below(oracle.num_nodes()))};
      expect_modes_identical(oracle, engine, s, t);
      const RouteResult reference = route_semilightpath(oracle, s, t);
      const RouteResult goal = engine.route_semilightpath(s, t, kCombined);
      ASSERT_EQ(reference.found, goal.found)
          << "s=" << s.value() << " t=" << t.value() << " step=" << step;
      if (reference.found) {
        EXPECT_NEAR(reference.cost, goal.cost, 1e-9);
      }
    }
  }
}

TEST(GoalDirectedEngineTest, RouteManyGoalDirectedMatchesSequential) {
  Rng rng(0xba7c'0de5ULL);
  const WdmNetwork net = random_network(40, 60, 5, 3, ConvKind::kUniform, rng);
  RouteEngine engine(net);

  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 64; ++i) {
    pairs.emplace_back(
        NodeId{static_cast<std::uint32_t>(rng.next_below(net.num_nodes()))},
        NodeId{static_cast<std::uint32_t>(rng.next_below(net.num_nodes()))});
  }
  const std::vector<RouteResult> parallel = engine.route_many(
      pairs, 4, RouteEngine::QueryKind::kSemilightpath, kCombined);
  ASSERT_EQ(parallel.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const RouteResult plain =
        engine.route_semilightpath(pairs[i].first, pairs[i].second);
    ASSERT_EQ(plain.found, parallel[i].found) << i;
    EXPECT_EQ(plain.cost, parallel[i].cost) << i;
  }
}

TEST(GoalDirectedEngineTest, SessionManagerPolicyParity) {
  // The goal-directed policy must make the same accept/block decisions at
  // the same costs as the uninformed engine policy across a full workload
  // with departures and a span failure/repair cycle.
  Rng rng(0x90a1'd1ecULL);
  const WdmNetwork net = random_network(24, 36, 4, 2, ConvKind::kUniform, rng);
  SessionManager plain(net, RoutingPolicy::kSemilightpathEngine);
  SessionManager goal(net, RoutingPolicy::kGoalDirectedEngine);
  ASSERT_NE(goal.engine(), nullptr);  // engine policies build an engine

  std::vector<std::pair<std::optional<SessionId>, std::optional<SessionId>>>
      open_sessions;
  Rng workload(0x77'2026ULL);
  for (int step = 0; step < 200; ++step) {
    if (step == 80) {
      const NodeId a{static_cast<std::uint32_t>(workload.next_below(24))};
      const NodeId b{static_cast<std::uint32_t>(workload.next_below(24))};
      (void)plain.fail_span(a, b);
      (void)goal.fail_span(a, b);
    }
    if (step == 140) {
      const NodeId a{static_cast<std::uint32_t>(workload.next_below(24))};
      const NodeId b{static_cast<std::uint32_t>(workload.next_below(24))};
      plain.repair_span(a, b);
      goal.repair_span(a, b);
    }
    if (!open_sessions.empty() && workload.next_bool(0.3)) {
      const std::size_t i = workload.next_below(open_sessions.size());
      const auto [p, g] = open_sessions[i];
      open_sessions.erase(open_sessions.begin() +
                          static_cast<std::ptrdiff_t>(i));
      if (p) plain.close(*p);
      if (g) goal.close(*g);
      continue;
    }
    const auto s = static_cast<std::uint32_t>(workload.next_below(24));
    auto t = static_cast<std::uint32_t>(workload.next_below(24));
    if (s == t) t = (t + 1) % 24;
    const auto p = plain.open(NodeId{s}, NodeId{t});
    const auto g = goal.open(NodeId{s}, NodeId{t});
    ASSERT_EQ(p.has_value(), g.has_value()) << "step=" << step;
    if (p && g) {
      EXPECT_NEAR(plain.find(*p)->cost, goal.find(*g)->cost, 1e-9)
          << "step=" << step;
      open_sessions.emplace_back(p, g);
    }
  }
  EXPECT_EQ(plain.stats().carried, goal.stats().carried);
  EXPECT_EQ(plain.stats().blocked, goal.stats().blocked);
  EXPECT_NEAR(plain.stats().carried_cost_sum, goal.stats().carried_cost_sum,
              1e-6);
}

TEST(GoalDirectedEngineTest, ZeroLandmarksAndDisabledTermsStillExact) {
  Rng rng(0x0'1a27ULL);
  const WdmNetwork net = random_network(30, 45, 4, 2, ConvKind::kSparse, rng);
  RouteEngine engine(net, RouteEngine::Options{.num_landmarks = 0});
  EXPECT_EQ(engine.stats().landmarks, 0u);
  for (int query = 0; query < 20; ++query) {
    const NodeId s{static_cast<std::uint32_t>(rng.next_below(30))};
    const NodeId t{static_cast<std::uint32_t>(rng.next_below(30))};
    const RouteResult plain = engine.route_semilightpath(s, t);
    // kLandmarksOnly on a 0-landmark engine degenerates to plain Dijkstra
    // through the A* code path (potential ≡ 0) — still exact.
    for (const auto& query_opts : {kCombined, kTargetOnly, kLandmarksOnly}) {
      const RouteResult goal = engine.route_semilightpath(s, t, query_opts);
      ASSERT_EQ(plain.found, goal.found);
      EXPECT_EQ(plain.cost, goal.cost);
    }
  }
}

TEST(GoalDirectedEngineTest, SetWeightBelowBaseIsRejected) {
  const WdmNetwork net = paper_example_network();
  RouteEngine engine(net);
  const LinkId e{0};
  const Wavelength lambda = net.available(e)[0].lambda;
  const double base = engine.weight(e, lambda);
  // Raising (fail) and restoring (repair) are fine; discounting below the
  // build-time base would break the admissibility of the frozen potentials
  // and must be refused.
  engine.set_weight(e, lambda, kInfiniteCost);
  engine.set_weight(e, lambda, base);
  EXPECT_THROW(engine.set_weight(e, lambda, base * 0.5), Error);
}

TEST(GoalDirectedEngineTest, StandaloneCacheMatchesAndReuses) {
  // The cached standalone A* must equal the uncached overload and the
  // plain router; reusing the cache across targets stays correct.
  Rng rng(0xcac'8e01ULL);
  const WdmNetwork net = random_network(40, 60, 5, 3, ConvKind::kRange, rng);
  AstarPotentialCache cache;
  EXPECT_FALSE(cache.warm());
  for (int query = 0; query < 25; ++query) {
    const NodeId s{static_cast<std::uint32_t>(rng.next_below(40))};
    const NodeId t{static_cast<std::uint32_t>(rng.next_below(40))};
    const RouteResult reference = route_semilightpath(net, s, t);
    const RouteResult cached = route_semilightpath_astar(net, s, t, cache);
    const RouteResult uncached = route_semilightpath_astar(net, s, t);
    ASSERT_EQ(reference.found, cached.found);
    ASSERT_EQ(reference.found, uncached.found);
    if (reference.found) {
      EXPECT_NEAR(reference.cost, cached.cost, 1e-9);
      EXPECT_EQ(uncached.cost, cached.cost);
    }
    if (s != t) {
      EXPECT_TRUE(cache.warm());
    }
  }
  cache.invalidate();
  EXPECT_FALSE(cache.warm());
}

TEST(GoalDirectedEngineTest, PrunedAndSettledStatsAreConsistent) {
  // A network with a dead appendix: goal direction must prove the branch
  // hopeless (directed ∞ bounds) and report the prunes it made.
  WdmNetwork net(12, 2, std::make_shared<UniformConversion>(0.1));
  for (std::uint32_t i = 0; i < 2; ++i) {
    const LinkId e = net.add_link(NodeId{i}, NodeId{i + 1});
    net.set_wavelength(e, Wavelength{0}, 1.0);
  }
  {
    const LinkId e = net.add_link(NodeId{0}, NodeId{3});
    net.set_wavelength(e, Wavelength{0}, 0.01);
  }
  for (std::uint32_t i = 3; i < 11; ++i) {
    const LinkId e = net.add_link(NodeId{i}, NodeId{i + 1});
    net.set_wavelength(e, Wavelength{0}, 0.01);
  }
  RouteEngine engine(net);
  const RouteResult plain = engine.route_semilightpath(NodeId{0}, NodeId{2});
  const RouteResult goal =
      engine.route_semilightpath(NodeId{0}, NodeId{2}, kCombined);
  ASSERT_TRUE(plain.found);
  ASSERT_TRUE(goal.found);
  EXPECT_EQ(plain.cost, goal.cost);
  EXPECT_LT(goal.stats.search_pops, plain.stats.search_pops);
  EXPECT_GT(goal.stats.search_pruned, 0u);
  EXPECT_EQ(plain.stats.search_pruned, 0u);
}

}  // namespace
}  // namespace lumen

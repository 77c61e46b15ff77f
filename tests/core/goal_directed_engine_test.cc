// Goal-directed RouteEngine equivalence: the A* search (the shared,
// budget-capped per-target reverse-Dijkstra potential, max-combined with
// ALT landmark bounds on engines built with landmarks) must return
// *bit-identical* costs to the engine's uninformed Dijkstra — both
// searches relax the same weights with the same left-to-right additions,
// so even tied optima are the same double — and must match the
// per-request reference router to rounding, on random networks and under
// interleaved reserve/release/fail/repair churn (the residual-safety
// invariant: base-weight potentials stay admissible because patches only
// ever raise weights).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "core/liang_shen.h"
#include "core/route_engine.h"
#include "obs/registry.h"
#include "tests/session_checks.h"
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
/// The ALT side of the ablation: landmarks are off by default, so engines
/// that must cover the max-combined potential ask for them explicitly.
constexpr RouteEngine::Options kWithLandmarks{.num_landmarks = 8};
/// The target-only ablation: kCombined on an engine without landmarks.
constexpr RouteEngine::Options kNoLandmarks{.num_landmarks = 0};

/// Every goal-directed flavor must agree with the engine's own uninformed
/// search exactly (same costs as doubles, same feasibility) and produce a
/// valid path of the claimed cost.  `engine` is built with kWithLandmarks,
/// `target_only` over the same network (and patches) with kNoLandmarks.
void expect_modes_identical(const WdmNetwork& net, RouteEngine& engine,
                            RouteEngine& target_only, NodeId s, NodeId t) {
  const RouteResult plain = engine.route_semilightpath(s, t);
  for (const RouteResult& goal :
       {engine.route_semilightpath(s, t, kCombined),
        target_only.route_semilightpath(s, t, kCombined)}) {
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
  RouteEngine engine(net, kWithLandmarks);
  RouteEngine target_only(net, kNoLandmarks);
  for (std::uint32_t s = 0; s < net.num_nodes(); ++s) {
    for (std::uint32_t t = 0; t < net.num_nodes(); ++t) {
      expect_modes_identical(net, engine, target_only, NodeId{s}, NodeId{t});
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
    RouteEngine engine(net, kWithLandmarks);
    RouteEngine target_only(net, kNoLandmarks);
    std::uint64_t plain_pops = 0;
    std::uint64_t goal_pops = 0;
    for (int query = 0; query < 8; ++query) {
      const NodeId s{
          static_cast<std::uint32_t>(rng.next_below(net.num_nodes()))};
      const NodeId t{
          static_cast<std::uint32_t>(rng.next_below(net.num_nodes()))};
      expect_modes_identical(net, engine, target_only, s, t);
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
  // admissible because weights only ever rise above base.  Inputs: 12
  // structured networks, then 20 degenerate fuzz_network ones (possibly
  // linkless, wavelength-free or with zero-cost links).
  Rng rng(0x6d1'c4a2'2026ULL);
  for (int iteration = 0; iteration < 32; ++iteration) {
    WdmNetwork oracle =
        iteration < 12 ? random_engine_network(rng) : fuzz_network(rng);
    RouteEngine engine(oracle, kWithLandmarks);
    RouteEngine target_only(oracle, kNoLandmarks);

    struct Claim {
      LinkId link;
      Wavelength lambda;
      double cost = 0.0;
      bool failed = false;  // true: set_weight(inf) fail, not a reserve
    };
    std::vector<Claim> claims;

    for (int step = 0; step < 30; ++step) {
      const int action = static_cast<int>(rng.next_below(4));
      if (action == 0 || claims.empty()) {
        // Reserve or fail a random still-available (link, λ).
        if (oracle.num_links() == 0) continue;
        const LinkId e{
            static_cast<std::uint32_t>(rng.next_below(oracle.num_links()))};
        if (oracle.num_available(e) == 0) continue;
        const LinkWavelength lw =
            oracle.available(e)[rng.next_below(oracle.num_available(e))];
        Claim claim{e, lw.lambda, lw.cost, rng.next_bool(0.4)};
        ASSERT_TRUE(oracle.clear_wavelength(e, claim.lambda));
        if (claim.failed) {
          engine.set_weight(e, claim.lambda, kInfiniteCost);
          target_only.set_weight(e, claim.lambda, kInfiniteCost);
        } else {
          engine.reserve(e, claim.lambda);
          target_only.reserve(e, claim.lambda);
        }
        claims.push_back(claim);
      } else {
        // Release / repair a random outstanding claim.
        const std::size_t i = rng.next_below(claims.size());
        const Claim claim = claims[i];
        claims.erase(claims.begin() + static_cast<std::ptrdiff_t>(i));
        // Release and repair are the same write: the base cost back.
        oracle.set_wavelength(claim.link, claim.lambda, claim.cost);
        engine.set_weight(claim.link, claim.lambda, claim.cost);
        target_only.set_weight(claim.link, claim.lambda, claim.cost);
      }

      const NodeId s{
          static_cast<std::uint32_t>(rng.next_below(oracle.num_nodes()))};
      const NodeId t{
          static_cast<std::uint32_t>(rng.next_below(oracle.num_nodes()))};
      expect_modes_identical(oracle, engine, target_only, s, t);
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

/// Goal-directed answers to `pairs` from `threads` std::threads that share
/// `engine` read-only, each with its own SearchScratch: worker w answers
/// pairs w, w + threads, ...  results[i] answers pairs[i].
std::vector<RouteResult> route_on_threads(
    const RouteEngine& engine,
    const std::vector<std::pair<NodeId, NodeId>>& pairs, unsigned threads) {
  std::vector<RouteResult> results(pairs.size());
  const auto work = [&](std::size_t first) {
    SearchScratch scratch;
    for (std::size_t i = first; i < pairs.size(); i += threads)
      results[i] = engine.route_semilightpath(pairs[i].first, pairs[i].second,
                                              scratch, kCombined);
  };
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < threads; ++w) workers.emplace_back(work, w);
  for (std::thread& worker : workers) worker.join();
  return results;
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
  const std::vector<RouteResult> parallel = route_on_threads(engine, pairs, 4);
  ASSERT_EQ(parallel.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const RouteResult plain =
        engine.route_semilightpath(pairs[i].first, pairs[i].second);
    ASSERT_EQ(plain.found, parallel[i].found) << i;
    EXPECT_EQ(plain.cost, parallel[i].cost) << i;
  }
}

TEST(GoalDirectedEngineTest, SessionManagerPolicyParity) {
  // The live engine's flat and goal-directed answers, and a fresh
  // rebuild's goal-directed answer, must agree with every accept/block
  // decision and cost of the engine policy across a full workload with
  // departures and a span failure/repair cycle.  Two (net, tape) inputs.
  for (const auto& [net_seed, tape_seed] :
       {std::pair{0x90a1'd1ecULL, 0x77'2026ULL},
        std::pair{0x91a2'77feULL, 0x88'2026ULL}}) {
    Rng rng(net_seed);
    const WdmNetwork net =
        random_network(24, 36, 4, 2, ConvKind::kUniform, rng);
    testing::run_policy_parity_tape(net, tape_seed);
  }
}

TEST(GoalDirectedEngineTest, ZeroLandmarksAndDisabledTermsStillExact) {
  Rng rng(0x0'1a27ULL);
  const WdmNetwork net = random_network(30, 45, 4, 2, ConvKind::kSparse, rng);
  RouteEngine engine(net, kNoLandmarks);
  EXPECT_EQ(engine.stats().landmarks, 0u);
  for (int query = 0; query < 20; ++query) {
    const NodeId s{static_cast<std::uint32_t>(rng.next_below(30))};
    const NodeId t{static_cast<std::uint32_t>(rng.next_below(30))};
    const RouteResult plain = engine.route_semilightpath(s, t);
    // A 0-landmark engine runs A* on the per-target term alone — still
    // exact.
    const RouteResult goal = engine.route_semilightpath(s, t, kCombined);
    ASSERT_EQ(plain.found, goal.found);
    EXPECT_EQ(plain.cost, goal.cost);
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
  // The per-target potential lives in the caller's SearchScratch: a
  // same-target query must read the cached row instead of recomputing it,
  // and every query must still match the plain engine and the reference
  // router.  Reuse is made visible by overwriting the cached row with the
  // zero potential (admissible, so the answer stays exact): a query that
  // reads it searches exactly like the uninformed Dijkstra.
  Rng rng(0xcac'8e01ULL);
  const WdmNetwork net = random_network(40, 60, 5, 3, ConvKind::kRange, rng);
  RouteEngine engine(net, kNoLandmarks);
  SearchScratch scratch;
  SearchScratch::TargetPotential& cached = scratch.target_potential();
  EXPECT_EQ(cached.owner, 0u);
  std::uint32_t reused = 0;
  for (int query = 0; query < 25; ++query) {
    const NodeId s{static_cast<std::uint32_t>(rng.next_below(40))};
    const NodeId t{static_cast<std::uint32_t>(rng.next_below(40))};
    const RouteResult reference = route_semilightpath(net, s, t);
    const RouteResult plain = engine.route_semilightpath(s, t);
    const RouteResult goal =
        engine.route_semilightpath(s, t, scratch, kCombined);
    ASSERT_EQ(reference.found, goal.found);
    ASSERT_EQ(plain.found, goal.found);
    if (reference.found) {
      EXPECT_NEAR(reference.cost, goal.cost, 1e-9);
      EXPECT_EQ(plain.cost, goal.cost);
    }
    if (s == t) continue;
    EXPECT_NE(cached.owner, 0u);
    EXPECT_EQ(cached.target, t.value());

    // Same target, other source: the zeroed row must be what it searches.
    const NodeId other{(s.value() + 1) % 40};
    if (other == t) continue;
    std::fill(cached.dist.begin(), cached.dist.end(), 0.0);
    const RouteResult again =
        engine.route_semilightpath(other, t, scratch, kCombined);
    const RouteResult uninformed = engine.route_semilightpath(other, t);
    ASSERT_EQ(uninformed.found, again.found);
    EXPECT_EQ(uninformed.cost, again.cost);
    EXPECT_EQ(uninformed.stats.search_pops, again.stats.search_pops);
    EXPECT_EQ(again.stats.search_pruned, 0u);
    ++reused;
  }
  EXPECT_GT(reused, 10u);
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

  // Every engine search surfaces its CsrRunStats on the
  // lumen.core.search.* counters: the exported deltas of one A* query
  // equal the result's own stats, prunes included.
  obs::Counter& pruned =
      obs::Registry::global().counter("lumen.core.search.pruned");
  obs::Counter& pops = obs::Registry::global().counter("lumen.core.search.pops");
  const std::uint64_t pruned_before = pruned.value();
  const std::uint64_t pops_before = pops.value();
  const RouteResult again =
      engine.route_semilightpath(NodeId{0}, NodeId{2}, kCombined);
  ASSERT_TRUE(again.found);
  EXPECT_EQ(again.cost, goal.cost);
  if constexpr (obs::kObsEnabled) {
    EXPECT_EQ(pruned.value() - pruned_before, again.stats.search_pruned);
    EXPECT_EQ(pops.value() - pops_before, again.stats.search_pops);
  }
}

/// Adds the one-wavelength link u -> v of cost `cost`.
void add_hop(WdmNetwork& net, std::uint32_t u, std::uint32_t v, double cost) {
  const LinkId e = net.add_link(NodeId{u}, NodeId{v});
  net.set_wavelength(e, Wavelength{0}, cost);
}

/// A goal-directed query on `engine` through `scratch` that must match the
/// engine's flat optimum and the per-request router.
RouteResult expect_flat_optimum(const WdmNetwork& net, RouteEngine& engine,
                                SearchScratch& scratch, NodeId s, NodeId t) {
  const RouteResult goal = engine.route_semilightpath(s, t, scratch, kCombined);
  const RouteResult plain = engine.route_semilightpath(s, t);
  const RouteResult reference = route_semilightpath(net, s, t);
  EXPECT_EQ(plain.found, goal.found) << "s=" << s.value();
  EXPECT_EQ(reference.found, goal.found) << "s=" << s.value();
  EXPECT_EQ(plain.cost, goal.cost) << "s=" << s.value();
  if (goal.found) {
    EXPECT_NEAR(reference.cost, goal.cost, 1e-9);
    EXPECT_TRUE(goal.path.is_valid(net));
  }
  return goal;
}

TEST(GoalDirectedEngineTest, DefaultEngineBuildsNoLandmarks) {
  const WdmNetwork net = paper_example_network();
  EXPECT_EQ(RouteEngine(net).stats().landmarks, 0u);
  EXPECT_GT(RouteEngine(net, kWithLandmarks).stats().landmarks, 0u);
}

/// Nodes of the long test networks: above every reverse-search pop
/// budget, so their potential rows are capped at a finite radius.
constexpr std::uint32_t kLongNodes = 1200;

/// The potential the scratch's expanded row gives node v.
double row_bound(const SearchScratch::TargetPotential& row, std::uint32_t v) {
  return std::min(row.dist[v], row.radius);
}

TEST(GoalDirectedEngineTest, OneCappedRowServesSourcesInsideAndOutsideItsBall) {
  // A bidirectional line 0 - 1 - ... - (kLongNodes - 1) of unit links:
  // d_base(v, 0) = v, so the budgeted reverse search from t = 0 settles
  // 0, 1, 2, ... in order and stops at an integral radius r_B well short
  // of the line's end.  The row is t's alone: sources inside and outside
  // the ball reach the flat optimum through it, and only the first query
  // builds it.
  WdmNetwork net(kLongNodes, 1, std::make_shared<UniformConversion>(0.5));
  for (std::uint32_t v = 0; v + 1 < kLongNodes; ++v) {
    add_hop(net, v, v + 1, 1.0);
    add_hop(net, v + 1, v, 1.0);
  }
  RouteEngine engine(net);
  SearchScratch scratch;
  const SearchScratch::TargetPotential& row = scratch.target_potential();
  const NodeId t{0};

  const RouteResult first =
      expect_flat_optimum(net, engine, scratch, NodeId{5}, t);
  EXPECT_GT(first.stats.potential_pops, 0u);
  const double radius = row.radius;
  EXPECT_LT(radius, static_cast<double>(kLongNodes - 1));
  EXPECT_EQ(radius, std::floor(radius));
  EXPECT_EQ(static_cast<double>(first.stats.potential_pops), radius);
  for (std::uint32_t v = 0; v < kLongNodes; ++v)
    EXPECT_EQ(row_bound(row, v), std::min(static_cast<double>(v), radius))
        << v;

  // s2 lies far outside the ball: the same row serves it, unbuilt.
  const NodeId outside{kLongNodes - 3};
  const RouteResult far = expect_flat_optimum(net, engine, scratch, outside, t);
  EXPECT_EQ(far.stats.potential_pops, 0u);
  EXPECT_EQ(row.radius, radius);

  // A fresh scratch (another thread) reads the published row too.
  SearchScratch other;
  const RouteResult middle = expect_flat_optimum(
      net, engine, other, NodeId{static_cast<std::uint32_t>(radius) / 2}, t);
  EXPECT_EQ(middle.stats.potential_pops, 0u);
  EXPECT_EQ(other.target_potential().radius, radius);

  // A retry of the same (s, t), as after a lost commit, builds nothing.
  const RouteResult retry =
      expect_flat_optimum(net, engine, scratch, outside, t);
  EXPECT_EQ(retry.stats.potential_pops, 0u);
}

TEST(GoalDirectedEngineTest, DeadAppendixWithLiveFrontierStaysCapped) {
  // As PrunedAndSettledStatsAreConsistent, plus a chain of kLongNodes
  // nodes feeding t whose links keep the reverse frontier non-empty when
  // the pop budget runs out.  The dead appendix 3..11 then cannot be
  // proved dead: its row entries are the radius, nothing is pruned, and
  // the optimum is unchanged.
  const std::uint32_t n = 12 + kLongNodes;
  WdmNetwork net(n, 2, std::make_shared<UniformConversion>(0.1));
  add_hop(net, 0, 1, 1.0);
  add_hop(net, 1, 2, 1.0);
  add_hop(net, 0, 3, 0.01);
  for (std::uint32_t i = 3; i < 11; ++i) add_hop(net, i, i + 1, 0.01);
  add_hop(net, 12, 2, 5.0);
  for (std::uint32_t i = 12; i + 1 < n; ++i) add_hop(net, i + 1, i, 5.0);
  RouteEngine engine(net);
  SearchScratch scratch;
  const RouteResult goal =
      expect_flat_optimum(net, engine, scratch, NodeId{0}, NodeId{2});
  ASSERT_TRUE(goal.found);
  EXPECT_EQ(goal.cost, 2.0);
  const SearchScratch::TargetPotential& row = scratch.target_potential();
  EXPECT_GT(row.radius, 2.0);
  EXPECT_LT(row.radius, kInfiniteCost);
  for (std::uint32_t v = 3; v < 12; ++v)
    EXPECT_EQ(row_bound(row, v), row.radius) << v;
  EXPECT_EQ(goal.stats.search_pruned, 0u);
}

TEST(GoalDirectedEngineTest, EmptyFrontierAtSourceDoesNotProveNodesBehindIt) {
  // t = 0 <- s = 1 <- 2 <- 3: the reverse search from t settles s with an
  // empty heap, before relaxing s's own reverse links.  Nodes 2 and 3
  // reach t only through s, so the row must bound them by the radius, not
  // mark them unreachable; a later query from behind s through the same
  // scratch must still find its route.
  WdmNetwork net(4, 1, std::make_shared<UniformConversion>(0.5));
  add_hop(net, 1, 0, 1.0);
  add_hop(net, 2, 1, 1.0);
  add_hop(net, 3, 2, 1.0);
  RouteEngine engine(net);
  SearchScratch scratch;
  const NodeId t{0};
  const RouteResult near =
      expect_flat_optimum(net, engine, scratch, NodeId{1}, t);
  ASSERT_TRUE(near.found);
  for (const std::uint32_t behind : {2u, 3u}) {
    const RouteResult far =
        expect_flat_optimum(net, engine, scratch, NodeId{behind}, t);
    ASSERT_TRUE(far.found) << behind;
    EXPECT_EQ(far.cost, static_cast<double>(behind));
  }
}

TEST(GoalDirectedEngineTest, PotentialCountersMatchQueryStats) {
  Rng rng(0x9e7'c0deULL);
  const WdmNetwork net = random_network(40, 60, 4, 2, ConvKind::kUniform, rng);
  RouteEngine engine(net);
  SearchScratch scratch;
  obs::Counter& pops =
      obs::Registry::global().counter("lumen.core.potential.pops");
  obs::Counter& misses =
      obs::Registry::global().counter("lumen.core.potential.misses");
  // A cold query runs the reverse search; its exact repeat hits the row.
  for (const std::uint64_t expected_misses : {1u, 0u}) {
    const std::uint64_t pops_before = pops.value();
    const std::uint64_t misses_before = misses.value();
    const RouteResult r =
        engine.route_semilightpath(NodeId{1}, NodeId{30}, scratch, kCombined);
    EXPECT_EQ(r.stats.potential_pops > 0, expected_misses == 1);
    if constexpr (obs::kObsEnabled) {
      EXPECT_EQ(misses.value() - misses_before, expected_misses);
      EXPECT_EQ(pops.value() - pops_before, r.stats.potential_pops);
    }
  }
  // Uninformed searches never build a potential.
  const RouteResult plain = engine.route_semilightpath(NodeId{1}, NodeId{30});
  EXPECT_EQ(plain.stats.potential_pops, 0u);
}

TEST(GoalDirectedEngineTest, CappedRowsStayExactUnderChurn) {
  // The fuzz and churn sweeps above run on networks of at most 40 nodes,
  // where every row is exact.  Here every network is larger than the pop
  // budget, so most rows stop at a finite radius; goal direction must
  // still match the uninformed engine bit for bit, and the per-request
  // router to rounding, while reserve / release churn raises weights.
  Rng rng(0xb0d9'e7c4'2026ULL);
  for (int iteration = 0; iteration < 4; ++iteration) {
    const std::uint32_t n =
        600 + static_cast<std::uint32_t>(rng.next_below(400));
    const std::uint32_t k = 2 + static_cast<std::uint32_t>(rng.next_below(3));
    const ConvKind kind = kAllKinds[rng.next_below(std::size(kAllKinds))];
    WdmNetwork oracle = random_network(n, n, k, k, kind, rng);
    RouteEngine engine(oracle);
    struct Claim {
      LinkId link;
      Wavelength lambda;
      double cost = 0.0;
    };
    std::vector<Claim> claims;
    // One scratch across targets, as an svc replica uses it.
    SearchScratch scratch;
    std::uint32_t capped = 0;
    for (int step = 0; step < 60; ++step) {
      for (int change = 0; change < 20; ++change) {
        if (rng.next_bool(0.6) || claims.empty()) {
          const LinkId e{
              static_cast<std::uint32_t>(rng.next_below(oracle.num_links()))};
          if (oracle.num_available(e) == 0) continue;
          const LinkWavelength lw =
              oracle.available(e)[rng.next_below(oracle.num_available(e))];
          ASSERT_TRUE(oracle.clear_wavelength(e, lw.lambda));
          engine.reserve(e, lw.lambda);
          claims.push_back({e, lw.lambda, lw.cost});
        } else {
          const std::size_t i = rng.next_below(claims.size());
          const Claim claim = claims[i];
          claims.erase(claims.begin() + static_cast<std::ptrdiff_t>(i));
          oracle.set_wavelength(claim.link, claim.lambda, claim.cost);
          engine.set_weight(claim.link, claim.lambda, claim.cost);
        }
      }
      const NodeId s{static_cast<std::uint32_t>(rng.next_below(n))};
      const NodeId t{static_cast<std::uint32_t>(rng.next_below(n))};
      const RouteResult plain = engine.route_semilightpath(s, t);
      const RouteResult goal =
          engine.route_semilightpath(s, t, scratch, kCombined);
      ASSERT_EQ(plain.found, goal.found)
          << "s=" << s.value() << " t=" << t.value() << " step=" << step;
      EXPECT_EQ(plain.cost, goal.cost)
          << "s=" << s.value() << " t=" << t.value() << " step=" << step;
      if (s != t && scratch.target_potential().radius < kInfiniteCost)
        ++capped;
      if (step % 6 == 0) {
        const RouteResult reference = route_semilightpath(oracle, s, t);
        ASSERT_EQ(reference.found, goal.found);
        if (reference.found) {
          EXPECT_NEAR(reference.cost, goal.cost, 1e-9);
          EXPECT_TRUE(goal.path.is_valid(oracle));
          EXPECT_NEAR(goal.path.cost(oracle), goal.cost, 1e-9);
        }
      }
    }
    EXPECT_GT(capped, 30u) << "iteration " << iteration;
  }
}

TEST(GoalDirectedEngineTest, ParallelRowBuildsMatchASerialRun) {
  // Four workers on a fresh engine race to build and publish the rows of
  // scattered targets; every answer must be bit-identical (cost, path,
  // switches) to a serial run on another fresh engine.
  Rng rng(0x9a7a'11e1ULL);
  const WdmNetwork net =
      random_network(kLongNodes, kLongNodes, 4, 3, ConvKind::kRange, rng);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 400; ++i) {
    // 100 targets, four sources each, so rows are built under contention.
    const auto t = static_cast<std::uint32_t>(rng.next_below(100)) * 11;
    pairs.emplace_back(
        NodeId{static_cast<std::uint32_t>(rng.next_below(kLongNodes))},
        NodeId{t});
  }
  const RouteEngine parallel_engine(net);
  const RouteEngine serial_engine(net);
  const std::vector<RouteResult> parallel =
      route_on_threads(parallel_engine, pairs, 4);
  const std::vector<RouteResult> serial =
      route_on_threads(serial_engine, pairs, 1);
  ASSERT_EQ(parallel.size(), serial.size());
  std::uint64_t built = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(serial[i].found, parallel[i].found) << i;
    EXPECT_EQ(serial[i].cost, parallel[i].cost) << i;
    EXPECT_EQ(serial[i].path.hops(), parallel[i].path.hops()) << i;
    EXPECT_EQ(serial[i].switches.size(), parallel[i].switches.size()) << i;
    EXPECT_EQ(serial[i].stats.search_pops, parallel[i].stats.search_pops) << i;
    if (serial[i].stats.potential_pops > 0) ++built;
  }
  // Serially, each distinct target's row is built exactly once.
  std::vector<std::uint32_t> targets;
  for (const auto& pair : pairs)
    if (pair.first != pair.second) targets.push_back(pair.second.value());
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  EXPECT_EQ(built, targets.size());
}

TEST(GoalDirectedEngineTest, EngineCopiesShareRowsAndPatchTheirOwnWeights) {
  // A copy shares the original's potential rows — a row built through one
  // is read by the other without a build — but patches only its own
  // weights.
  const WdmNetwork net = paper_example_network();
  RouteEngine original(net);
  const NodeId s{0};
  const NodeId t{6};
  const RouteResult cold = original.route_semilightpath(s, t, kCombined);
  ASSERT_TRUE(cold.found);
  EXPECT_GT(cold.stats.potential_pops, 0u);

  RouteEngine copy = original;
  SearchScratch scratch;
  const RouteResult shared = copy.route_semilightpath(s, t, scratch, kCombined);
  EXPECT_EQ(shared.stats.potential_pops, 0u);
  EXPECT_EQ(shared.cost, cold.cost);

  for (const Hop& hop : cold.path.hops())
    copy.reserve(hop.link, hop.wavelength);
  const RouteResult detour = copy.route_semilightpath(s, t, scratch, kCombined);
  const RouteResult still = original.route_semilightpath(s, t, kCombined);
  EXPECT_EQ(still.cost, cold.cost);
  EXPECT_TRUE(!detour.found || detour.cost > cold.cost);
  for (const Hop& hop : cold.path.hops()) {
    EXPECT_EQ(copy.weight(hop.link, hop.wavelength), kInfiniteCost);
    EXPECT_LT(original.weight(hop.link, hop.wavelength), kInfiniteCost);
  }
}

}  // namespace
}  // namespace lumen

// RouteEngine correctness: the build-once flattened router must agree with
// the per-request reference routers cost-exactly on random networks, and
// its in-place residual updates must track a rebuilt-from-scratch oracle
// through arbitrary reserve/release interleavings.
#include "core/route_engine.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/liang_shen.h"
#include "tests/test_util.h"
#include "util/error.h"

namespace lumen {
namespace {

using testing::ConvKind;
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

/// Full result check against a reference RouteResult: same feasibility,
/// same optimal cost, and — when found — a valid path of that exact cost.
void expect_equivalent(const WdmNetwork& net, const RouteResult& reference,
                       const RouteResult& engine_result, NodeId s, NodeId t) {
  ASSERT_EQ(reference.found, engine_result.found)
      << "s=" << s.value() << " t=" << t.value();
  if (!reference.found) {
    EXPECT_EQ(engine_result.cost, kInfiniteCost);
    return;
  }
  EXPECT_NEAR(reference.cost, engine_result.cost, 1e-9);
  if (s == t) return;
  ASSERT_FALSE(engine_result.path.empty());
  EXPECT_TRUE(engine_result.path.is_valid(net));
  EXPECT_EQ(engine_result.path.source(net), s);
  EXPECT_EQ(engine_result.path.destination(net), t);
  // The reported cost must be the path's true Equation-(1) cost, not just
  // the search's distance label.
  EXPECT_NEAR(engine_result.path.cost(net), engine_result.cost, 1e-9);
}

TEST(RouteEngineTest, PaperExampleMatchesReferenceRouter) {
  const WdmNetwork net = paper_example_network();
  RouteEngine engine(net);
  for (std::uint32_t s = 0; s < net.num_nodes(); ++s) {
    for (std::uint32_t t = 0; t < net.num_nodes(); ++t) {
      const RouteResult reference =
          route_semilightpath(net, NodeId{s}, NodeId{t});
      const RouteResult got = engine.route_semilightpath(NodeId{s}, NodeId{t});
      expect_equivalent(net, reference, got, NodeId{s}, NodeId{t});
    }
  }
}

TEST(RouteEngineTest, SemilightpathEquivalenceOnRandomNetworks) {
  Rng rng(0x5eed2026'0806a001ULL);
  for (int iteration = 0; iteration < 100; ++iteration) {
    const WdmNetwork net = random_engine_network(rng);
    RouteEngine engine(net);
    for (int query = 0; query < 6; ++query) {
      const NodeId s{static_cast<std::uint32_t>(
          rng.next_below(net.num_nodes()))};
      const NodeId t{static_cast<std::uint32_t>(
          rng.next_below(net.num_nodes()))};
      const RouteResult reference = route_semilightpath(net, s, t);
      const RouteResult got = engine.route_semilightpath(s, t);
      expect_equivalent(net, reference, got, s, t);
    }
  }
}

TEST(RouteEngineTest, LightpathEquivalenceOnRandomNetworks) {
  Rng rng(0x5eed2026'0806a002ULL);
  for (int iteration = 0; iteration < 100; ++iteration) {
    const WdmNetwork net = random_engine_network(rng);
    RouteEngine engine(net);
    for (int query = 0; query < 6; ++query) {
      const NodeId s{static_cast<std::uint32_t>(
          rng.next_below(net.num_nodes()))};
      const NodeId t{static_cast<std::uint32_t>(
          rng.next_below(net.num_nodes()))};
      const RouteResult reference = route_lightpath(net, s, t);
      const RouteResult got = engine.route_lightpath(s, t);
      expect_equivalent(net, reference, got, s, t);
      if (got.found && s != t) {
        EXPECT_TRUE(got.path.is_lightpath());
      }
    }
  }
}

TEST(RouteEngineTest, ReserveReleaseTracksRebuiltOracle) {
  // The oracle is a WdmNetwork whose availability is mutated with
  // clear/set_wavelength exactly as the engine is patched; at every step
  // the engine must answer like a per-request router on the oracle.
  Rng rng(0x5eed2026'0806a003ULL);
  for (int iteration = 0; iteration < 25; ++iteration) {
    WdmNetwork oracle = random_engine_network(rng);
    RouteEngine engine(oracle);

    struct Claim {
      LinkId link;
      Wavelength lambda;
      double cost;
    };
    std::vector<Claim> claims;

    for (int step = 0; step < 30; ++step) {
      const bool do_release = !claims.empty() && rng.next_bool(0.4);
      if (do_release) {
        const std::size_t i = rng.next_below(claims.size());
        oracle.set_wavelength(claims[i].link, claims[i].lambda,
                              claims[i].cost);
        engine.set_weight(claims[i].link, claims[i].lambda, claims[i].cost);
        claims[i] = claims.back();
        claims.pop_back();
      } else {
        // Claim a random still-available (link, λ).
        const LinkId e{static_cast<std::uint32_t>(
            rng.next_below(oracle.num_links()))};
        if (oracle.num_available(e) == 0) continue;
        const auto& lw =
            oracle.available(e)[rng.next_below(oracle.num_available(e))];
        // Copy before clear_wavelength: `lw` references the availability
        // vector that the clear mutates.
        Claim claim{e, lw.lambda, lw.cost};
        ASSERT_TRUE(oracle.clear_wavelength(e, claim.lambda));
        engine.reserve(e, claim.lambda);
        claims.push_back(claim);
      }

      const NodeId s{static_cast<std::uint32_t>(
          rng.next_below(oracle.num_nodes()))};
      const NodeId t{static_cast<std::uint32_t>(
          rng.next_below(oracle.num_nodes()))};
      const RouteResult reference = route_semilightpath(oracle, s, t);
      const RouteResult semilight = engine.route_semilightpath(s, t);
      ASSERT_EQ(reference.found, semilight.found) << "step " << step;
      if (reference.found) {
        EXPECT_NEAR(reference.cost, semilight.cost, 1e-9) << "step " << step;
      }

      const RouteResult lp_reference = route_lightpath(oracle, s, t);
      const RouteResult lp = engine.route_lightpath(s, t);
      ASSERT_EQ(lp_reference.found, lp.found) << "step " << step;
      if (lp_reference.found) {
        EXPECT_NEAR(lp_reference.cost, lp.cost, 1e-9) << "step " << step;
      }
    }

    // Releasing everything must restore the pristine answers.
    for (const Claim& claim : claims) {
      oracle.set_wavelength(claim.link, claim.lambda, claim.cost);
      engine.set_weight(claim.link, claim.lambda, claim.cost);
    }
    for (int query = 0; query < 4; ++query) {
      const NodeId s{static_cast<std::uint32_t>(
          rng.next_below(oracle.num_nodes()))};
      const NodeId t{static_cast<std::uint32_t>(
          rng.next_below(oracle.num_nodes()))};
      expect_equivalent(oracle, route_semilightpath(oracle, s, t),
                        engine.route_semilightpath(s, t), s, t);
    }
  }
}

TEST(RouteEngineTest, ReserveFlipsWeightAndReleaseRestoresIt) {
  const WdmNetwork net = paper_example_network(1.5, 0.25);
  RouteEngine engine(net);
  const LinkId e{0};
  const Wavelength lambda = net.available(e).front().lambda;
  const double original = engine.weight(e, lambda);
  EXPECT_DOUBLE_EQ(original, net.available(e).front().cost);

  engine.reserve(e, lambda);
  EXPECT_EQ(engine.weight(e, lambda), kInfiniteCost);
  engine.set_weight(e, lambda, original);
  EXPECT_DOUBLE_EQ(engine.weight(e, lambda), original);
}

TEST(RouteEngineTest, SetWeightSupportsFailureAndRepair) {
  const WdmNetwork net = paper_example_network();
  RouteEngine engine(net);
  const LinkId e{0};
  const Wavelength lambda = net.available(e).front().lambda;
  const double original = engine.weight(e, lambda);

  engine.set_weight(e, lambda, kInfiniteCost);  // fail
  EXPECT_EQ(engine.weight(e, lambda), kInfiniteCost);
  engine.set_weight(e, lambda, original);  // repair
  EXPECT_DOUBLE_EQ(engine.weight(e, lambda), original);
}

TEST(RouteEngineTest, TrivialSelfRouteAndPreconditions) {
  const WdmNetwork net = paper_example_network();
  RouteEngine engine(net);

  const RouteResult self = engine.route_semilightpath(NodeId{3}, NodeId{3});
  EXPECT_TRUE(self.found);
  EXPECT_DOUBLE_EQ(self.cost, 0.0);
  EXPECT_TRUE(self.path.empty());

  EXPECT_THROW((void)engine.route_semilightpath(NodeId{7}, NodeId{0}), Error);
  EXPECT_THROW((void)engine.route_lightpath(NodeId{0}, NodeId{99}), Error);
  // λ outside the base Λ(e) is a structural change: reserve must refuse.
  const LinkId e{0};
  Wavelength missing = Wavelength::invalid();
  for (std::uint32_t l = 0; l < net.num_wavelengths(); ++l) {
    if (!net.is_available(e, Wavelength{l})) {
      missing = Wavelength{l};
      break;
    }
  }
  ASSERT_TRUE(missing.valid());
  EXPECT_THROW(engine.reserve(e, missing), Error);
  EXPECT_EQ(engine.weight(e, missing), kInfiniteCost);
}

TEST(RouteEngineTest, StatsReportAmortizedStructure) {
  const WdmNetwork net = paper_example_network();
  RouteEngine engine(net);
  EXPECT_GT(engine.stats().core_nodes, 0u);
  EXPECT_GT(engine.stats().core_links, 0u);
  EXPECT_EQ(engine.stats().transmission_slots, net.total_link_wavelengths());
  EXPECT_GE(engine.stats().build_seconds, 0.0);

  const RouteResult semilight = engine.route_semilightpath(NodeId{0}, NodeId{6});
  ASSERT_TRUE(semilight.found);
  EXPECT_EQ(semilight.stats.aux_nodes, engine.stats().core_nodes);
  EXPECT_EQ(semilight.stats.aux_links, engine.stats().core_links);
  EXPECT_EQ(semilight.stats.wavelengths_searched, 0u);
  EXPECT_DOUBLE_EQ(semilight.stats.build_seconds, 0.0);  // amortized

  const RouteResult lp = engine.route_lightpath(NodeId{0}, NodeId{6});
  EXPECT_EQ(lp.stats.aux_nodes, net.num_nodes());
  EXPECT_EQ(lp.stats.aux_links, net.num_links());
  EXPECT_EQ(lp.stats.wavelengths_searched, net.num_wavelengths());
}

}  // namespace
}  // namespace lumen

// Hierarchy RouteEngine equivalence: the bidirectional upward search over
// the partial contraction hierarchy (plain CH and potential-pruned
// CH+ALT) must return *bit-identical* costs to the engine's flat searches
// — the engine re-accumulates the unpacked slot path left-to-right, the
// same addition order the flat Dijkstra uses — and must stay exact
// through reserve/fail/release/repair churn, where only the patched
// spans' support cones are re-customized.  The stale path (patches not
// yet customized) must fall back to the flat search, never answer wrong.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "core/liang_shen.h"
#include "core/route_engine.h"
#include "obs/registry.h"
#include "obs/span_buffer.h"
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

constexpr RouteEngine::Options kWithHierarchy{.build_hierarchy = true};
constexpr RouteEngine::QueryOptions kAlt{.goal_directed = true};
constexpr RouteEngine::QueryOptions kCh{.use_hierarchy = true};
constexpr RouteEngine::QueryOptions kChAlt{.goal_directed = true,
                                           .use_hierarchy = true};

/// Plain Dijkstra, ALT, CH, and CH+ALT must agree exactly (same costs as
/// doubles, same feasibility), and the hierarchy modes must produce valid
/// paths of the claimed cost.
void expect_modes_identical(const WdmNetwork& net, RouteEngine& engine,
                            NodeId s, NodeId t) {
  const RouteResult plain = engine.route_semilightpath(s, t);
  for (const auto& query : {kAlt, kCh, kChAlt}) {
    const RouteResult result = engine.route_semilightpath(s, t, query);
    ASSERT_EQ(plain.found, result.found)
        << "s=" << s.value() << " t=" << t.value();
    EXPECT_EQ(plain.cost, result.cost)
        << "s=" << s.value() << " t=" << t.value();
    if (!result.found || s == t) continue;
    EXPECT_TRUE(result.path.is_valid(net));
    EXPECT_EQ(result.path.source(net), s);
    EXPECT_EQ(result.path.destination(net), t);
    EXPECT_NEAR(result.path.cost(net), result.cost, 1e-9);
  }
}

TEST(HierarchyEngineTest, PaperExampleAllPairsAllModes) {
  const WdmNetwork net = paper_example_network();
  RouteEngine engine(net, kWithHierarchy);
  EXPECT_TRUE(engine.has_hierarchy());
  EXPECT_FALSE(engine.hierarchy_stale());
  for (std::uint32_t s = 0; s < net.num_nodes(); ++s) {
    for (std::uint32_t t = 0; t < net.num_nodes(); ++t) {
      expect_modes_identical(net, engine, NodeId{s}, NodeId{t});
      const RouteResult reference =
          route_semilightpath(net, NodeId{s}, NodeId{t});
      const RouteResult hier =
          engine.route_semilightpath(NodeId{s}, NodeId{t}, kChAlt);
      ASSERT_EQ(reference.found, hier.found);
      if (reference.found) {
        EXPECT_NEAR(reference.cost, hier.cost, 1e-9);
      }
    }
  }
}

class HierarchyEngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HierarchyEngineFuzz, EquivalenceThroughChurnOnRandomNetworks) {
  Rng rng(GetParam());
  // 4 structured + 2 degenerate networks per seed; 10 seeds → 60 nets,
  // each taken through a reserve/fail/release/repair churn while every
  // mode must keep agreeing bit-for-bit.
  for (int iteration = 0; iteration < 6; ++iteration) {
    const WdmNetwork net =
        iteration < 4 ? random_engine_network(rng) : fuzz_network(rng);
    if (net.num_nodes() < 2) continue;
    WdmNetwork oracle = net;
    RouteEngine engine(net, kWithHierarchy);

    struct Claim {
      LinkId link;
      Wavelength lambda;
      double cost = 0.0;
      RouteEngine::ReserveHandle handle;
      bool failed = false;
    };
    std::vector<Claim> claims;

    for (int step = 0; step < 15; ++step) {
      const int action = static_cast<int>(rng.next_below(4));
      if (action == 0 || claims.empty()) {
        if (oracle.num_links() == 0) continue;
        const LinkId e{
            static_cast<std::uint32_t>(rng.next_below(oracle.num_links()))};
        if (oracle.num_available(e) == 0) continue;
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
      const RouteResult hier = engine.route_semilightpath(s, t, kChAlt);
      ASSERT_EQ(reference.found, hier.found)
          << "s=" << s.value() << " t=" << t.value() << " step=" << step;
      if (reference.found) {
        EXPECT_NEAR(reference.cost, hier.cost, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyEngineFuzz,
                         ::testing::Values(0xc4'0001ULL, 0xc4'0002ULL,
                                           0xc4'0003ULL, 0xc4'0004ULL,
                                           0xc4'0005ULL, 0xc4'0006ULL,
                                           0xc4'0007ULL, 0xc4'0008ULL,
                                           0xc4'0009ULL, 0xc4'000aULL));

TEST(HierarchyEngineTest, StaleFallbackThenRecustomize) {
  Rng rng(0x57a1eULL);
  const WdmNetwork net = random_network(20, 30, 4, 2, ConvKind::kUniform, rng);
  // Manual customization: patches leave the hierarchy stale until
  // customize_hierarchy() runs.
  RouteEngine::Options options = kWithHierarchy;
  options.hierarchy_auto_customize = false;
  RouteEngine engine(net, options);
  ASSERT_TRUE(engine.has_hierarchy());
  EXPECT_FALSE(engine.hierarchy_stale());
  EXPECT_EQ(engine.customize_hierarchy(), 0u);  // nothing dirty

  const LinkId e{0};
  const Wavelength lambda = net.available(e)[0].lambda;
  const auto handle = engine.reserve(e, lambda);
  EXPECT_TRUE(engine.hierarchy_stale());

  // While stale, use_hierarchy queries must fall back to the flat search
  // (bumping the fallback counter) and still answer exactly.
  SearchScratch scratch;
  obs::Counter& fallbacks =
      obs::Registry::global().counter("lumen.core.hierarchy.fallbacks");
  obs::Counter& hierarchy_queries =
      obs::Registry::global().counter("lumen.core.hierarchy.queries");
  [[maybe_unused]] const std::uint64_t fallbacks_before = fallbacks.value();
  [[maybe_unused]] const std::uint64_t queries_before =
      hierarchy_queries.value();
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId s{static_cast<std::uint32_t>(rng.next_below(20))};
    const NodeId t{static_cast<std::uint32_t>(rng.next_below(20))};
    const RouteResult plain = engine.route_semilightpath(s, t, scratch);
    const RouteResult stale =
        engine.route_semilightpath(s, t, scratch, kChAlt);
    ASSERT_EQ(plain.found, stale.found);
    EXPECT_EQ(plain.cost, stale.cost);
  }
  EXPECT_TRUE(engine.hierarchy_stale());  // const queries never customize
#if LUMEN_OBS_ENABLED
  EXPECT_GT(fallbacks.value(), fallbacks_before);
  EXPECT_EQ(hierarchy_queries.value(), queries_before);
#endif

  // Explicit customization touches the patched cone and re-arms the
  // hierarchy path.
  EXPECT_GT(engine.customize_hierarchy(), 0u);
  EXPECT_FALSE(engine.hierarchy_stale());
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId s{static_cast<std::uint32_t>(rng.next_below(20))};
    const NodeId t{static_cast<std::uint32_t>(rng.next_below(20))};
    expect_modes_identical(net, engine, s, t);
  }
#if LUMEN_OBS_ENABLED
  EXPECT_GT(hierarchy_queries.value(), queries_before);
#endif
  engine.release(handle);
  EXPECT_TRUE(engine.hierarchy_stale());
  // The auto-customize path (scratch-less overload) self-heals.
  const RouteResult healed =
      engine.route_semilightpath(NodeId{0}, NodeId{1}, kChAlt);
  (void)healed;
  EXPECT_TRUE(engine.hierarchy_stale());  // auto-customize was disabled

  RouteEngine::Options auto_options = kWithHierarchy;
  RouteEngine auto_engine(net, auto_options);
  const auto h2 = auto_engine.reserve(e, lambda);
  EXPECT_TRUE(auto_engine.hierarchy_stale());
  (void)auto_engine.route_semilightpath(NodeId{0}, NodeId{1}, kChAlt);
  EXPECT_FALSE(auto_engine.hierarchy_stale());
  auto_engine.release(h2);
}

#if LUMEN_OBS_ENABLED
TEST(HierarchyEngineTest, AutoCustomizationRunsUnderOneSpan) {
  Rng rng(0x57a1eULL);
  const WdmNetwork net = random_network(20, 30, 4, 2, ConvKind::kUniform, rng);
  RouteEngine engine(net, kWithHierarchy);
  obs::SpanBuffer& buffer = obs::SpanBuffer::global();
  const auto customize_spans = [&buffer] {
    const std::vector<obs::CausalSpanRecord> spans = buffer.snapshot();
    return std::count_if(spans.begin(), spans.end(),
                         [](const obs::CausalSpanRecord& span) {
                           return std::string_view(span.name) ==
                                  "engine.customize";
                         });
  };
  buffer.clear();
  const LinkId e{0};
  const auto handle = engine.reserve(e, net.available(e)[0].lambda);
  ASSERT_TRUE(engine.hierarchy_stale());
  (void)engine.route_semilightpath(NodeId{0}, NodeId{1}, kChAlt);
  EXPECT_FALSE(engine.hierarchy_stale());
  EXPECT_EQ(customize_spans(), 1);
  // No patch since: the hierarchy is fresh, so no customization runs.
  (void)engine.route_semilightpath(NodeId{0}, NodeId{1}, kChAlt);
  EXPECT_EQ(customize_spans(), 1);
  engine.release(handle);
}
#endif

TEST(HierarchyEngineTest, SinglePatchRecustomizationIsSublinear) {
  // Counter-based sublinearity gate: one span fail/repair must touch only
  // that span's support cone, a small fraction of the arc set (flat
  // re-customization would re-evaluate every arc on every patch).
  Rng rng(0x5ab'11eaULL);
  const WdmNetwork net =
      random_network(60, 120, 5, 3, ConvKind::kUniform, rng);
  RouteEngine::Options options = kWithHierarchy;
  options.hierarchy_auto_customize = false;
  RouteEngine engine(net, options);
  const auto total_arcs = static_cast<double>(engine.stats().core_links +
                                              engine.stats().hierarchy_shortcuts);
  obs::Counter& recustomized = obs::Registry::global().counter(
      "lumen.core.hierarchy.recustomized_arcs");
  [[maybe_unused]] const std::uint64_t counter_before = recustomized.value();

  std::uint64_t touched_total = 0;
  std::uint32_t patches = 0;
  for (std::uint32_t ei = 0; ei < net.num_links(); ei += 9) {
    const LinkId e{ei};
    if (net.num_available(e) == 0) continue;
    const Wavelength lambda = net.available(e)[0].lambda;
    engine.set_weight(e, lambda, kInfiniteCost);  // span fail
    touched_total += engine.customize_hierarchy();
    engine.set_weight(e, lambda, net.available(e)[0].cost);  // repair
    touched_total += engine.customize_hierarchy();
    patches += 2;
  }
  ASSERT_GT(patches, 0u);
  const double mean_touched =
      static_cast<double>(touched_total) / static_cast<double>(patches);
  EXPECT_LT(mean_touched, 0.2 * total_arcs);
#if LUMEN_OBS_ENABLED
  // The touched-cone sizes are surfaced on the obs counter one-for-one.
  EXPECT_EQ(recustomized.value() - counter_before, touched_total);
#endif
}

TEST(HierarchyEngineTest, RouteManyHierarchyMatchesSequential) {
  Rng rng(0xbeefULL);
  const WdmNetwork net = random_network(40, 60, 5, 3, ConvKind::kUniform, rng);
  RouteEngine engine(net, kWithHierarchy);

  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 64; ++i) {
    pairs.emplace_back(
        NodeId{static_cast<std::uint32_t>(rng.next_below(net.num_nodes()))},
        NodeId{static_cast<std::uint32_t>(rng.next_below(net.num_nodes()))});
  }
  // Concurrent const queries over the fresh hierarchy (per-worker
  // scratches exercise the backward/forward array reuse under tsan).
  const std::vector<RouteResult> parallel = engine.route_many(
      pairs, 4, RouteEngine::QueryKind::kSemilightpath, kChAlt);
  ASSERT_EQ(parallel.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const RouteResult plain =
        engine.route_semilightpath(pairs[i].first, pairs[i].second);
    ASSERT_EQ(plain.found, parallel[i].found) << i;
    EXPECT_EQ(plain.cost, parallel[i].cost) << i;
  }
}

TEST(HierarchyEngineTest, SessionManagerPolicyParity) {
  // Flat, goal-directed and hierarchy answers must agree with every
  // accept/block decision and cost of the engine policy across a full
  // workload with departures and a span failure/repair cycle.
  Rng rng(0x91a2'77feULL);
  const WdmNetwork net = random_network(24, 36, 4, 2, ConvKind::kUniform, rng);
  testing::run_policy_parity_tape(net, 0x88'2026ULL);
}

TEST(HierarchyEngineTest, PrunedStatsSurfacedOnSearchCounters) {
  // Small fix regression test: every engine search path must surface its
  // CsrRunStats (pruned included) on the lumen.core.search.* counters —
  // the multi-source A* prunes the dead appendix below, and the exported
  // counter must move by exactly the per-result stats.
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
  RouteEngine engine(net, kWithHierarchy);
  obs::Counter& pruned =
      obs::Registry::global().counter("lumen.core.search.pruned");
  obs::Counter& pops = obs::Registry::global().counter("lumen.core.search.pops");
  obs::Counter& upward_pops =
      obs::Registry::global().counter("lumen.core.hierarchy.upward_pops");

  [[maybe_unused]] const std::uint64_t pruned_before = pruned.value();
  [[maybe_unused]] const std::uint64_t pops_before = pops.value();
  const RouteResult goal =
      engine.route_semilightpath(NodeId{0}, NodeId{2}, kAlt);
  ASSERT_TRUE(goal.found);
  EXPECT_GT(goal.stats.search_pruned, 0u);
#if LUMEN_OBS_ENABLED
  EXPECT_EQ(pruned.value() - pruned_before, goal.stats.search_pruned);
  EXPECT_EQ(pops.value() - pops_before, goal.stats.search_pops);
#endif

  [[maybe_unused]] const std::uint64_t upward_before = upward_pops.value();
  [[maybe_unused]] const std::uint64_t pruned_before_hier = pruned.value();
  const RouteResult hier =
      engine.route_semilightpath(NodeId{0}, NodeId{2}, kChAlt);
  ASSERT_TRUE(hier.found);
  EXPECT_EQ(hier.cost, goal.cost);
#if LUMEN_OBS_ENABLED
  EXPECT_EQ(upward_pops.value() - upward_before, hier.stats.search_pops);
  EXPECT_EQ(pruned.value() - pruned_before_hier, hier.stats.search_pruned);
#endif
}

}  // namespace
}  // namespace lumen

// Concurrency tests for the build-once routing paths: route_many batches,
// explicitly shared engines with per-thread scratch, and the parallel
// all-pairs matrix.  These run under the tsan preset (ctest -L parallel).
#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "core/all_pairs.h"
#include "core/liang_shen.h"
#include "core/route_engine.h"
#include "tests/test_util.h"

namespace lumen {
namespace {

using testing::ConvKind;
using testing::random_network;

std::vector<std::pair<NodeId, NodeId>> all_distinct_pairs(std::uint32_t n) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::uint32_t s = 0; s < n; ++s)
    for (std::uint32_t t = 0; t < n; ++t)
      if (s != t) pairs.emplace_back(NodeId{s}, NodeId{t});
  return pairs;
}

TEST(RouteEngineParallelTest, RouteManyMatchesSerialQueries) {
  Rng rng(0x5eed2026'0806b001ULL);
  const WdmNetwork net = random_network(14, 14, 4, 3, ConvKind::kUniform, rng);
  RouteEngine engine(net);
  const auto pairs = all_distinct_pairs(net.num_nodes());

  for (const unsigned threads : {1u, 2u, 4u}) {
    const std::vector<RouteResult> batch =
        engine.route_many(pairs, threads);
    ASSERT_EQ(batch.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const RouteResult serial =
          engine.route_semilightpath(pairs[i].first, pairs[i].second);
      ASSERT_EQ(batch[i].found, serial.found)
          << "threads=" << threads << " pair " << i;
      if (serial.found) {
        EXPECT_NEAR(batch[i].cost, serial.cost, 1e-12);
      }
    }
  }
}

TEST(RouteEngineParallelTest, RouteManyLightpathKind) {
  Rng rng(0x5eed2026'0806b002ULL);
  const WdmNetwork net = random_network(10, 12, 4, 3, ConvKind::kNone, rng);
  RouteEngine engine(net);
  const auto pairs = all_distinct_pairs(net.num_nodes());

  const std::vector<RouteResult> batch = engine.route_many(
      pairs, 4, RouteEngine::QueryKind::kLightpath);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const RouteResult reference =
        route_lightpath(net, pairs[i].first, pairs[i].second);
    ASSERT_EQ(batch[i].found, reference.found) << "pair " << i;
    if (reference.found) {
      EXPECT_NEAR(batch[i].cost, reference.cost, 1e-9);
    }
  }
}

TEST(RouteEngineParallelTest, SharedEngineWithPerThreadScratch) {
  Rng rng(0x5eed2026'0806b003ULL);
  const WdmNetwork net = random_network(12, 12, 3, 3, ConvKind::kRange, rng);
  const RouteEngine engine(net);  // const: queries share it read-only
  const auto pairs = all_distinct_pairs(net.num_nodes());

  std::vector<RouteResult> expected;
  expected.reserve(pairs.size());
  {
    SearchScratch scratch;
    for (const auto& [s, t] : pairs)
      expected.push_back(engine.route_semilightpath(s, t, scratch));
  }

  std::vector<RouteResult> got(pairs.size());
  std::vector<std::thread> workers;
  constexpr std::size_t kThreads = 4;
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      SearchScratch scratch;  // one per thread
      for (std::size_t i = w; i < pairs.size(); i += kThreads)
        got[i] = engine.route_semilightpath(pairs[i].first, pairs[i].second,
                                            scratch);
    });
  }
  for (auto& worker : workers) worker.join();

  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(got[i].found, expected[i].found) << "pair " << i;
    if (expected[i].found) {
      EXPECT_NEAR(got[i].cost, expected[i].cost, 1e-12);
    }
  }
}

TEST(RouteEngineParallelTest, ParallelCostMatrixMatchesSerial) {
  Rng rng(0x5eed2026'0806b004ULL);
  const WdmNetwork net = random_network(12, 12, 3, 3, ConvKind::kSparse, rng);

  AllPairsRouter serial(net);
  const auto expected = serial.cost_matrix();

  AllPairsRouter parallel(net);
  const auto got = parallel.cost_matrix(4);
  // The parallel overload is served by the engine's flat one-to-all
  // searches, not per-source trees: the tree cache stays untouched.
  EXPECT_EQ(parallel.trees_computed(), 0u);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t s = 0; s < expected.size(); ++s) {
    for (std::size_t t = 0; t < expected[s].size(); ++t) {
      if (expected[s][t] == kInfiniteCost) {
        EXPECT_EQ(got[s][t], kInfiniteCost) << s << "->" << t;
      } else {
        EXPECT_NEAR(got[s][t], expected[s][t], 1e-12) << s << "->" << t;
      }
    }
  }
}

TEST(RouteEngineParallelTest, ParallelCostMatrixLeavesTreeCacheAlone) {
  Rng rng(0x5eed2026'0806b005ULL);
  const WdmNetwork net = random_network(8, 10, 3, 2, ConvKind::kUniform, rng);
  AllPairsRouter router(net);
  (void)router.cost(NodeId{0}, NodeId{1});  // warm one tree serially
  EXPECT_EQ(router.trees_computed(), 1u);
  // The engine-served matrix neither consumes nor extends the tree cache;
  // its rows still agree with the tree-backed point queries.
  const auto matrix = router.cost_matrix(3);
  EXPECT_EQ(router.trees_computed(), 1u);
  ASSERT_EQ(matrix.size(), net.num_nodes());
  EXPECT_NEAR(matrix[0][1], router.cost(NodeId{0}, NodeId{1}), 1e-12);
}

}  // namespace
}  // namespace lumen

// Concurrency test for the build-once engine: one const engine shared
// read-only by std::threads, each with its own SearchScratch, answering
// semilightpath and lightpath queries.  It runs under the tsan preset
// (ctest -L parallel).
#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

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

TEST(RouteEngineParallelTest, SharedEngineWithPerThreadScratch) {
  Rng rng(0x5eed2026'0806b003ULL);
  const WdmNetwork net = random_network(12, 12, 3, 3, ConvKind::kRange, rng);
  const RouteEngine engine(net);  // const: queries share it read-only
  const auto pairs = all_distinct_pairs(net.num_nodes());

  // Serial answers: the engine's semilightpaths and the per-request
  // reference router's lightpaths.
  std::vector<RouteResult> expected;
  std::vector<RouteResult> expected_lightpath;
  {
    SearchScratch scratch;
    for (const auto& [s, t] : pairs) {
      expected.push_back(engine.route_semilightpath(s, t, scratch));
      expected_lightpath.push_back(route_lightpath(net, s, t));
    }
  }

  std::vector<RouteResult> got(pairs.size());
  std::vector<RouteResult> got_lightpath(pairs.size());
  std::vector<std::thread> workers;
  constexpr std::size_t kThreads = 4;
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      SearchScratch scratch;  // one per thread
      for (std::size_t i = w; i < pairs.size(); i += kThreads) {
        const auto& [s, t] = pairs[i];
        got[i] = engine.route_semilightpath(s, t, scratch);
        got_lightpath[i] = engine.route_lightpath(s, t, scratch);
      }
    });
  }
  for (auto& worker : workers) worker.join();

  std::uint32_t lightpaths = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(got[i].found, expected[i].found) << "pair " << i;
    if (expected[i].found) {
      EXPECT_NEAR(got[i].cost, expected[i].cost, 1e-12);
    }
    ASSERT_EQ(got_lightpath[i].found, expected_lightpath[i].found)
        << "lightpath pair " << i;
    if (expected_lightpath[i].found) {
      ++lightpaths;
      EXPECT_NEAR(got_lightpath[i].cost, expected_lightpath[i].cost, 1e-9);
      EXPECT_TRUE(got_lightpath[i].switches.empty());
    }
  }
  EXPECT_GT(lightpaths, 0u);
}

}  // namespace
}  // namespace lumen

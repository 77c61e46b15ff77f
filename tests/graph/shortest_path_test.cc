#include <gtest/gtest.h>

#include <thread>
#include <tuple>

#include "graph/bellman_ford.h"
#include "graph/binary_heap.h"
#include "graph/dijkstra.h"
#include "graph/fib_heap.h"
#include "graph/pairing_heap.h"
#include "util/rng.h"

namespace lumen {
namespace {

Digraph diamond() {
  // 0 -> 1 -> 3, 0 -> 2 -> 3 with distinct costs.
  Digraph g(4);
  g.add_link(NodeId{0}, NodeId{1}, 1.0);
  g.add_link(NodeId{1}, NodeId{3}, 4.0);
  g.add_link(NodeId{0}, NodeId{2}, 2.0);
  g.add_link(NodeId{2}, NodeId{3}, 1.0);
  return g;
}

TEST(DijkstraTest, Diamond) {
  const auto g = diamond();
  const auto tree = dijkstra(g, NodeId{0});
  EXPECT_DOUBLE_EQ(tree.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(tree.dist[1], 1.0);
  EXPECT_DOUBLE_EQ(tree.dist[2], 2.0);
  EXPECT_DOUBLE_EQ(tree.dist[3], 3.0);
}

TEST(DijkstraTest, PathExtraction) {
  const auto g = diamond();
  const auto tree = dijkstra(g, NodeId{0});
  const auto path = extract_path(g, tree, NodeId{3});
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->size(), 2u);
  EXPECT_EQ(g.tail((*path)[0]), NodeId{0});
  EXPECT_EQ(g.head((*path)[0]), NodeId{2});
  EXPECT_EQ(g.head((*path)[1]), NodeId{3});
}

TEST(DijkstraTest, UnreachableNode) {
  Digraph g(3);
  g.add_link(NodeId{0}, NodeId{1}, 1.0);
  const auto tree = dijkstra(g, NodeId{0});
  EXPECT_FALSE(tree.reached(NodeId{2}));
  EXPECT_EQ(tree.dist[2], kInfiniteCost);
  EXPECT_EQ(extract_path(g, tree, NodeId{2}), std::nullopt);
}

TEST(DijkstraTest, SourceItself) {
  Digraph g(2);
  g.add_link(NodeId{0}, NodeId{1}, 1.0);
  const auto tree = dijkstra(g, NodeId{0});
  const auto path = extract_path(g, tree, NodeId{0});
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->empty());
}

TEST(DijkstraTest, InfiniteWeightLinksSkipped) {
  Digraph g(3);
  g.add_link(NodeId{0}, NodeId{1}, kInfiniteCost);
  g.add_link(NodeId{0}, NodeId{2}, 1.0);
  g.add_link(NodeId{2}, NodeId{1}, 1.0);
  const auto tree = dijkstra(g, NodeId{0});
  EXPECT_DOUBLE_EQ(tree.dist[1], 2.0);
}

TEST(DijkstraTest, ZeroWeightLinks) {
  Digraph g(3);
  g.add_link(NodeId{0}, NodeId{1}, 0.0);
  g.add_link(NodeId{1}, NodeId{2}, 0.0);
  const auto tree = dijkstra(g, NodeId{0});
  EXPECT_DOUBLE_EQ(tree.dist[2], 0.0);
}

TEST(DijkstraTest, ParallelLinksUseCheapest) {
  Digraph g(2);
  g.add_link(NodeId{0}, NodeId{1}, 5.0);
  const LinkId cheap = g.add_link(NodeId{0}, NodeId{1}, 2.0);
  const auto tree = dijkstra(g, NodeId{0});
  EXPECT_DOUBLE_EQ(tree.dist[1], 2.0);
  EXPECT_EQ(tree.parent_link[1], cheap);
}

TEST(DijkstraTest, EarlyExitTargetDistanceExact) {
  Rng rng(4);
  Digraph g(50);
  for (int i = 0; i < 300; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.next_below(50));
    const auto v = static_cast<std::uint32_t>(rng.next_below(50));
    if (u == v) continue;
    g.add_link(NodeId{u}, NodeId{v}, rng.next_double_in(0.1, 5.0));
  }
  const auto full = dijkstra(g, NodeId{0});
  for (std::uint32_t t = 1; t < 50; ++t) {
    const auto early = dijkstra(g, NodeId{0}, NodeId{t});
    EXPECT_DOUBLE_EQ(early.dist[t], full.dist[t]);
    EXPECT_LE(early.pops, full.pops);
  }
}

TEST(BellmanFordTest, MatchesDijkstraOnDiamond) {
  const auto g = diamond();
  const auto bf = bellman_ford(g, NodeId{0});
  const auto dj = dijkstra(g, NodeId{0});
  for (std::uint32_t v = 0; v < 4; ++v)
    EXPECT_DOUBLE_EQ(bf.dist[v], dj.dist[v]);
}

// Randomized differential test across heaps and Bellman–Ford.
class ShortestPathRandomTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int, int>> {};

TEST_P(ShortestPathRandomTest, AllAlgorithmsAgree) {
  const auto [seed, n, m] = GetParam();
  Rng rng(seed);
  Digraph g(static_cast<std::uint32_t>(n));
  for (int i = 0; i < m; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.next_below(n));
    const auto v = static_cast<std::uint32_t>(rng.next_below(n));
    g.add_link(NodeId{u}, NodeId{v}, rng.next_double_in(0.0, 10.0));
  }
  const auto reference = bellman_ford(g, NodeId{0});
  const auto fib = dijkstra_with<FibHeap>(g, NodeId{0});
  const auto bin = dijkstra_with<BinaryHeap>(g, NodeId{0});
  const auto quad = dijkstra_with<QuaternaryHeap>(g, NodeId{0});
  const auto pair = dijkstra_with<PairingHeap>(g, NodeId{0});
  for (std::uint32_t v = 0; v < g.num_nodes(); ++v) {
    if (reference.dist[v] == kInfiniteCost) {
      EXPECT_EQ(fib.dist[v], kInfiniteCost) << "node " << v;
    } else {
      EXPECT_NEAR(fib.dist[v], reference.dist[v], 1e-9) << "node " << v;
    }
    EXPECT_DOUBLE_EQ(fib.dist[v], bin.dist[v]) << "node " << v;
    EXPECT_DOUBLE_EQ(fib.dist[v], quad.dist[v]) << "node " << v;
    EXPECT_DOUBLE_EQ(fib.dist[v], pair.dist[v]) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, ShortestPathRandomTest,
    ::testing::Values(std::tuple{1ULL, 20, 60}, std::tuple{2ULL, 50, 200},
                      std::tuple{3ULL, 100, 150},  // sparse, likely disconnected
                      std::tuple{4ULL, 100, 800}, std::tuple{5ULL, 200, 1000},
                      std::tuple{6ULL, 10, 90}, std::tuple{7ULL, 2, 4},
                      std::tuple{8ULL, 300, 3000}));

TEST(DijkstraTest, TreePathsAreConsistent) {
  // Every reached node's dist equals the sum of weights along parent links.
  Rng rng(77);
  Digraph g(80);
  for (int i = 0; i < 400; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.next_below(80));
    const auto v = static_cast<std::uint32_t>(rng.next_below(80));
    g.add_link(NodeId{u}, NodeId{v}, rng.next_double_in(0.1, 3.0));
  }
  const auto tree = dijkstra(g, NodeId{0});
  for (std::uint32_t v = 0; v < 80; ++v) {
    if (!tree.reached(NodeId{v})) continue;
    const auto path = extract_path(g, tree, NodeId{v});
    ASSERT_TRUE(path.has_value());
    double total = 0.0;
    for (const LinkId e : *path) total += g.weight(e);
    EXPECT_NEAR(total, tree.dist[v], 1e-9);
  }
}


// dijkstra_with keeps its heap in thread-local scratch and clear()s it per
// call.  A run must not see anything a previous run on the same thread left
// behind, including entries abandoned by an early exit.
template <class Heap>
class DijkstraHeapReuseTest : public ::testing::Test {};

using ReuseHeapTypes =
    ::testing::Types<FibHeap, BinaryHeap, QuaternaryHeap, PairingHeap>;
TYPED_TEST_SUITE(DijkstraHeapReuseTest, ReuseHeapTypes);

Digraph random_tie_heavy_graph(std::uint64_t seed, std::uint32_t n,
                               std::uint32_t m) {
  // Small integer weights: many equal keys, so parent links and pop counts
  // depend on the heap's internal order, not only on the distances.
  Rng rng(seed);
  Digraph g(n);
  for (std::uint32_t i = 0; i < m; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.next_below(n));
    const auto v = static_cast<std::uint32_t>(rng.next_below(n));
    g.add_link(NodeId{u}, NodeId{v}, static_cast<double>(rng.next_below(4)));
  }
  return g;
}

void expect_same_tree(const ShortestPathTree& got,
                      const ShortestPathTree& want) {
  EXPECT_EQ(got.dist, want.dist);
  EXPECT_EQ(got.parent_link, want.parent_link);
  EXPECT_EQ(got.pops, want.pops);
  EXPECT_EQ(got.relaxations, want.relaxations);
}

TYPED_TEST(DijkstraHeapReuseTest, RunAfterEarlyExitMatchesFreshThread) {
  using Heap = TypeParam;
  const Digraph big = random_tie_heavy_graph(11, 3000, 15000);
  const Digraph small = random_tie_heavy_graph(12, 400, 1800);
  const NodeId small_target{399};

  const auto fresh = [&](std::optional<NodeId> target) {
    ShortestPathTree tree;
    std::thread([&] { tree = dijkstra_with<Heap>(small, NodeId{3}, target); })
        .join();
    return tree;
  };
  const ShortestPathTree want_full = fresh(std::nullopt);
  const ShortestPathTree want_early = fresh(small_target);

  // The early exit must really abandon entries: nodes with a tentative
  // distance that were never popped are still in the heap.
  const ShortestPathTree abandoned =
      dijkstra_with<Heap>(big, NodeId{0}, NodeId{1500});
  std::uint64_t labelled = 0;
  for (const double d : abandoned.dist) labelled += d < kInfiniteCost;
  ASSERT_GT(labelled, abandoned.pops);

  expect_same_tree(dijkstra_with<Heap>(small, NodeId{3}), want_full);
  // Again after a run that emptied the heap, then an early exit of its own.
  expect_same_tree(dijkstra_with<Heap>(small, NodeId{3}, small_target),
                   want_early);
  (void)dijkstra_with<Heap>(big, NodeId{7}, NodeId{42});
  expect_same_tree(dijkstra_with<Heap>(small, NodeId{3}, small_target),
                   want_early);
}

}  // namespace
}  // namespace lumen

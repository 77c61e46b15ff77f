#include "graph/csr.h"

#include <gtest/gtest.h>

#include "graph/bellman_ford.h"
#include "util/rng.h"

namespace lumen {
namespace {

TEST(CsrTest, PreservesStructure) {
  Digraph g(3);
  const LinkId a = g.add_link(NodeId{0}, NodeId{1}, 1.5);
  const LinkId b = g.add_link(NodeId{0}, NodeId{2}, 2.5);
  const LinkId c = g.add_link(NodeId{2}, NodeId{0}, 3.5);
  const CsrDigraph csr(g);
  EXPECT_EQ(csr.num_nodes(), 3u);
  EXPECT_EQ(csr.num_links(), 3u);
  const auto [first0, last0] = csr.out_slot_range(NodeId{0});
  ASSERT_EQ(last0 - first0, 2u);
  EXPECT_EQ(csr.head(first0), NodeId{1});
  EXPECT_DOUBLE_EQ(csr.weight(first0), 1.5);
  EXPECT_EQ(csr.original(first0), a);
  EXPECT_EQ(csr.original(first0 + 1), b);
  EXPECT_EQ(csr.link(first0).head, NodeId{1});
  EXPECT_DOUBLE_EQ(csr.link(first0).weight, 1.5);
  const auto [first1, last1] = csr.out_slot_range(NodeId{1});
  EXPECT_EQ(first1, last1);
  const auto [first2, last2] = csr.out_slot_range(NodeId{2});
  ASSERT_EQ(last2 - first2, 1u);
  EXPECT_EQ(csr.original(first2), c);
}

TEST(CsrTest, EmptyGraph) {
  const CsrDigraph csr((Digraph()));
  EXPECT_EQ(csr.num_nodes(), 0u);
  EXPECT_EQ(csr.num_links(), 0u);
}

TEST(CsrTest, DijkstraMatchesAdjacencyListVersion) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    Rng rng(seed);
    Digraph g(80);
    for (int i = 0; i < 500; ++i) {
      const auto u = static_cast<std::uint32_t>(rng.next_below(80));
      const auto v = static_cast<std::uint32_t>(rng.next_below(80));
      g.add_link(NodeId{u}, NodeId{v}, rng.next_double_in(0.0, 5.0));
    }
    const CsrDigraph csr(g);
    const auto reference = dijkstra(g, NodeId{0});
    const auto fast = dijkstra_csr(csr, NodeId{0});
    for (std::uint32_t v = 0; v < 80; ++v) {
      EXPECT_EQ(fast.dist[v], reference.dist[v]) << "node " << v;
      // Parent links are expressed in original ids: both trees must give
      // the same distances through their parents.
      if (fast.parent_link[v].valid()) {
        EXPECT_EQ(g.head(fast.parent_link[v]), NodeId{v});
      }
    }
    EXPECT_EQ(fast.pops, reference.pops);
  }
}

TEST(CsrTest, EarlyExitTarget) {
  Rng rng(5);
  Digraph g(50);
  for (int i = 0; i < 300; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.next_below(50));
    const auto v = static_cast<std::uint32_t>(rng.next_below(50));
    if (u != v) g.add_link(NodeId{u}, NodeId{v}, rng.next_double_in(0.1, 3));
  }
  const CsrDigraph csr(g);
  const auto full = dijkstra_csr(csr, NodeId{0});
  for (std::uint32_t t = 1; t < 50; t += 7) {
    const auto early = dijkstra_csr(csr, NodeId{0}, NodeId{t});
    EXPECT_DOUBLE_EQ(early.dist[t], full.dist[t]);
    EXPECT_LE(early.pops, full.pops);
  }
}

TEST(CsrTest, InfiniteWeightsSkipped) {
  Digraph g(3);
  g.add_link(NodeId{0}, NodeId{1}, kInfiniteCost);
  g.add_link(NodeId{0}, NodeId{2}, 1.0);
  g.add_link(NodeId{2}, NodeId{1}, 1.0);
  const CsrDigraph csr(g);
  const auto tree = dijkstra_csr(csr, NodeId{0});
  EXPECT_DOUBLE_EQ(tree.dist[1], 2.0);
}

TEST(CsrTest, Preconditions) {
  Digraph g(2);
  g.add_link(NodeId{0}, NodeId{1}, 1.0);
  const CsrDigraph csr(g);
  EXPECT_THROW((void)csr.out_slot_range(NodeId{5}), Error);
  EXPECT_THROW((void)csr.head(9), Error);
  EXPECT_THROW((void)csr.weight(9), Error);
  EXPECT_THROW((void)dijkstra_csr(csr, NodeId{5}), Error);
}

}  // namespace
}  // namespace lumen

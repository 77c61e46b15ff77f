#include "graph/traversal.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace lumen {
namespace {

TEST(TraversalTest, BfsOrderFromSource) {
  Digraph g(4);
  g.add_link(NodeId{0}, NodeId{1}, 1);
  g.add_link(NodeId{0}, NodeId{2}, 1);
  g.add_link(NodeId{1}, NodeId{3}, 1);
  const auto order = bfs_order(g, NodeId{0});
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], NodeId{0});
  // 1 and 2 before 3.
  EXPECT_EQ(order[3], NodeId{3});
}

TEST(TraversalTest, ReachableFrom) {
  Digraph g(4);
  g.add_link(NodeId{0}, NodeId{1}, 1);
  g.add_link(NodeId{2}, NodeId{3}, 1);
  const auto reach = reachable_from(g, NodeId{0});
  EXPECT_TRUE(reach[0]);
  EXPECT_TRUE(reach[1]);
  EXPECT_FALSE(reach[2]);
  EXPECT_FALSE(reach[3]);
}

TEST(TraversalTest, StronglyConnectedCycle) {
  Digraph g(3);
  g.add_link(NodeId{0}, NodeId{1}, 1);
  g.add_link(NodeId{1}, NodeId{2}, 1);
  g.add_link(NodeId{2}, NodeId{0}, 1);
  EXPECT_TRUE(is_strongly_connected(g));
}

TEST(TraversalTest, DirectedPathNotStronglyConnected) {
  Digraph g(3);
  g.add_link(NodeId{0}, NodeId{1}, 1);
  g.add_link(NodeId{1}, NodeId{2}, 1);
  EXPECT_FALSE(is_strongly_connected(g));
  EXPECT_TRUE(is_weakly_connected(g));
}

TEST(TraversalTest, DisconnectedWeak) {
  Digraph g(4);
  g.add_link(NodeId{0}, NodeId{1}, 1);
  EXPECT_FALSE(is_weakly_connected(g));
}

TEST(TraversalTest, EmptyAndSingleton) {
  EXPECT_TRUE(is_strongly_connected(Digraph{}));
  EXPECT_TRUE(is_weakly_connected(Digraph{}));
  Digraph one(1);
  EXPECT_TRUE(is_strongly_connected(one));
  EXPECT_TRUE(is_weakly_connected(one));
}

TEST(TraversalTest, BfsHops) {
  Digraph g(5);
  g.add_link(NodeId{0}, NodeId{1}, 1);
  g.add_link(NodeId{1}, NodeId{2}, 1);
  g.add_link(NodeId{2}, NodeId{3}, 1);
  g.add_link(NodeId{0}, NodeId{3}, 1);
  EXPECT_EQ(bfs_hops(g, NodeId{0}, NodeId{3}), 1);
  EXPECT_EQ(bfs_hops(g, NodeId{0}, NodeId{2}), 2);
  EXPECT_EQ(bfs_hops(g, NodeId{0}, NodeId{0}), 0);
  EXPECT_EQ(bfs_hops(g, NodeId{0}, NodeId{4}), -1);
}

TEST(TraversalTest, BfsLinkPathTieGoesToTheLowerOutLinkRow) {
  // Equal-hop diamond 0 -> {1, 2} -> 3: the branch whose out-link from 0
  // comes first in the row is discovered first and carries the path.
  Digraph g(4);
  const LinkId to_2 = g.add_link(NodeId{0}, NodeId{2}, 1);
  const LinkId to_1 = g.add_link(NodeId{0}, NodeId{1}, 1);
  const LinkId from_1 = g.add_link(NodeId{1}, NodeId{3}, 1);
  const LinkId from_2 = g.add_link(NodeId{2}, NodeId{3}, 1);
  const auto all = [](LinkId) { return true; };
  EXPECT_EQ(bfs_link_path(g, NodeId{0}, NodeId{3}, all),
            (std::vector<LinkId>{to_2, from_2}));
  // Filtering the winning branch's first link hands the tie to the other.
  const auto skip = [&](LinkId e) { return e != to_2; };
  EXPECT_EQ(bfs_link_path(g, NodeId{0}, NodeId{3}, skip),
            (std::vector<LinkId>{to_1, from_1}));
  // Unreachable and self targets give the empty path.
  const auto none = [](LinkId) { return false; };
  EXPECT_TRUE(bfs_link_path(g, NodeId{0}, NodeId{3}, none).empty());
  EXPECT_TRUE(bfs_link_path(g, NodeId{3}, NodeId{3}, all).empty());
}

TEST(TraversalTest, RandomBidirectionalGraphIsStronglyConnected) {
  Rng rng(5);
  Digraph g(30);
  // Spanning chain both ways guarantees strong connectivity.
  for (std::uint32_t i = 0; i + 1 < 30; ++i) {
    g.add_link(NodeId{i}, NodeId{i + 1}, 1);
    g.add_link(NodeId{i + 1}, NodeId{i}, 1);
  }
  for (int i = 0; i < 40; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.next_below(30));
    const auto v = static_cast<std::uint32_t>(rng.next_below(30));
    if (u != v) g.add_link(NodeId{u}, NodeId{v}, 1);
  }
  EXPECT_TRUE(is_strongly_connected(g));
}

}  // namespace
}  // namespace lumen

#include "graph/digraph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/dijkstra.h"  // kInfiniteCost
#include "util/error.h"
#include "util/rng.h"

namespace lumen {
namespace {

TEST(DigraphTest, EmptyGraph) {
  Digraph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_links(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(DigraphTest, AddNodesAndLinks) {
  Digraph g(3);
  EXPECT_EQ(g.num_nodes(), 3u);
  const LinkId e = g.add_link(NodeId{0}, NodeId{1}, 2.5);
  EXPECT_EQ(g.num_links(), 1u);
  EXPECT_EQ(g.tail(e), NodeId{0});
  EXPECT_EQ(g.head(e), NodeId{1});
  EXPECT_DOUBLE_EQ(g.weight(e), 2.5);
}

TEST(DigraphTest, AddNodeGrows) {
  Digraph g(1);
  const NodeId v = g.add_node();
  EXPECT_EQ(v, NodeId{1});
  EXPECT_EQ(g.num_nodes(), 2u);
}

TEST(DigraphTest, AdjacencyLists) {
  Digraph g(4);
  const LinkId a = g.add_link(NodeId{0}, NodeId{1}, 1);
  const LinkId b = g.add_link(NodeId{0}, NodeId{2}, 1);
  const LinkId c = g.add_link(NodeId{2}, NodeId{0}, 1);
  ASSERT_EQ(g.out_links(NodeId{0}).size(), 2u);
  EXPECT_EQ(g.out_links(NodeId{0})[0], a);
  EXPECT_EQ(g.out_links(NodeId{0})[1], b);
  ASSERT_EQ(g.in_links(NodeId{0}).size(), 1u);
  EXPECT_EQ(g.in_links(NodeId{0})[0], c);
  EXPECT_EQ(g.out_degree(NodeId{0}), 2u);
  EXPECT_EQ(g.in_degree(NodeId{0}), 1u);
  EXPECT_EQ(g.out_degree(NodeId{3}), 0u);
}

TEST(DigraphTest, ParallelLinksAllowed) {
  Digraph g(2);
  g.add_link(NodeId{0}, NodeId{1}, 1);
  g.add_link(NodeId{0}, NodeId{1}, 2);
  EXPECT_EQ(g.num_links(), 2u);
  EXPECT_EQ(g.out_degree(NodeId{0}), 2u);
}

TEST(DigraphTest, SelfLoopAllowed) {
  Digraph g(1);
  const LinkId e = g.add_link(NodeId{0}, NodeId{0}, 1);
  EXPECT_EQ(g.tail(e), g.head(e));
  EXPECT_EQ(g.in_degree(NodeId{0}), 1u);
  EXPECT_EQ(g.out_degree(NodeId{0}), 1u);
}

TEST(DigraphTest, MaxDegree) {
  Digraph g(4);
  g.add_link(NodeId{0}, NodeId{1}, 1);
  g.add_link(NodeId{0}, NodeId{2}, 1);
  g.add_link(NodeId{0}, NodeId{3}, 1);
  g.add_link(NodeId{1}, NodeId{0}, 1);
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(DigraphTest, SetWeight) {
  Digraph g(2);
  const LinkId e = g.add_link(NodeId{0}, NodeId{1}, 1.0);
  g.set_weight(e, 9.0);
  EXPECT_DOUBLE_EQ(g.weight(e), 9.0);
}

TEST(DigraphTest, InfiniteWeightAllowed) {
  Digraph g(2);
  const LinkId e = g.add_link(NodeId{0}, NodeId{1}, kInfiniteCost);
  EXPECT_EQ(g.weight(e), kInfiniteCost);
}

TEST(DigraphTest, NegativeWeightRejected) {
  Digraph g(2);
  EXPECT_THROW(g.add_link(NodeId{0}, NodeId{1}, -1.0), Error);
  const LinkId e = g.add_link(NodeId{0}, NodeId{1}, 1.0);
  EXPECT_THROW(g.set_weight(e, -0.5), Error);
}

TEST(DigraphTest, OutOfRangeRejected) {
  Digraph g(2);
  EXPECT_THROW(g.add_link(NodeId{0}, NodeId{2}, 1.0), Error);
  EXPECT_THROW(g.add_link(NodeId{5}, NodeId{0}, 1.0), Error);
  EXPECT_THROW((void)g.tail(LinkId{0}), Error);
  EXPECT_THROW((void)g.out_links(NodeId{2}), Error);
}


// Copies a row out of the graph (spans die on the next mutation).
std::vector<LinkId> out_row(const Digraph& g, std::uint32_t v) {
  const auto row = g.out_links(NodeId{v});
  return {row.begin(), row.end()};
}
std::vector<LinkId> in_row(const Digraph& g, std::uint32_t v) {
  const auto row = g.in_links(NodeId{v});
  return {row.begin(), row.end()};
}

/// Per-node adjacency kept the obvious way, as the reference model.
struct ReferenceAdjacency {
  std::vector<std::vector<LinkId>> out, in;

  void add_node() {
    out.emplace_back();
    in.emplace_back();
  }
  void add_link(const Digraph& g, LinkId e) {
    out[g.tail(e).value()].push_back(e);
    in[g.head(e).value()].push_back(e);
  }
  void expect_matches(const Digraph& g) const {
    ASSERT_EQ(g.num_nodes(), out.size());
    for (std::uint32_t v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(out_row(g, v), out[v]) << "out-row of node " << v;
      EXPECT_EQ(in_row(g, v), in[v]) << "in-row of node " << v;
    }
  }
};

TEST(DigraphTest, InsertionOrderSurvivesRowRelocation) {
  // Node 0's out-row outgrows its window again and again while links on
  // other nodes keep landing behind it, so every growth relocates it.
  Digraph g(4);
  ReferenceAdjacency ref;
  for (int v = 0; v < 4; ++v) ref.add_node();
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ref.add_link(g, g.add_link(NodeId{0}, NodeId{1 + i % 3}, 1.0));
    ref.add_link(g, g.add_link(NodeId{1 + i % 3}, NodeId{i % 4}, 2.0));
  }
  ref.expect_matches(g);
  ASSERT_EQ(g.out_degree(NodeId{0}), 1000u);
  // Insertion order is link-id order for a row built in one pass.
  const auto row = g.out_links(NodeId{0});
  for (std::size_t i = 1; i < row.size(); ++i) EXPECT_LT(row[i - 1], row[i]);
}

TEST(DigraphTest, AddNodeAfterLinks) {
  Digraph g(2);
  const LinkId a = g.add_link(NodeId{0}, NodeId{1}, 1.0);
  const LinkId b = g.add_link(NodeId{1}, NodeId{0}, 1.0);
  const NodeId v = g.add_node();
  const NodeId w = g.add_node(3, 1);
  EXPECT_EQ(v, NodeId{2});
  EXPECT_EQ(w, NodeId{3});
  EXPECT_EQ(g.out_degree(v), 0u);
  EXPECT_EQ(g.in_degree(w), 0u);
  const LinkId c = g.add_link(NodeId{0}, v, 1.0);
  const LinkId d = g.add_link(w, NodeId{0}, 1.0);
  EXPECT_EQ(out_row(g, 0), (std::vector<LinkId>{a, c}));
  EXPECT_EQ(in_row(g, 0), (std::vector<LinkId>{b, d}));
  EXPECT_EQ(in_row(g, 2), (std::vector<LinkId>{c}));
  EXPECT_EQ(out_row(g, 3), (std::vector<LinkId>{d}));
  EXPECT_EQ(out_row(g, 1), (std::vector<LinkId>{b}));
}

TEST(DigraphTest, PresizedRowsMayOverflow) {
  // add_node's capacities are a layout hint, not a limit.
  Digraph g;
  g.reserve(3, 8);
  ReferenceAdjacency ref;
  for (std::uint32_t v = 0; v < 3; ++v) {
    g.add_node(1, v);
    ref.add_node();
  }
  for (std::uint32_t i = 0; i < 40; ++i)
    ref.add_link(g, g.add_link(NodeId{i % 3}, NodeId{(i * 7) % 3}, 1.0));
  ref.expect_matches(g);
}

TEST(DigraphTest, CopiesAndMovesAreIndependent) {
  Digraph g(3);
  g.add_link(NodeId{0}, NodeId{1}, 1.0);
  g.add_link(NodeId{1}, NodeId{2}, 2.0);
  Digraph copy = g;
  copy.add_link(NodeId{0}, NodeId{2}, 3.0);
  copy.set_weight(LinkId{0}, 9.0);
  copy.add_node();
  EXPECT_EQ(g.num_links(), 2u);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.out_degree(NodeId{0}), 1u);
  EXPECT_DOUBLE_EQ(g.weight(LinkId{0}), 1.0);
  EXPECT_EQ(copy.out_degree(NodeId{0}), 2u);

  Digraph moved = std::move(copy);
  EXPECT_EQ(moved.num_nodes(), 4u);
  EXPECT_EQ(out_row(moved, 0), (std::vector<LinkId>{LinkId{0}, LinkId{2}}));
  g.add_link(NodeId{2}, NodeId{0}, 1.0);
  EXPECT_EQ(moved.in_degree(NodeId{0}), 0u);
  EXPECT_EQ(g.in_degree(NodeId{0}), 1u);

  Digraph assigned(1);
  assigned = g;
  assigned.add_link(NodeId{0}, NodeId{0}, 1.0);
  EXPECT_EQ(g.out_degree(NodeId{0}), 1u);
  EXPECT_EQ(assigned.out_degree(NodeId{0}), 2u);
}

TEST(DigraphTest, ParallelLinksAndSelfLoopsKeepOrder) {
  Digraph g(2);
  const LinkId p1 = g.add_link(NodeId{0}, NodeId{1}, 1);
  const LinkId loop = g.add_link(NodeId{0}, NodeId{0}, 1);
  const LinkId p2 = g.add_link(NodeId{0}, NodeId{1}, 2);
  const LinkId loop2 = g.add_link(NodeId{0}, NodeId{0}, 3);
  EXPECT_EQ(out_row(g, 0), (std::vector<LinkId>{p1, loop, p2, loop2}));
  EXPECT_EQ(in_row(g, 0), (std::vector<LinkId>{loop, loop2}));
  EXPECT_EQ(in_row(g, 1), (std::vector<LinkId>{p1, p2}));
  EXPECT_EQ(g.max_degree(), 4u);
}

TEST(DigraphTest, MaxDegreeCountsBothDirections) {
  Digraph g(5);
  for (std::uint32_t i = 0; i < 7; ++i) g.add_link(NodeId{i % 4}, NodeId{4}, 1);
  EXPECT_EQ(g.max_degree(), 7u);  // in-degree of node 4
  for (std::uint32_t i = 0; i < 9; ++i) g.add_link(NodeId{1}, NodeId{i % 4}, 1);
  EXPECT_EQ(g.out_degree(NodeId{1}), 11u);
  EXPECT_EQ(g.max_degree(), 11u);
}

TEST(DigraphTest, RandomMutationsMatchReference) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    Rng rng(seed);
    Digraph g;
    ReferenceAdjacency ref;
    for (int step = 0; step < 3000; ++step) {
      if (g.num_nodes() < 2 || rng.next_below(10) == 0) {
        const auto hint = [&] {
          return static_cast<std::uint32_t>(rng.next_below(4));
        };
        if (rng.next_below(2) == 0) {
          g.add_node();
        } else {
          g.add_node(hint(), hint());
        }
        ref.add_node();
      } else {
        const auto pick = [&] {
          return NodeId{
              static_cast<std::uint32_t>(rng.next_below(g.num_nodes()))};
        };
        const NodeId u = pick();
        ref.add_link(g, g.add_link(u, pick(), 1.0));
      }
    }
    ref.expect_matches(g);
    std::uint32_t d = 0;
    for (std::uint32_t v = 0; v < g.num_nodes(); ++v)
      d = std::max({d, static_cast<std::uint32_t>(ref.out[v].size()),
                    static_cast<std::uint32_t>(ref.in[v].size())});
    EXPECT_EQ(g.max_degree(), d) << "seed " << seed;
  }
}

}  // namespace
}  // namespace lumen

// The counted, pre-sized auxiliary-graph build: every adjacency row still
// lists its links in insertion (= link-id) order, whichever builder made the
// graph, and the reported build time is measured once, inside the call.
#include <gtest/gtest.h>

#include <vector>

#include "core/aux_graph.h"
#include "core/liang_shen.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace lumen {
namespace {

using testing::ConvKind;
using testing::fuzz_network;
using testing::random_network;

/// Every out-row (in-row) must be exactly the links with that tail (head),
/// ascending by id: links were added in id order, so that is the order the
/// per-node vectors of a plain incremental build would hold.
void expect_rows_in_link_order(const Digraph& g) {
  std::vector<std::vector<LinkId>> out(g.num_nodes()), in(g.num_nodes());
  for (std::uint32_t ei = 0; ei < g.num_links(); ++ei) {
    out[g.tail(LinkId{ei}).value()].push_back(LinkId{ei});
    in[g.head(LinkId{ei}).value()].push_back(LinkId{ei});
  }
  for (std::uint32_t v = 0; v < g.num_nodes(); ++v) {
    const auto out_row = g.out_links(NodeId{v});
    const auto in_row = g.in_links(NodeId{v});
    EXPECT_EQ(std::vector<LinkId>(out_row.begin(), out_row.end()), out[v])
        << "out-row of aux node " << v;
    EXPECT_EQ(std::vector<LinkId>(in_row.begin(), in_row.end()), in[v])
        << "in-row of aux node " << v;
  }
}

TEST(AuxGraphBuildTest, RowsHoldTheirLinksInIdOrder) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const WdmNetwork net = fuzz_network(rng);
    expect_rows_in_link_order(AuxiliaryGraph::build_all_pairs(net).graph());
    const auto s = NodeId{0};
    const auto t = NodeId{net.num_nodes() - 1};
    const auto aux = AuxiliaryGraph::build_single_pair(net, s, t);
    expect_rows_in_link_order(aux.graph());
    EXPECT_EQ(aux.graph().num_nodes(), aux.stats().total_nodes());
    EXPECT_EQ(aux.graph().num_links(), aux.stats().total_links());
  }
}

TEST(AuxGraphBuildTest, BuildSecondsFitInsideTheCall) {
  Rng rng(7);
  for (const ConvKind kind : {ConvKind::kNone, ConvKind::kUniform,
                              ConvKind::kRandomMatrix}) {
    const WdmNetwork net = random_network(60, 90, 8, 5, kind, rng);
    {
      Stopwatch wall;
      const auto aux = AuxiliaryGraph::build_single_pair(net, NodeId{0},
                                                         NodeId{59});
      const double seconds = wall.seconds();
      EXPECT_GT(aux.stats().build_seconds, 0.0);
      EXPECT_LE(aux.stats().build_seconds, seconds);
    }
    {
      Stopwatch wall;
      const auto aux = AuxiliaryGraph::build_all_pairs(net);
      const double seconds = wall.seconds();
      EXPECT_GT(aux.stats().build_seconds, 0.0);
      EXPECT_LE(aux.stats().build_seconds, seconds);
    }
  }
}

TEST(AuxGraphBuildTest, RouteBuildPlusSearchFitsInsideTheCall) {
  Rng rng(8);
  const WdmNetwork net = random_network(80, 120, 8, 5, ConvKind::kUniform, rng);
  for (std::uint32_t t = 1; t < 20; ++t) {
    Stopwatch wall;
    const RouteResult result = route_semilightpath(net, NodeId{0}, NodeId{t});
    const double seconds = wall.seconds();
    EXPECT_LE(result.stats.build_seconds, seconds) << "t = " << t;
    EXPECT_LE(result.stats.build_seconds + result.stats.search_seconds,
              seconds)
        << "t = " << t;
    EXPECT_LE(result.stats.total_seconds(), seconds) << "t = " << t;
  }
}

}  // namespace
}  // namespace lumen

// CoreLayout numbers G' exactly as the materialised AuxiliaryGraph does:
// the same (kind, v, λ) per node id, the same X_v / Y_v ranges and the same
// E_org row out of every Y-node.  RouteEngine flattens G' from the layout,
// so its core must have the reference's gadget nodes and its gadget plus
// transmission links.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/aux_graph.h"
#include "core/layout.h"
#include "core/route_engine.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace lumen {
namespace {

void expect_layout_matches(const WdmNetwork& net, const std::string& where) {
  const CoreLayout layout(net);
  const NodeId t{net.num_nodes() - 1};
  const auto aux = AuxiliaryGraph::build_single_pair(net, NodeId{0}, t);
  const Digraph& g = aux.graph();
  ASSERT_EQ(layout.num_nodes(), aux.stats().gadget_nodes) << where;
  EXPECT_EQ(layout.num_transmissions(), aux.stats().transmission_links)
      << where;

  for (std::uint32_t a = 0; a < layout.num_nodes(); ++a) {
    const NodeId id{a};
    const AuxNodeInfo& got = layout.node(id);
    const AuxNodeInfo& want = aux.node_info(id);
    ASSERT_EQ(got.kind, want.kind) << where << " node " << a;
    ASSERT_EQ(got.node, want.node) << where << " node " << a;
    ASSERT_EQ(got.lambda, want.lambda) << where << " node " << a;

    // The E_org links in the reference's out-row (none for an X-node).
    std::vector<CoreLayout::Arc> transmissions;
    for (const LinkId e : g.out_links(id)) {
      const AuxLinkInfo& info = aux.link_info(e);
      if (info.kind == AuxLinkKind::kTransmission)
        transmissions.push_back({g.head(e), info.physical_link, g.weight(e)});
    }
    const auto row = layout.transmissions(id);
    ASSERT_EQ(row.size(), transmissions.size()) << where << " node " << a;
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i].head, transmissions[i].head) << where << " node " << a;
      EXPECT_EQ(row[i].link, transmissions[i].link) << where << " node " << a;
      EXPECT_EQ(row[i].weight, transmissions[i].weight)
          << where << " node " << a;
    }
  }

  for (std::uint32_t vi = 0; vi < net.num_nodes(); ++vi) {
    const NodeId v{vi};
    ASSERT_EQ(layout.x_ids(v).size(), aux.x_size(v)) << where << " v " << vi;
    ASSERT_EQ(layout.y_ids(v).size(), aux.y_size(v)) << where << " v " << vi;
    for (const std::uint32_t x : layout.x_ids(v))
      EXPECT_EQ(aux.x_node(v, layout.node(NodeId{x}).lambda), NodeId{x})
          << where << " v " << vi;
    for (const std::uint32_t y : layout.y_ids(v))
      EXPECT_EQ(aux.y_node(v, layout.node(NodeId{y}).lambda), NodeId{y})
          << where << " v " << vi;
  }

  const RouteEngine engine(net);
  EXPECT_EQ(engine.stats().core_nodes, aux.stats().gadget_nodes) << where;
  EXPECT_EQ(engine.stats().core_links,
            aux.stats().gadget_links + aux.stats().transmission_links)
      << where;
  EXPECT_EQ(engine.stats().transmission_slots,
            aux.stats().transmission_links)
      << where;
}

TEST(CoreLayoutTest, NumbersGPrimeAsTheMaterialisedGraphDoes) {
  Rng rng(2828);
  for (int round = 0; round < 60; ++round) {
    const WdmNetwork net = testing::fuzz_network(rng);
    expect_layout_matches(net, "round " + std::to_string(round));
  }
}

TEST(CoreLayoutTest, NumbersThePaperExample) {
  expect_layout_matches(testing::paper_example_network(), "paper example");
}

/// A network of `n` nodes over a k-wavelength universe from (tail, head,
/// Λ(e)) triples, in link-id order, every wavelength at cost 1 + λ mod 7.
WdmNetwork network_of(
    std::uint32_t n, std::uint32_t k,
    std::initializer_list<std::tuple<std::uint32_t, std::uint32_t,
                                     std::vector<std::uint32_t>>>
        links) {
  WdmNetwork net(n, k, std::make_shared<UniformConversion>(0.5));
  for (const auto& [u, v, lambdas] : links) {
    const LinkId e = net.add_link(NodeId{u}, NodeId{v});
    for (const std::uint32_t l : lambdas)
      net.set_wavelength(e, Wavelength{l}, 1.0 + l % 7);
  }
  return net;
}

// The λ sort takes several radix passes once the largest λ reaches |E_M|.
// RouteEngine keeps a k·m lightpath table, so the 2^20 universe runs on
// four links.
TEST(CoreLayoutTest, NumbersLargeSparseUniverses) {
  Rng rng(3131);
  for (const std::uint32_t k : {4096u, 1u << 20}) {
    const std::uint32_t n = k == 4096 ? 64 : 3;
    const std::uint32_t extra_links = k == 4096 ? 2 * n : 1;
    for (int round = 0; round < 4; ++round) {
      const auto kind = round % 2 == 0 ? testing::ConvKind::kRange
                                       : testing::ConvKind::kUniform;
      const WdmNetwork net =
          testing::random_network(n, extra_links, k, 3, kind, rng);
      expect_layout_matches(net, "k " + std::to_string(k) + " round " +
                                     std::to_string(round));
    }
  }
}

// Parallel links share λs, so a Y-node's row holds several links, in
// link-id order even where other tails' links come between them.
TEST(CoreLayoutTest, OrdersParallelLinksByLinkId) {
  const WdmNetwork net = network_of(4, 70000,
                                    {{0, 1, {1, 3}},
                                     {2, 3, {0}},
                                     {0, 1, {0, 1, 3}},
                                     {1, 2, {1, 2}},
                                     {0, 1, {3}},
                                     {0, 2, {1, 69999}},
                                     {1, 2, {1, 69999}},
                                     {0, 1, {69999}},
                                     {2, 3, {1, 69999}}});
  expect_layout_matches(net, "parallel links");
  const CoreLayout layout(net);
  const std::uint32_t y = *layout.y_ids(NodeId{0}).begin();
  ASSERT_EQ(layout.node(NodeId{y + 1}).lambda, Wavelength{1});
  std::vector<LinkId> row;
  for (const CoreLayout::Arc& arc : layout.transmissions(NodeId{y + 1}))
    row.push_back(arc.link);
  EXPECT_EQ(row, (std::vector<LinkId>{LinkId{0}, LinkId{2}, LinkId{5}}));
}

// Node 0 has no in-links, node 5 no out-links, node 2 no links, node 3's
// out-link and node 4's in-links carry no wavelength: their X or Y layers
// are empty.
TEST(CoreLayoutTest, NumbersNodesWithoutInOrOutLinks) {
  const WdmNetwork net = network_of(6, 3,
                                    {{0, 1, {0, 2}},
                                     {1, 5, {2}},
                                     {3, 4, {}},
                                     {4, 3, {1}},
                                     {0, 4, {}},
                                     {1, 5, {0, 1}}});
  expect_layout_matches(net, "sparse degrees");
  const CoreLayout layout(net);
  EXPECT_TRUE(layout.x_ids(NodeId{0}).empty());
  EXPECT_TRUE(layout.x_ids(NodeId{2}).empty());
  EXPECT_TRUE(layout.y_ids(NodeId{2}).empty());
  EXPECT_TRUE(layout.y_ids(NodeId{3}).empty());
  EXPECT_TRUE(layout.x_ids(NodeId{4}).empty());
  EXPECT_TRUE(layout.y_ids(NodeId{5}).empty());
}

TEST(CoreLayoutTest, NumbersALargeSparseWan) {
  Rng rng(1024);
  const WdmNetwork net = testing::random_network(
      1024, 3 * 1024, 10, 4, testing::ConvKind::kUniform, rng);
  expect_layout_matches(net, "1024-node WAN");
}

}  // namespace
}  // namespace lumen

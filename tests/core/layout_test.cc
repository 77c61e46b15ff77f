// CoreLayout numbers G' exactly as the materialised AuxiliaryGraph does:
// the same (kind, v, λ) per node id, the same X_v / Y_v ranges and the same
// E_org row out of every Y-node.  RouteEngine flattens G' from the layout,
// so its core must have the reference's gadget nodes and its gadget plus
// transmission links.
#include <gtest/gtest.h>

#include <string>
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

}  // namespace
}  // namespace lumen

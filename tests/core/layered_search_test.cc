// route_semilightpath searches G_{s,t} without storing its gadget links;
// route_on_aux searches the materialised G_{s,t} of build_single_pair.  Both
// relax every node's links in the same order, so with the same heap they
// must agree exactly: the same optimum (bit for bit), the same hops and
// switch settings, and the same number of heap pops.  state_dijkstra_route
// is the independent oracle for the cost.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/aux_graph.h"
#include "core/liang_shen.h"
#include "core/state_dijkstra.h"
#include "tests/test_util.h"

namespace lumen {
namespace {

using testing::ConvKind;
using testing::random_network;

constexpr HeapKind kHeaps[] = {HeapKind::kFibonacci, HeapKind::kBinary,
                               HeapKind::kQuaternary, HeapKind::kPairing};

/// Routes s -> t both ways with `heap` and expects identical results.
void expect_same_search(const WdmNetwork& net, NodeId s, NodeId t,
                        HeapKind heap) {
  const std::string where = std::to_string(s.value()) + "->" +
                            std::to_string(t.value()) + " heap " +
                            std::to_string(static_cast<int>(heap));
  const AuxiliaryGraph aux = AuxiliaryGraph::build_single_pair(net, s, t);
  const RouteResult want = route_on_aux(net, aux, heap);
  const RouteResult got = route_semilightpath(net, s, t, heap);
  ASSERT_EQ(got.found, want.found) << where;
  EXPECT_EQ(got.cost, want.cost) << where;
  EXPECT_EQ(got.path, want.path) << where;
  EXPECT_EQ(got.switches, want.switches) << where;
  EXPECT_EQ(got.stats.search_pops, want.stats.search_pops) << where;
  EXPECT_EQ(got.stats.search_relaxations, want.stats.search_relaxations)
      << where;

  // |V'| is the materialised graph's; the links searched are E_org, the
  // ties and the gadget links of settled X-nodes, never more than |E'|.
  EXPECT_EQ(got.stats.aux_nodes, want.stats.aux_nodes) << where;
  const AuxGraphStats& size = aux.stats();
  EXPECT_GE(got.stats.aux_links,
            size.transmission_links + size.terminal_links)
      << where;
  EXPECT_LE(got.stats.aux_links, size.total_links()) << where;

  const RouteResult oracle = state_dijkstra_route(net, s, t);
  ASSERT_EQ(got.found, oracle.found) << where;
  if (!got.found) return;
  EXPECT_NEAR(got.cost, oracle.cost, 1e-9) << where;
  EXPECT_TRUE(got.path.is_valid(net)) << where;
  EXPECT_EQ(got.path.source(net), s) << where;
  EXPECT_EQ(got.path.destination(net), t) << where;
}

class LayeredSearchSweepTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, ConvKind>> {};

TEST_P(LayeredSearchSweepTest, MatchesMaterialisedGraphOnSparseNetworks) {
  const auto [seed, kind] = GetParam();
  Rng rng(seed);
  constexpr std::uint32_t kN = 30;
  const auto net = random_network(kN, 2 * kN, 8, 4, kind, rng);
  Rng pick(seed ^ 0x5eedULL);
  for (int trial = 0; trial < 8; ++trial) {
    const auto s = static_cast<std::uint32_t>(pick.next_below(kN));
    auto t = static_cast<std::uint32_t>(pick.next_below(kN));
    if (s == t) t = (t + 1) % kN;
    for (const HeapKind heap : kHeaps)
      expect_same_search(net, NodeId{s}, NodeId{t}, heap);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LayeredSearchSweepTest,
    ::testing::Combine(::testing::Values(31ULL, 32ULL, 33ULL),
                       ::testing::Values(ConvKind::kNone, ConvKind::kUniform,
                                         ConvKind::kRange, ConvKind::kSparse,
                                         ConvKind::kRandomMatrix)));

TEST(LayeredSearchTest, MatchesOnDegenerateFuzzNetworks) {
  // Parallel links, wavelength-free links, zero-cost wavelengths, k = 1.
  Rng rng(4242);
  for (int round = 0; round < 40; ++round) {
    const auto net = testing::fuzz_network(rng);
    const std::uint32_t n = net.num_nodes();
    const auto s = static_cast<std::uint32_t>(rng.next_below(n));
    const auto t =
        (s + 1 + static_cast<std::uint32_t>(rng.next_below(n - 1))) % n;
    for (const HeapKind heap : kHeaps)
      expect_same_search(net, NodeId{s}, NodeId{t}, heap);
  }
}

TEST(LayeredSearchTest, MatchesOnThePaperExample) {
  // Fig. 3 forbids λ2 -> λ3 at node 3: a +∞ gadget pair to skip.
  const auto net = testing::paper_example_network();
  for (std::uint32_t s = 0; s < net.num_nodes(); ++s)
    for (std::uint32_t t = 0; t < net.num_nodes(); ++t)
      if (s != t)
        for (const HeapKind heap : kHeaps)
          expect_same_search(net, NodeId{s}, NodeId{t}, heap);
}

TEST(LayeredSearchTest, MatchesOnTheNodeRevisitInstance) {
  const auto net = testing::revisit_instance();
  for (const HeapKind heap : kHeaps) {
    expect_same_search(net, NodeId{0}, NodeId{3}, heap);
    const RouteResult r = route_semilightpath(net, NodeId{0}, NodeId{3}, heap);
    ASSERT_TRUE(r.found);
    EXPECT_TRUE(r.path.revisits_node(net));
    EXPECT_EQ(r.switches.size(), 2u);
  }
}

TEST(LayeredSearchTest, UnreachableTargetIsNotFound) {
  // 0 -> 1 -> 2 on λ0; nothing enters 3, and nothing leaves 2.
  WdmNetwork net(4, 2, std::make_shared<UniformConversion>(0.5));
  net.set_wavelength(net.add_link(NodeId{0}, NodeId{1}), Wavelength{0}, 1.0);
  net.set_wavelength(net.add_link(NodeId{1}, NodeId{2}), Wavelength{1}, 1.0);
  for (const HeapKind heap : kHeaps) {
    expect_same_search(net, NodeId{0}, NodeId{3}, heap);
    expect_same_search(net, NodeId{2}, NodeId{0}, heap);
    const RouteResult r = route_semilightpath(net, NodeId{0}, NodeId{3}, heap);
    EXPECT_FALSE(r.found);
    EXPECT_EQ(r.cost, kInfiniteCost);
    EXPECT_TRUE(r.path.empty());
  }
}

TEST(LayeredSearchTest, AdjacentEndpointsTakeTheDirectLink) {
  // s -> t directly on λ1 (cost 2), s -> a -> t on λ0 (cost 1 + 1.5), or a
  // parallel s -> t link carrying λ0 (cost 3) and λ1 (cost 1.75).
  WdmNetwork net(3, 2, std::make_shared<NoConversion>());
  net.set_wavelength(net.add_link(NodeId{0}, NodeId{2}), Wavelength{1}, 2.0);
  net.set_wavelength(net.add_link(NodeId{0}, NodeId{1}), Wavelength{0}, 1.0);
  net.set_wavelength(net.add_link(NodeId{1}, NodeId{2}), Wavelength{0}, 1.5);
  const LinkId parallel = net.add_link(NodeId{0}, NodeId{2});
  net.set_wavelength(parallel, Wavelength{0}, 3.0);
  net.set_wavelength(parallel, Wavelength{1}, 1.75);
  for (const HeapKind heap : kHeaps) {
    expect_same_search(net, NodeId{0}, NodeId{2}, heap);
    const RouteResult r = route_semilightpath(net, NodeId{0}, NodeId{2}, heap);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.cost, 1.75);
    ASSERT_EQ(r.path.length(), 1u);
    EXPECT_EQ(r.path.hops()[0], (Hop{parallel, Wavelength{1}}));
  }
}

TEST(LayeredSearchTest, LinksSearchedCountOnlySettledGadgets) {
  // A chain 0 -> 1 -> ... -> 9 with every λ on every link and full
  // conversion: G_{0,9} has k² gadget links per node, but a route to the
  // neighbour settles only the X-nodes of node 1.
  constexpr std::uint32_t kN = 10, kK = 6;
  WdmNetwork net(kN, kK, std::make_shared<UniformConversion>(1.0));
  for (std::uint32_t v = 0; v + 1 < kN; ++v) {
    const LinkId e = net.add_link(NodeId{v}, NodeId{v + 1});
    for (std::uint32_t l = 0; l < kK; ++l)
      net.set_wavelength(e, Wavelength{l}, 1.0);
  }
  const RouteResult r = route_semilightpath(net, NodeId{0}, NodeId{1});
  ASSERT_TRUE(r.found);
  const auto aux = AuxiliaryGraph::build_single_pair(net, NodeId{0}, NodeId{1});
  EXPECT_EQ(r.stats.aux_nodes, aux.stats().total_nodes());
  const std::uint64_t stored =
      aux.stats().transmission_links + aux.stats().terminal_links;
  // Node 1's X-nodes settle before t'' pops (each at cost 1); how many of
  // them expand depends on the heap's tie order, but at most |X_1|·|Y_1|.
  EXPECT_LE(r.stats.aux_links, stored + kK * kK);
  EXPECT_LT(r.stats.aux_links, aux.stats().total_links());
}

}  // namespace
}  // namespace lumen

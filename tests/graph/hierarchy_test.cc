#include "graph/hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace lumen {
namespace {

Digraph random_digraph(Rng& rng, std::uint32_t n, std::uint32_t m) {
  Digraph g(n);
  for (std::uint32_t i = 0; i < m; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.next_below(n));
    const auto v = static_cast<std::uint32_t>(rng.next_below(n));
    if (u == v) continue;
    g.add_link(NodeId{u}, NodeId{v}, rng.next_double_in(0.1, 4.0));
  }
  return g;
}

/// Flat multi-source / multi-sink reference on the arena's current
/// weights: cheapest distance from any source to any sink.
double reference_cost(const CsrDigraph& csr, std::span<const NodeId> sources,
                      std::span<const NodeId> sinks, SearchScratch& scratch) {
  scratch.begin(csr.num_nodes());
  for (const NodeId t : sinks) scratch.mark_sink(t);
  const NodeId hit = dijkstra_csr_run(csr, sources, scratch);
  return hit.valid() ? scratch.dist(hit) : kInfiniteCost;
}

/// Left-to-right sum of the unpacked slots — the comparison the engine
/// makes — plus structural validation of the slot chain.
double path_cost(const CsrDigraph& csr, const std::vector<std::uint32_t>& slots,
                 std::span<const NodeId> sources,
                 std::span<const NodeId> sinks) {
  double cost = 0.0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (i > 0) {
      EXPECT_EQ(csr.head(slots[i - 1]), csr.tail(slots[i]));
    }
    cost += csr.weight(slots[i]);
  }
  if (!slots.empty()) {
    const NodeId start = csr.tail(slots.front());
    const NodeId end = csr.head(slots.back());
    EXPECT_NE(std::find(sources.begin(), sources.end(), start), sources.end());
    EXPECT_NE(std::find(sinks.begin(), sinks.end(), end), sinks.end());
  }
  return cost;
}

TEST(HierarchyTest, MatchesDijkstraOnRandomDigraphs) {
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL, 15ULL}) {
    Rng rng(seed);
    const Digraph g = random_digraph(rng, 60, 240);
    const CsrDigraph csr(g);
    const ContractionHierarchy hierarchy(csr, {});
    SearchScratch scratch;
    std::vector<std::uint32_t> slots;
    for (int trial = 0; trial < 40; ++trial) {
      const NodeId s{static_cast<std::uint32_t>(rng.next_below(60))};
      const NodeId t{static_cast<std::uint32_t>(rng.next_below(60))};
      const NodeId sources[1] = {s};
      const NodeId sinks[1] = {t};
      const double expected = reference_cost(csr, sources, sinks, scratch);
      const bool found = hierarchy.query(sources, sinks, scratch,
                                         NoPotential{}, slots);
      ASSERT_EQ(found, expected < kInfiniteCost)
          << "seed " << seed << " " << s.value() << "->" << t.value();
      if (!found) continue;
      EXPECT_EQ(path_cost(csr, slots, sources, sinks), expected)
          << "seed " << seed << " " << s.value() << "->" << t.value();
    }
  }
}

TEST(HierarchyTest, MultiSourceMultiSinkMatchesFlatSearch) {
  Rng rng(77);
  const Digraph g = random_digraph(rng, 50, 200);
  const CsrDigraph csr(g);
  const ContractionHierarchy hierarchy(csr, {});
  SearchScratch scratch;
  std::vector<std::uint32_t> slots;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<NodeId> sources, sinks;
    for (int i = 0; i < 3; ++i) {
      sources.emplace_back(static_cast<std::uint32_t>(rng.next_below(50)));
      sinks.emplace_back(static_cast<std::uint32_t>(rng.next_below(50)));
    }
    const double expected = reference_cost(csr, sources, sinks, scratch);
    const bool found =
        hierarchy.query(sources, sinks, scratch, NoPotential{}, slots);
    ASSERT_EQ(found, expected < kInfiniteCost);
    if (found) {
      EXPECT_EQ(path_cost(csr, slots, sources, sinks), expected);
    }
  }
}

TEST(HierarchyTest, TracksWeightPatchesThroughCustomize) {
  Rng rng(31);
  Digraph g = random_digraph(rng, 40, 180);
  CsrDigraph csr(g);
  // Remember each slot's base weight: patches may only raise weights
  // (the residual-safety contract the engine enforces).
  std::vector<double> base(csr.num_links());
  for (std::uint32_t slot = 0; slot < csr.num_links(); ++slot) {
    base[slot] = csr.weight(slot);
  }
  ContractionHierarchy hierarchy(csr, {});
  SearchScratch scratch;
  std::vector<std::uint32_t> slots;
  EXPECT_FALSE(hierarchy.stale());

  for (int step = 0; step < 60; ++step) {
    const auto slot = static_cast<std::uint32_t>(
        rng.next_below(csr.num_links()));
    // Alternate fail (+inf), raise, and repair (back to base).
    const int action = step % 3;
    const double w = action == 0   ? kInfiniteCost
                     : action == 1 ? base[slot] + rng.next_double_in(0.0, 2.0)
                                   : base[slot];
    csr.set_weight(slot, w);
    hierarchy.update_slot(slot, w);
    if (w != base[slot] || action == 2) {
      // update_slot is O(1); values go stale until customize() runs.
      (void)hierarchy.customize();
    }
    EXPECT_FALSE(hierarchy.stale());

    const NodeId s{static_cast<std::uint32_t>(rng.next_below(40))};
    const NodeId t{static_cast<std::uint32_t>(rng.next_below(40))};
    const NodeId sources[1] = {s};
    const NodeId sinks[1] = {t};
    const double expected = reference_cost(csr, sources, sinks, scratch);
    const bool found =
        hierarchy.query(sources, sinks, scratch, NoPotential{}, slots);
    ASSERT_EQ(found, expected < kInfiniteCost) << "step " << step;
    if (found) {
      EXPECT_EQ(path_cost(csr, slots, sources, sinks), expected)
          << "step " << step;
    }
  }
}

TEST(HierarchyTest, PointPatchRecustomizationIsSublinear) {
  Rng rng(123);
  const Digraph g = random_digraph(rng, 200, 700);
  const CsrDigraph csr(g);
  ContractionHierarchy hierarchy(csr, {});
  ASSERT_GT(hierarchy.num_arcs(), 0u);

  // A single-slot patch dirties one arc; the customize pass may ripple
  // through that arc's support cone but must not re-evaluate the world.
  std::uint64_t total_touched = 0;
  std::uint32_t patches = 0;
  for (std::uint32_t slot = 0; slot < csr.num_links(); slot += 17) {
    hierarchy.update_slot(slot, kInfiniteCost);
    EXPECT_TRUE(hierarchy.stale());
    total_touched += hierarchy.customize();
    EXPECT_FALSE(hierarchy.stale());
    hierarchy.update_slot(slot, csr.weight(slot));  // repair
    total_touched += hierarchy.customize();
    patches += 2;
  }
  const double mean_touched =
      static_cast<double>(total_touched) / static_cast<double>(patches);
  // Sublinearity gate: the average touched cone is a small fraction of
  // the arc set (flat re-customization would touch num_arcs every time).
  EXPECT_LT(mean_touched, 0.25 * static_cast<double>(hierarchy.num_arcs()));
}

TEST(HierarchyTest, QueryWhileStaleIsRejected) {
  Rng rng(9);
  const Digraph g = random_digraph(rng, 20, 60);
  const CsrDigraph csr(g);
  ContractionHierarchy hierarchy(csr, {});
  hierarchy.update_slot(0, kInfiniteCost);
  ASSERT_TRUE(hierarchy.stale());
  SearchScratch scratch;
  std::vector<std::uint32_t> slots;
  const NodeId sources[1] = {NodeId{0}};
  const NodeId sinks[1] = {NodeId{1}};
  EXPECT_THROW(
      (void)hierarchy.query(sources, sinks, scratch, NoPotential{}, slots),
      Error);
}

TEST(HierarchyTest, DegreeCapZeroKeepsEveryNodeInCore) {
  Rng rng(5);
  const Digraph g = random_digraph(rng, 30, 120);
  const CsrDigraph csr(g);
  ContractionHierarchy::Options options;
  options.degree_cap = 0;
  const ContractionHierarchy hierarchy(csr, options);
  // Only nodes with no live neighbors at all clear a zero cap.
  EXPECT_GE(hierarchy.build_stats().core_nodes, 28u);
  EXPECT_EQ(hierarchy.num_shortcuts(), 0u);
  // Degenerate hierarchy = flat forward Dijkstra; still exact.
  SearchScratch scratch;
  std::vector<std::uint32_t> slots;
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId sources[1] = {
        NodeId{static_cast<std::uint32_t>(rng.next_below(30))}};
    const NodeId sinks[1] = {
        NodeId{static_cast<std::uint32_t>(rng.next_below(30))}};
    const double expected = reference_cost(csr, sources, sinks, scratch);
    const bool found =
        hierarchy.query(sources, sinks, scratch, NoPotential{}, slots);
    ASSERT_EQ(found, expected < kInfiniteCost);
    if (found) {
      EXPECT_EQ(path_cost(csr, slots, sources, sinks), expected);
    }
  }
}

}  // namespace
}  // namespace lumen

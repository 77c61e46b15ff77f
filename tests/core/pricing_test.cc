// The pricing contract that batch provisioning and defragmentation rely
// on: the engine's goal-directed point query, which prices the
// cost-ordered batch and defrag passes, returns the same double as its
// flat point query — on the pristine network, +inf into a cut node, and
// 0 for an s == t demand.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/route_engine.h"
#include "tests/test_util.h"

namespace lumen {
namespace {

using testing::ConvKind;
using testing::random_network;

/// Every ordered pair (s == t included): the goal-directed cost must equal
/// the flat cost as doubles.  Returns how many pairs were unroutable.
std::uint32_t expect_goal_directed_matches_flat(const RouteEngine& engine,
                                                const char* what) {
  SearchScratch scratch;
  std::uint32_t unroutable = 0;
  const std::uint32_t n = engine.num_nodes();
  for (std::uint32_t t = 0; t < n; ++t) {
    for (std::uint32_t s = 0; s < n; ++s) {
      const RouteResult flat =
          engine.route_semilightpath(NodeId{s}, NodeId{t}, scratch);
      const RouteResult goal = engine.route_semilightpath(
          NodeId{s}, NodeId{t}, scratch, {.goal_directed = true});
      EXPECT_EQ(goal.found, flat.found) << what << " " << s << "->" << t;
      EXPECT_EQ(goal.cost, flat.cost) << what << " " << s << "->" << t;
      if (s == t) {
        EXPECT_EQ(goal.cost, 0.0) << what << " diagonal " << s;
      }
      if (!flat.found) {
        EXPECT_EQ(flat.cost, kInfiniteCost) << what << " " << s << "->" << t;
        ++unroutable;
      }
    }
  }
  return unroutable;
}

// The suite keeps the name it had when the flat side was a one-to-all row
// sweep; the contract it checks is unchanged.
TEST(BulkCostsTest, SweepRowsMatchPointQueriesBitwise) {
  std::uint32_t unroutable = 0;
  for (const std::uint64_t seed : {71ULL, 72ULL, 73ULL}) {
    Rng rng(seed);
    const WdmNetwork net =
        random_network(12, 14, 4, 2, ConvKind::kUniform, rng);
    RouteEngine engine(net);
    (void)expect_goal_directed_matches_flat(engine, "pristine");

    // Cutting every link into node 0 makes the demands to it unroutable
    // (+inf); both queries must see the cut.
    for (std::uint32_t ei = 0; ei < net.num_links(); ++ei) {
      const LinkId e{ei};
      if (net.head(e) != NodeId{0}) continue;
      for (const auto& lw : net.available(e))
        engine.set_weight(e, lw.lambda, kInfiniteCost);
    }
    unroutable += expect_goal_directed_matches_flat(engine, "cut");
    SearchScratch scratch;
    for (std::uint32_t s = 1; s < net.num_nodes(); ++s) {
      EXPECT_EQ(engine
                    .route_semilightpath(NodeId{s}, NodeId{0}, scratch,
                                         {.goal_directed = true})
                    .cost,
                kInfiniteCost)
          << s << "->0";
    }
  }
  EXPECT_GT(unroutable, 0u);
}

}  // namespace
}  // namespace lumen

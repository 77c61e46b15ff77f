#include "core/layout.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "util/error.h"

namespace lumen {
namespace {

/// The counting sort's second half: stably scatters the ids of `from` by
/// key(id), calling put(position, id) for each in order.  `start` holds
/// bucket b's count at start[b + 2]; the prefix sum makes start[b + 1]
/// bucket b's first position, and the scatter leaves it at bucket b's end,
/// so on return start[b] is bucket b's first position.
template <class Key, class Put>
void scatter(const std::vector<std::uint32_t>& from,
             std::vector<std::uint32_t>& start, Key key, Put put) {
  std::partial_sum(start.begin(), start.end(), start.begin());
  for (const std::uint32_t id : from) put(start[key(id) + 1]++, id);
}

}  // namespace

CoreLayout::CoreLayout(const WdmNetwork& net) {
  const std::uint32_t n = net.num_nodes();
  const std::uint32_t m = net.num_links();
  // One read of the links: each link's first entry, |E_M|, the largest λ,
  // and how many entries each node heads and tails.
  std::vector<std::uint32_t> first(std::size_t{m} + 1);
  std::vector<std::uint32_t> head_start(std::size_t{n} + 2, 0);
  std::vector<std::uint32_t> tail_start(std::size_t{n} + 2, 0);
  std::size_t multigraph_links = 0;
  std::uint32_t max_lambda = 0;
  for (std::uint32_t ei = 0; ei < m; ++ei) {
    const LinkId e{ei};
    const auto lws = net.available(e);
    first[ei] = static_cast<std::uint32_t>(multigraph_links);
    if (lws.empty()) continue;
    multigraph_links += lws.size();
    max_lambda = std::max(max_lambda, lws.back().lambda.value());
    head_start[net.head(e).value() + 2] += lws.size();
    tail_start[net.tail(e).value() + 2] += lws.size();
  }
  // Node ids, row bounds and entry ids are 32-bit, and |E_M| bounds both
  // Σ_v |X_v| and Σ_v |Y_v|: every λ of X_v arrives on a link.
  LUMEN_REQUIRE_MSG(2 * multigraph_links + 1 <=
                        std::numeric_limits<std::uint32_t>::max(),
                    "auxiliary graph exceeds 32-bit indexing");
  const auto size = static_cast<std::uint32_t>(multigraph_links);
  first[m] = size;

  // Every (e, λ) of E_M, numbered in link-id order.
  std::vector<Wavelength> lambda(size);
  std::vector<LinkId> link(size);
  for (std::uint32_t ei = 0; ei < m; ++ei) {
    const LinkId e{ei};
    std::uint32_t id = first[ei];
    for (const auto& lw : net.available(e)) {
      lambda[id] = lw.lambda;
      link[id++] = e;
    }
  }

  // Stable LSD radix sort by λ.  A digit spans at most min(|E_M|, max λ +
  // 1) values, never k, so a layout takes one pass while max λ < |E_M| and
  // O(log k / log |E_M|) passes beyond: the build stays independent of the
  // universe Λ (Theorem 4).  The passes split max λ's bits evenly.
  std::vector<std::uint32_t> by_lambda(size), sorted(size);
  std::iota(by_lambda.begin(), by_lambda.end(), 0u);
  const std::uint32_t digit_values = std::min(size, max_lambda + 1);
  const int max_digit_bits =
      digit_values < 2 ? 1 : static_cast<int>(std::bit_width(digit_values - 1));
  const auto lambda_bits = static_cast<int>(std::bit_width(max_lambda));
  const int passes = (lambda_bits + max_digit_bits - 1) / max_digit_bits;
  const int digit_bits = passes == 0 ? 0 : (lambda_bits + passes - 1) / passes;
  const std::uint32_t mask = (1u << digit_bits) - 1;
  for (int shift = 0; shift < lambda_bits; shift += digit_bits) {
    const auto digit = [&](std::uint32_t id) {
      return (lambda[id].value() >> shift) & mask;
    };
    std::vector<std::uint32_t> start(std::size_t{mask} + 3, 0);
    for (const std::uint32_t id : by_lambda) ++start[digit(id) + 2];
    scatter(by_lambda, start, digit,
            [&](std::uint32_t at, std::uint32_t id) { sorted[at] = id; });
    by_lambda.swap(sorted);
  }

  // Stable counting sorts by head and by tail: every X_v and Y_v comes out
  // ascending by λ, each λ's entries in link-id order.  The tail order is
  // E_org's row order, so the tail sort places each entry's arc, its head
  // holding the entry until the walk below numbers the x-nodes.
  std::vector<std::uint32_t>& by_head = sorted;
  scatter(
      by_lambda, head_start,
      [&](std::uint32_t id) { return net.head(link[id]).value(); },
      [&](std::uint32_t at, std::uint32_t id) { by_head[at] = id; });
  arcs_.resize(size);
  scatter(
      by_lambda, tail_start,
      [&](std::uint32_t id) { return net.tail(link[id]).value(); },
      [&](std::uint32_t at, std::uint32_t id) {
        const LinkId e = link[id];
        arcs_[at] = {NodeId{id}, e,
                     net.available(e)[id - first[e.value()]].cost};
      });

  // One walk numbers X_v then Y_v, node by node, one node per distinct λ,
  // and records the x-node each entry arrives at.  The arrays are reserved
  // at their bound and only the used part is written: initialising the
  // whole bound cost a tenth of the build.
  std::vector<std::uint32_t>& x_of = by_lambda;
  node_.reserve(2 * std::size_t{size});
  row_begin_.reserve(2 * std::size_t{size} + 1);
  layer_begin_.reserve(2 * std::size_t{n} + 1);
  for (std::uint32_t vi = 0; vi < n; ++vi) {
    const NodeId v{vi};
    layer_begin_.push_back(num_nodes());
    Wavelength last = Wavelength::invalid();
    for (std::uint32_t j = head_start[vi]; j < head_start[vi + 1]; ++j) {
      const std::uint32_t id = by_head[j];
      if (lambda[id] != last) {
        last = lambda[id];
        node_.push_back({AuxNodeKind::kIn, v, last});
        row_begin_.push_back(tail_start[vi]);
      }
      x_of[id] = num_nodes() - 1;
    }
    layer_begin_.push_back(num_nodes());
    last = Wavelength::invalid();
    for (std::uint32_t j = tail_start[vi]; j < tail_start[vi + 1]; ++j) {
      const Wavelength l = lambda[arcs_[j].head.value()];
      if (l != last) {
        last = l;
        node_.push_back({AuxNodeKind::kOut, v, l});
        row_begin_.push_back(j);
      }
    }
  }
  layer_begin_.push_back(num_nodes());
  row_begin_.push_back(size);
  for (Arc& arc : arcs_) arc.head = NodeId{x_of[arc.head.value()]};
}

Semilightpath PairGraph::path(const ShortestPathTree& tree, NodeId sink_state,
                              std::uint32_t layers) const {
  std::vector<Hop> hops;
  std::uint32_t x = tree.parent_link[sink_state.value()].value();
  for (;;) {
    const LinkId e = tree.parent_link[x];
    const Wavelength lambda = layout_.node(NodeId{x / layers}).lambda;
    hops.push_back({e, lambda});
    // The link left y_u(λ) in the same layer: E_org makes no conversion.
    std::uint32_t y = *layout_.y_ids(net_.tail(e)).begin();
    while (layout_.node(NodeId{y}).lambda != lambda) ++y;
    const std::uint32_t from =
        tree.parent_link[y * layers + x % layers].value();
    if (from / layers == source().value()) break;
    x = from;
  }
  std::reverse(hops.begin(), hops.end());
  return Semilightpath(std::move(hops));
}

}  // namespace lumen

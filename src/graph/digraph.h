// Directed weighted multigraph with adjacency lists.
//
// This is the shared graph substrate: the physical WDM topology, the layered
// auxiliary graphs of the Liang–Shen algorithm, and the CFZ wavelength graph
// are all Digraph instances.  Parallel links and self-loops are permitted
// (the multigraph G_M in the paper relies on parallel links).
//
// Adjacency rows live in one pooled array per direction, so a graph of tens
// of thousands of nodes (one G_{s,t} per route) is built and freed with a
// handful of allocations.  A row that fills up moves to the pool's tail with
// doubled capacity; a builder that knows its degrees sizes every row exactly
// with add_node(out_capacity, in_capacity).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/error.h"
#include "util/strong_id.h"

namespace lumen {

/// A directed weighted multigraph.  Nodes and links are dense 0-based ids.
/// Link weights are non-negative doubles; +infinity is a legal weight
/// meaning "unusable" (such links are skipped by the shortest-path codes).
///
/// Span lifetime: any add_node or add_link may relocate the adjacency pool,
/// which invalidates *every* span previously returned by out_links/in_links
/// (not only those of the nodes touched).  Finish iterating a row, or copy
/// it, before mutating the same graph.  set_weight never invalidates spans.
class Digraph {
 public:
  Digraph() = default;

  /// Creates a graph with `num_nodes` nodes and no links.
  explicit Digraph(std::uint32_t num_nodes)
      : out_(num_nodes), in_(num_nodes) {}

  /// Adds an isolated node and returns its id.
  NodeId add_node() { return add_node(0, 0); }

  /// Adds an isolated node whose adjacency rows are pre-sized for
  /// `out_capacity` outgoing and `in_capacity` incoming links (a layout
  /// hint: a row that outgrows its capacity still relocates).
  NodeId add_node(std::uint32_t out_capacity, std::uint32_t in_capacity) {
    out_.add_row(out_capacity);
    in_.add_row(in_capacity);
    return NodeId{out_.num_rows() - 1};
  }

  /// Adds a directed link tail -> head with the given weight (>= 0, may be
  /// +infinity).  Returns the new link's id.
  LinkId add_link(NodeId tail, NodeId head, double weight) {
    LUMEN_REQUIRE(tail.value() < num_nodes());
    LUMEN_REQUIRE(head.value() < num_nodes());
    LUMEN_REQUIRE_MSG(weight >= 0.0, "link weights must be non-negative");
    const LinkId id{static_cast<std::uint32_t>(tails_.size())};
    tails_.push_back(tail);
    heads_.push_back(head);
    weights_.push_back(weight);
    out_.push(tail.value(), id);
    in_.push(head.value(), id);
    return id;
  }

  [[nodiscard]] std::uint32_t num_nodes() const noexcept {
    return out_.num_rows();
  }
  [[nodiscard]] std::uint32_t num_links() const noexcept {
    return static_cast<std::uint32_t>(tails_.size());
  }

  [[nodiscard]] NodeId tail(LinkId e) const {
    LUMEN_REQUIRE(e.value() < num_links());
    return tails_[e.value()];
  }
  [[nodiscard]] NodeId head(LinkId e) const {
    LUMEN_REQUIRE(e.value() < num_links());
    return heads_[e.value()];
  }
  [[nodiscard]] double weight(LinkId e) const {
    LUMEN_REQUIRE(e.value() < num_links());
    return weights_[e.value()];
  }

  /// Replaces the weight of an existing link.
  void set_weight(LinkId e, double weight) {
    LUMEN_REQUIRE(e.value() < num_links());
    LUMEN_REQUIRE_MSG(weight >= 0.0, "link weights must be non-negative");
    weights_[e.value()] = weight;
  }

  /// Outgoing links of `v`, in insertion order.  Invalidated by the next
  /// add_node / add_link on this graph.
  [[nodiscard]] std::span<const LinkId> out_links(NodeId v) const {
    LUMEN_REQUIRE(v.value() < num_nodes());
    return out_.row(v.value());
  }

  /// Incoming links of `v`, in insertion order.  Invalidated by the next
  /// add_node / add_link on this graph.
  [[nodiscard]] std::span<const LinkId> in_links(NodeId v) const {
    LUMEN_REQUIRE(v.value() < num_nodes());
    return in_.row(v.value());
  }

  [[nodiscard]] std::uint32_t out_degree(NodeId v) const {
    return static_cast<std::uint32_t>(out_links(v).size());
  }
  [[nodiscard]] std::uint32_t in_degree(NodeId v) const {
    return static_cast<std::uint32_t>(in_links(v).size());
  }

  /// max over nodes of max(in-degree, out-degree): the paper's `d`.
  [[nodiscard]] std::uint32_t max_degree() const noexcept {
    std::uint32_t d = 0;
    for (std::uint32_t v = 0; v < num_nodes(); ++v)
      d = std::max({d, out_.row_size(v), in_.row_size(v)});
    return d;
  }

  /// Reserves storage for an expected number of links (performance hint).
  void reserve_links(std::size_t expected) {
    tails_.reserve(expected);
    heads_.reserve(expected);
    weights_.reserve(expected);
  }

  /// Reserves storage for `nodes` nodes in total and `links` links in total,
  /// adjacency pools included (performance hint for counted builds).
  void reserve(std::size_t nodes, std::size_t links) {
    reserve_links(links);
    out_.reserve(nodes, links);
    in_.reserve(nodes, links);
  }

 private:
  /// Per-node rows of link ids carved out of one pooled array.  Each row is
  /// a [begin, begin + capacity) window of the pool holding `size` ids in
  /// insertion order.  Growth appends a doubled window at the pool's tail
  /// (in place when the row already ends there); the abandoned window stays
  /// as slack, which geometric growth bounds by the live capacity.
  class RowStore {
   public:
    explicit RowStore(std::uint32_t num_rows = 0) : rows_(num_rows) {}

    [[nodiscard]] std::uint32_t num_rows() const noexcept {
      return static_cast<std::uint32_t>(rows_.size());
    }
    [[nodiscard]] std::uint32_t row_size(std::uint32_t r) const noexcept {
      return rows_[r].size;
    }
    [[nodiscard]] std::span<const LinkId> row(std::uint32_t r) const noexcept {
      const Row& row = rows_[r];
      return {pool_.data() + row.begin, row.size};
    }

    void add_row(std::uint32_t capacity) {
      const std::size_t begin = pool_.size();
      LUMEN_REQUIRE_MSG(begin + capacity <= kMaxPool,
                        "adjacency pool exceeds 32-bit indexing");
      rows_.push_back(Row{static_cast<std::uint32_t>(begin), 0, capacity});
      pool_.resize(begin + capacity);
    }

    void push(std::uint32_t r, LinkId id) {
      Row& row = rows_[r];
      if (row.size == row.capacity) grow(row);
      pool_[row.begin + row.size++] = id;
    }

    void reserve(std::size_t num_rows, std::size_t entries) {
      rows_.reserve(num_rows);
      pool_.reserve(entries);
    }

   private:
    struct Row {
      std::uint32_t begin = 0;
      std::uint32_t size = 0;
      std::uint32_t capacity = 0;
    };
    static constexpr std::size_t kMaxPool =
        std::numeric_limits<std::uint32_t>::max();
    static constexpr std::uint32_t kMinCapacity = 4;

    void grow(Row& row) {
      const std::uint32_t capacity =
          row.capacity == 0 ? kMinCapacity : 2 * row.capacity;
      const bool last = std::size_t{row.begin} + row.capacity == pool_.size();
      const std::size_t begin = last ? row.begin : pool_.size();
      LUMEN_REQUIRE_MSG(begin + capacity <= kMaxPool,
                        "adjacency pool exceeds 32-bit indexing");
      pool_.resize(begin + capacity);
      if (!last)
        std::copy_n(pool_.begin() + row.begin, row.size,
                    pool_.begin() + static_cast<std::ptrdiff_t>(begin));
      row.begin = static_cast<std::uint32_t>(begin);
      row.capacity = capacity;
    }

    std::vector<Row> rows_;
    std::vector<LinkId> pool_;
  };

  std::vector<NodeId> tails_;
  std::vector<NodeId> heads_;
  std::vector<double> weights_;
  RowStore out_;
  RowStore in_;
};

}  // namespace lumen

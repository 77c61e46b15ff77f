// Fibonacci heap with decrease-key.
//
// Theorem 1 of Liang & Shen relies on the Fredman–Tarjan Fibonacci heap to
// obtain the O(m' + n' log n') Dijkstra bound on the auxiliary graph; this is
// a from-scratch implementation.  Items are 32-bit payloads, keys are
// doubles.  Handles stay valid until the item is popped.
//
// A heap is meant to be reused: clear() keeps the node pool and every
// scratch buffer, so a warm heap runs push / pop_min / decrease_key without
// touching the allocator (dijkstra_search keeps one per thread).
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "util/error.h"

namespace lumen {

/// Min-ordered Fibonacci heap.  push / pop_min / decrease_key in the usual
/// amortized bounds: O(1), O(log n), O(1).
class FibHeap {
 public:
  /// Opaque handle to a live heap entry.
  using Handle = struct FibNode*;

  FibHeap() = default;
  FibHeap(const FibHeap&) = delete;
  FibHeap& operator=(const FibHeap&) = delete;
  // Not movable: a moved-from heap would keep pool_used_ over an empty pool_.
  FibHeap(FibHeap&&) = delete;
  FibHeap& operator=(FibHeap&&) = delete;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Inserts (key, item); returns a handle usable with decrease_key.
  Handle push(double key, std::uint32_t item);

  /// Key of the current minimum.  Requires a non-empty heap.
  [[nodiscard]] double min_key() const;
  /// Item of the current minimum.  Requires a non-empty heap.
  [[nodiscard]] std::uint32_t min_item() const;

  /// Removes and returns the minimum (key, item).  Requires non-empty.
  std::pair<double, std::uint32_t> pop_min();

  /// Lowers the key of a live entry to `new_key` (<= current key).
  void decrease_key(Handle h, double new_key);

  /// Removes all entries.  Node storage and scratch buffers are retained
  /// for reuse; the cost is O(nodes handed out since the last clear).
  void clear();

 private:
  FibNode* allocate(double key, std::uint32_t item);
  void add_to_roots(FibNode* x) noexcept;
  void consolidate();
  void cut(FibNode* x, FibNode* parent) noexcept;
  void cascading_cut(FibNode* y) noexcept;
  static void link_under(FibNode* child, FibNode* parent) noexcept;

  FibNode* min_ = nullptr;
  std::size_t size_ = 0;
  std::deque<FibNode> pool_;     // stable-address node storage
  std::size_t pool_used_ = 0;    // pool_[0, pool_used_) handed out since clear
  std::vector<FibNode*> free_;   // popped nodes, recycled first
  // consolidate() scratch: the root snapshot, and the degree table, which
  // is all-null between calls.
  std::vector<FibNode*> roots_;
  std::vector<FibNode*> degree_scratch_;
};

/// Internal node; exposed only because Handle aliases a pointer to it.
struct FibNode {
  double key = 0.0;
  std::uint32_t item = 0;
  std::uint32_t degree = 0;
  bool marked = false;
  bool in_heap = false;
  FibNode* parent = nullptr;
  FibNode* child = nullptr;
  FibNode* left = nullptr;   // circular sibling list
  FibNode* right = nullptr;
};

}  // namespace lumen

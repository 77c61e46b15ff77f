// Pairing heap with decrease-key.
//
// A simpler self-adjusting alternative to the Fibonacci heap with the same
// practical profile (O(1) push and decrease-key amortized, O(log n) pop);
// included as a third point in the heap ablation (bench E8).
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "util/error.h"

namespace lumen {

/// Min-ordered pairing heap.  Handles stay valid until the item is popped.
class PairingHeap {
 public:
  struct Node {
    double key = 0.0;
    std::uint32_t item = 0;
    bool in_heap = false;
    Node* child = nullptr;    // leftmost child
    Node* sibling = nullptr;  // next sibling to the right
    Node* prev = nullptr;     // parent if leftmost child, else left sibling
  };
  using Handle = Node*;

  PairingHeap() = default;
  PairingHeap(const PairingHeap&) = delete;
  PairingHeap& operator=(const PairingHeap&) = delete;
  // Not movable: a moved-from heap would keep pool_used_ over an empty pool_.
  PairingHeap(PairingHeap&&) = delete;
  PairingHeap& operator=(PairingHeap&&) = delete;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Inserts (key, item); returns a handle usable with decrease_key.
  Handle push(double key, std::uint32_t item) {
    Node* node = allocate(key, item);
    root_ = root_ ? meld(root_, node) : node;
    ++size_;
    return node;
  }

  [[nodiscard]] double min_key() const {
    LUMEN_REQUIRE(root_ != nullptr);
    return root_->key;
  }
  [[nodiscard]] std::uint32_t min_item() const {
    LUMEN_REQUIRE(root_ != nullptr);
    return root_->item;
  }

  /// Removes and returns the minimum (key, item).  Requires non-empty.
  std::pair<double, std::uint32_t> pop_min() {
    LUMEN_REQUIRE(root_ != nullptr);
    Node* old_root = root_;
    const std::pair<double, std::uint32_t> result{old_root->key,
                                                  old_root->item};
    root_ = merge_pairs(old_root->child);
    if (root_ != nullptr) {
      root_->prev = nullptr;
      root_->sibling = nullptr;
    }
    old_root->in_heap = false;
    free_.push_back(old_root);
    --size_;
    return result;
  }

  /// Lowers the key of a live entry to `new_key` (<= current key).
  void decrease_key(Handle h, double new_key) {
    LUMEN_REQUIRE(h != nullptr && h->in_heap);
    LUMEN_REQUIRE_MSG(new_key <= h->key,
                      "decrease_key must not increase the key");
    h->key = new_key;
    if (h == root_) return;
    detach(h);
    root_ = meld(root_, h);
  }

  /// Removes all entries.  Node storage is retained for reuse; the cost is
  /// O(nodes handed out since the last clear).
  void clear() {
    root_ = nullptr;
    size_ = 0;
    free_.clear();
    // Stale handles must keep failing decrease_key's liveness check.
    for (std::size_t i = 0; i < pool_used_; ++i) pool_[i].in_heap = false;
    pool_used_ = 0;
  }

 private:
  Node* allocate(double key, std::uint32_t item) {
    Node* node;
    if (!free_.empty()) {
      node = free_.back();
      free_.pop_back();
    } else {
      if (pool_used_ == pool_.size()) pool_.emplace_back();
      node = &pool_[pool_used_++];
    }
    node->key = key;
    node->item = item;
    node->in_heap = true;
    node->child = nullptr;
    node->sibling = nullptr;
    node->prev = nullptr;
    return node;
  }

  /// Melds two non-null trees; returns the new root.
  static Node* meld(Node* a, Node* b) noexcept {
    if (b->key < a->key) std::swap(a, b);
    // b becomes a's leftmost child.
    b->prev = a;
    b->sibling = a->child;
    if (a->child != nullptr) a->child->prev = b;
    a->child = b;
    a->sibling = nullptr;
    return a;
  }

  /// Unlinks a non-root node from its parent/sibling chain.
  static void detach(Node* h) noexcept {
    if (h->prev->child == h) {
      h->prev->child = h->sibling;
    } else {
      h->prev->sibling = h->sibling;
    }
    if (h->sibling != nullptr) h->sibling->prev = h->prev;
    h->sibling = nullptr;
    h->prev = nullptr;
  }

  /// Two-pass pairwise merge of a sibling list; returns the merged root.
  Node* merge_pairs(Node* first) {
    if (first == nullptr) return nullptr;
    // Pass 1: meld adjacent pairs left to right.
    scratch_.clear();
    Node* cur = first;
    while (cur != nullptr) {
      Node* a = cur;
      Node* b = cur->sibling;
      cur = b ? b->sibling : nullptr;
      a->sibling = nullptr;
      a->prev = nullptr;
      if (b != nullptr) {
        b->sibling = nullptr;
        b->prev = nullptr;
        scratch_.push_back(meld(a, b));
      } else {
        scratch_.push_back(a);
      }
    }
    // Pass 2: meld right to left.
    Node* result = scratch_.back();
    for (std::size_t i = scratch_.size() - 1; i-- > 0;) {
      result = meld(scratch_[i], result);
    }
    return result;
  }

  Node* root_ = nullptr;
  std::size_t size_ = 0;
  std::deque<Node> pool_;      // stable-address node storage
  std::size_t pool_used_ = 0;  // pool_[0, pool_used_) handed out since clear
  std::vector<Node*> free_;    // popped nodes, recycled first
  std::vector<Node*> scratch_;
};

}  // namespace lumen

#include "graph/fib_heap.h"

#include <algorithm>
#include <cmath>

namespace lumen {

FibNode* FibHeap::allocate(double key, std::uint32_t item) {
  FibNode* node;
  if (!free_.empty()) {
    node = free_.back();
    free_.pop_back();
  } else {
    if (pool_used_ == pool_.size()) pool_.emplace_back();
    node = &pool_[pool_used_++];
  }
  node->key = key;
  node->item = item;
  node->degree = 0;
  node->marked = false;
  node->in_heap = true;
  node->parent = nullptr;
  node->child = nullptr;
  node->left = node;
  node->right = node;
  return node;
}

void FibHeap::add_to_roots(FibNode* x) noexcept {
  if (min_ == nullptr) {
    x->left = x;
    x->right = x;
    min_ = x;
    return;
  }
  // Splice x into the root ring just right of min_.
  x->left = min_;
  x->right = min_->right;
  min_->right->left = x;
  min_->right = x;
  if (x->key < min_->key) min_ = x;
}

FibHeap::Handle FibHeap::push(double key, std::uint32_t item) {
  FibNode* node = allocate(key, item);
  add_to_roots(node);
  ++size_;
  return node;
}

double FibHeap::min_key() const {
  LUMEN_REQUIRE(min_ != nullptr);
  return min_->key;
}

std::uint32_t FibHeap::min_item() const {
  LUMEN_REQUIRE(min_ != nullptr);
  return min_->item;
}

void FibHeap::link_under(FibNode* child, FibNode* parent) noexcept {
  // Remove child from the root ring.
  child->left->right = child->right;
  child->right->left = child->left;
  child->parent = parent;
  if (parent->child == nullptr) {
    parent->child = child;
    child->left = child;
    child->right = child;
  } else {
    child->left = parent->child;
    child->right = parent->child->right;
    parent->child->right->left = child;
    parent->child->right = child;
  }
  ++parent->degree;
  child->marked = false;
}

void FibHeap::consolidate() {
  if (min_ == nullptr) return;
  // max degree is O(log_phi n); 64 entries is ample headroom for any
  // size_t-addressable heap.  The table is all-null on entry and exit.
  if (degree_scratch_.empty()) degree_scratch_.assign(64, nullptr);

  // Collect current roots first (the ring is restructured while linking).
  roots_.clear();
  FibNode* w = min_;
  do {
    roots_.push_back(w);
    w = w->right;
  } while (w != min_);

  std::uint32_t max_degree = 0;
  for (FibNode* x : roots_) {
    std::uint32_t d = x->degree;
    while (degree_scratch_[d] != nullptr) {
      FibNode* y = degree_scratch_[d];
      if (y->key < x->key) std::swap(x, y);
      link_under(y, x);
      degree_scratch_[d] = nullptr;
      ++d;
    }
    degree_scratch_[d] = x;
    max_degree = std::max(max_degree, d);
  }

  // Rebuild the root ring from the scratch table, emptying it as we go.
  min_ = nullptr;
  for (std::uint32_t d = 0; d <= max_degree; ++d) {
    FibNode* x = degree_scratch_[d];
    if (x == nullptr) continue;
    degree_scratch_[d] = nullptr;
    x->parent = nullptr;
    add_to_roots(x);
  }
}

std::pair<double, std::uint32_t> FibHeap::pop_min() {
  LUMEN_REQUIRE(min_ != nullptr);
  FibNode* z = min_;
  const std::pair<double, std::uint32_t> result{z->key, z->item};

  // Promote z's children to roots.
  if (z->child != nullptr) {
    FibNode* c = z->child;
    do {
      FibNode* next = c->right;
      c->parent = nullptr;
      c->marked = false;
      // Splice c right of z in the root ring.
      c->left = z;
      c->right = z->right;
      z->right->left = c;
      z->right = c;
      c = next;
    } while (c != z->child);
    z->child = nullptr;
  }

  // Remove z from the root ring.
  if (z->right == z) {
    min_ = nullptr;
  } else {
    z->left->right = z->right;
    z->right->left = z->left;
    min_ = z->right;
    consolidate();
  }
  --size_;
  z->in_heap = false;
  free_.push_back(z);
  return result;
}

void FibHeap::cut(FibNode* x, FibNode* parent) noexcept {
  // Remove x from parent's child ring.
  if (x->right == x) {
    parent->child = nullptr;
  } else {
    x->left->right = x->right;
    x->right->left = x->left;
    if (parent->child == x) parent->child = x->right;
  }
  --parent->degree;
  x->parent = nullptr;
  x->marked = false;
  add_to_roots(x);
}

void FibHeap::cascading_cut(FibNode* y) noexcept {
  FibNode* parent = y->parent;
  while (parent != nullptr) {
    if (!y->marked) {
      y->marked = true;
      return;
    }
    cut(y, parent);
    y = parent;
    parent = y->parent;
  }
}

void FibHeap::decrease_key(Handle h, double new_key) {
  LUMEN_REQUIRE(h != nullptr && h->in_heap);
  LUMEN_REQUIRE_MSG(new_key <= h->key,
                    "decrease_key must not increase the key");
  h->key = new_key;
  FibNode* parent = h->parent;
  if (parent != nullptr && h->key < parent->key) {
    cut(h, parent);
    cascading_cut(parent);
  }
  if (h->key < min_->key) min_ = h;
}

void FibHeap::clear() {
  min_ = nullptr;
  size_ = 0;
  free_.clear();
  // Stale handles must keep failing decrease_key's liveness check.
  for (std::size_t i = 0; i < pool_used_; ++i) pool_[i].in_heap = false;
  pool_used_ = 0;
}

}  // namespace lumen

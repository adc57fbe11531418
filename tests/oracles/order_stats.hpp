// Differential oracle for util::WindowStats::quantile: the order-statistic
// multiset (insert / k-th smallest in O(log n)) that was WindowStats' index
// before it kept a flat buffer and selected on read. WindowStats must
// reproduce its quantiles bit for bit (tests/test_statistics.cpp).
//
// Implemented as a treap (randomized BST) over a contiguous node pool with
// subtree sizes, using deterministic splitmix64 priorities. A new value is
// placed after every smaller value and before every value it compares equal
// to, so among -0.0 and +0.0 the later insert ranks lower.
//
// Values must not be NaN (comparisons would silently corrupt the tree);
// ±infinity is fine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace vdc::oracles {

class OrderStatisticTree {
 public:
  void insert(double value) {
    const std::uint32_t node = allocate(value);
    std::uint32_t less, rest;
    split_less(root_, value, less, rest);
    root_ = merge(merge(less, node), rest);
  }

  /// k-th smallest element, 0-based. Throws when k >= size().
  [[nodiscard]] double kth(std::size_t k) const {
    if (k >= size()) throw std::out_of_range("OrderStatisticTree::kth: index out of range");
    std::uint32_t node = root_;
    for (;;) {
      const std::size_t left_size = subtree_size(nodes_[node].left);
      if (k < left_size) {
        node = nodes_[node].left;
      } else if (k == left_size) {
        return nodes_[node].value;
      } else {
        k -= left_size + 1;
        node = nodes_[node].right;
      }
    }
  }

  /// Exact quantile with linear interpolation between order statistics (the
  /// "type 7" definition used by numpy/R — identical to util::exact_quantile
  /// on the sorted sample). q in [0,1]; throws on empty.
  [[nodiscard]] double quantile(double q) const {
    if (empty()) throw std::invalid_argument("OrderStatisticTree::quantile: empty");
    if (q < 0.0 || q > 1.0) {
      throw std::invalid_argument("OrderStatisticTree::quantile: q outside [0,1]");
    }
    const double pos = q * static_cast<double>(size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = lo + 1 < size() ? lo + 1 : size() - 1;
    const double frac = pos - static_cast<double>(lo);
    return kth(lo) * (1.0 - frac) + kth(hi) * frac;
  }

  [[nodiscard]] std::size_t size() const noexcept { return subtree_size(root_); }
  [[nodiscard]] bool empty() const noexcept { return root_ == kNil; }

  void clear() noexcept {
    nodes_.clear();
    root_ = kNil;
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    double value;
    std::uint64_t priority;
    std::uint32_t left = kNil;
    std::uint32_t right = kNil;
    std::uint32_t size = 1;
  };

  [[nodiscard]] std::size_t subtree_size(std::uint32_t node) const noexcept {
    return node == kNil ? 0 : nodes_[node].size;
  }

  void pull(std::uint32_t node) noexcept {
    nodes_[node].size = static_cast<std::uint32_t>(subtree_size(nodes_[node].left) +
                                                   subtree_size(nodes_[node].right) + 1);
  }

  /// Deterministic pseudo-random priority (splitmix64 of an insertion
  /// counter): heap-balanced in expectation, reproducible across runs.
  [[nodiscard]] std::uint64_t next_priority() noexcept {
    std::uint64_t z = (priority_state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  [[nodiscard]] std::uint32_t allocate(double value) {
    const auto node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{value, next_priority()});
    return node;
  }

  /// left := {v < key}, right := {v >= key}
  void split_less(std::uint32_t node, double key, std::uint32_t& left, std::uint32_t& right) {
    if (node == kNil) {
      left = kNil;
      right = kNil;
      return;
    }
    if (nodes_[node].value < key) {
      split_less(nodes_[node].right, key, nodes_[node].right, right);
      left = node;
    } else {
      split_less(nodes_[node].left, key, left, nodes_[node].left);
      right = node;
    }
    pull(node);
  }

  std::uint32_t merge(std::uint32_t a, std::uint32_t b) {
    if (a == kNil) return b;
    if (b == kNil) return a;
    if (nodes_[a].priority >= nodes_[b].priority) {
      nodes_[a].right = merge(nodes_[a].right, b);
      pull(a);
      return a;
    }
    nodes_[b].left = merge(a, nodes_[b].left);
    pull(b);
    return b;
  }

  std::vector<Node> nodes_;
  std::uint32_t root_ = kNil;
  std::uint64_t priority_state_ = 0;
};

}  // namespace vdc::oracles

#pragma once

// RankedTree: an order-statistics treap over (double key, PeerId)
// pairs — the per-criterion index structure behind the broker's O(log
// n) candidate fast path (DESIGN.md §15).
//
// Properties the fast path leans on:
//   * total order: entries sort by (key, peer); peers are unique per
//     tree, so every entry is distinct and kth() is well defined;
//   * order statistics: kth(i) returns the i-th smallest entry in
//     O(log n), which is all a Fagin-style threshold cursor needs —
//     ascending or descending iteration without materializing a list;
//   * determinism: node priorities are a pure hash of the peer id and
//     a per-tree salt, so the structure (and more importantly every
//     query answer) is a function of the *content*, never of
//     insertion order or a global RNG;
//   * allocation-free steady state: nodes live in a pooled vector with
//     a free list, so churn (insert/erase on every heartbeat) reuses
//     slots instead of touching the heap.
//
// Keys must not be NaN (the selection estimators never produce one);
// +/-infinity is fine.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "peerlab/common/check.hpp"
#include "peerlab/common/ids.hpp"

namespace peerlab::core {

class RankedTree {
 public:
  struct Entry {
    double key = 0.0;
    PeerId peer;
  };

  explicit RankedTree(std::uint64_t salt = 0) : salt_(salt) {}

  [[nodiscard]] std::size_t size() const noexcept {
    return root_ == kNil ? 0 : nodes_[root_].count;
  }
  [[nodiscard]] bool empty() const noexcept { return root_ == kNil; }

  void clear() {
    nodes_.clear();
    free_.clear();
    root_ = kNil;
  }

  /// Inserts (key, peer). The pair must not already be present (peers
  /// are unique per tree; callers erase the old key before re-keying).
  void insert(double key, PeerId peer) {
    const std::uint32_t n = allocate(key, peer);
    std::uint32_t lo = kNil;
    std::uint32_t hi = kNil;
    split(root_, key, peer, lo, hi);
    root_ = merge(merge(lo, n), hi);
  }

  /// Removes (key, peer); returns false when absent (callers treat
  /// that as "was never indexed", not an error).
  bool erase(double key, PeerId peer) {
    bool erased = false;
    root_ = erase_at(root_, key, peer, erased);
    return erased;
  }

  /// True when (key, peer) is present.
  [[nodiscard]] bool contains(double key, PeerId peer) const {
    std::uint32_t t = root_;
    while (t != kNil) {
      const Node& node = nodes_[t];
      if (node.key == key && node.peer == peer) return true;
      t = before(key, peer, node.key, node.peer) ? node.left : node.right;
    }
    return false;
  }

  /// The i-th smallest entry (0-based) by (key, peer). i < size().
  [[nodiscard]] Entry kth(std::size_t i) const {
    PEERLAB_CHECK_MSG(i < size(), "RankedTree::kth out of range");
    std::uint32_t t = root_;
    for (;;) {
      const Node& node = nodes_[t];
      const std::size_t left = node.left == kNil ? 0 : nodes_[node.left].count;
      if (i < left) {
        t = node.left;
      } else if (i == left) {
        return Entry{node.key, node.peer};
      } else {
        i -= left + 1;
        t = node.right;
      }
    }
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffU;

  struct Node {
    double key = 0.0;
    PeerId peer;
    std::uint64_t prio = 0;
    std::uint32_t left = kNil;
    std::uint32_t right = kNil;
    std::uint32_t count = 1;
  };

  [[nodiscard]] static std::uint64_t mix(std::uint64_t x) noexcept {
    // splitmix64 finalizer: deterministic, well-spread priorities.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  [[nodiscard]] static bool before(double ka, PeerId pa, double kb, PeerId pb) noexcept {
    if (ka != kb) return ka < kb;
    return pa < pb;
  }

  std::uint32_t allocate(double key, PeerId peer) {
    std::uint32_t n;
    if (!free_.empty()) {
      n = free_.back();
      free_.pop_back();
      nodes_[n] = Node{};
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    Node& node = nodes_[n];
    node.key = key;
    node.peer = peer;
    node.prio = mix(peer.value() ^ salt_);
    return n;
  }

  void update(std::uint32_t t) noexcept {
    Node& node = nodes_[t];
    node.count = 1;
    if (node.left != kNil) node.count += nodes_[node.left].count;
    if (node.right != kNil) node.count += nodes_[node.right].count;
  }

  /// Splits `t` so everything ordered before (key, peer) lands in
  /// `lo`, the rest in `hi`.
  void split(std::uint32_t t, double key, PeerId peer, std::uint32_t& lo, std::uint32_t& hi) {
    if (t == kNil) {
      lo = kNil;
      hi = kNil;
      return;
    }
    Node& node = nodes_[t];
    if (before(node.key, node.peer, key, peer)) {
      split(node.right, key, peer, node.right, hi);
      lo = t;
    } else {
      split(node.left, key, peer, lo, node.left);
      hi = t;
    }
    update(t);
  }

  std::uint32_t merge(std::uint32_t lo, std::uint32_t hi) {
    if (lo == kNil) return hi;
    if (hi == kNil) return lo;
    if (nodes_[lo].prio >= nodes_[hi].prio) {
      nodes_[lo].right = merge(nodes_[lo].right, hi);
      update(lo);
      return lo;
    }
    nodes_[hi].left = merge(lo, nodes_[hi].left);
    update(hi);
    return hi;
  }

  std::uint32_t erase_at(std::uint32_t t, double key, PeerId peer, bool& erased) {
    if (t == kNil) return kNil;
    Node& node = nodes_[t];
    if (node.key == key && node.peer == peer) {
      const std::uint32_t joined = merge(node.left, node.right);
      free_.push_back(t);
      erased = true;
      return joined;
    }
    if (before(key, peer, node.key, node.peer)) {
      node.left = erase_at(node.left, key, peer, erased);
    } else {
      node.right = erase_at(node.right, key, peer, erased);
    }
    update(t);
    return t;
  }

  std::uint64_t salt_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;
  std::uint32_t root_ = kNil;
};

}  // namespace peerlab::core

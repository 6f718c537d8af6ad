// RankedTree order-statistics invariants: kth() ascending order,
// insert/erase round trips, duplicate keys disambiguated by peer id,
// and a randomized differential against a sorted mirror.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "peerlab/core/ranked_tree.hpp"
#include "support/test_seed.hpp"

namespace peerlab::core {
namespace {

TEST(RankedTree, InsertsAndRanksAscending) {
  RankedTree tree(7);
  tree.insert(3.0, PeerId(1));
  tree.insert(1.0, PeerId(2));
  tree.insert(2.0, PeerId(3));
  ASSERT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.kth(0).peer, PeerId(2));
  EXPECT_EQ(tree.kth(1).peer, PeerId(3));
  EXPECT_EQ(tree.kth(2).peer, PeerId(1));
  EXPECT_DOUBLE_EQ(tree.kth(0).key, 1.0);
}

TEST(RankedTree, DuplicateKeysOrderByPeer) {
  RankedTree tree(7);
  tree.insert(1.0, PeerId(9));
  tree.insert(1.0, PeerId(3));
  tree.insert(1.0, PeerId(6));
  EXPECT_EQ(tree.kth(0).peer, PeerId(3));
  EXPECT_EQ(tree.kth(1).peer, PeerId(6));
  EXPECT_EQ(tree.kth(2).peer, PeerId(9));
}

TEST(RankedTree, EraseRemovesExactEntry) {
  RankedTree tree(7);
  tree.insert(1.0, PeerId(1));
  tree.insert(1.0, PeerId(2));
  EXPECT_FALSE(tree.erase(2.0, PeerId(1)));  // wrong key
  EXPECT_TRUE(tree.erase(1.0, PeerId(1)));
  ASSERT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.kth(0).peer, PeerId(2));
  EXPECT_FALSE(tree.erase(1.0, PeerId(1)));  // already gone
}

TEST(RankedTree, ContainsMatchesExactPairsOnly) {
  RankedTree tree(7);
  for (std::uint64_t i = 1; i <= 32; ++i) tree.insert(static_cast<double>(i % 4), PeerId(i));
  EXPECT_TRUE(tree.contains(1.0, PeerId(5)));
  EXPECT_TRUE(tree.contains(0.0, PeerId(32)));
  EXPECT_FALSE(tree.contains(2.0, PeerId(5)));  // present under another key
  EXPECT_FALSE(tree.contains(1.0, PeerId(33)));
  EXPECT_FALSE(tree.contains(std::nextafter(1.0, 2.0), PeerId(5)));
  EXPECT_TRUE(tree.erase(1.0, PeerId(5)));
  EXPECT_FALSE(tree.contains(1.0, PeerId(5)));
}

TEST(RankedTree, ClearEmptiesAndReusesNodes) {
  RankedTree tree(7);
  for (std::uint64_t i = 1; i <= 64; ++i) tree.insert(static_cast<double>(i), PeerId(i));
  tree.clear();
  EXPECT_TRUE(tree.empty());
  tree.insert(5.0, PeerId(5));
  ASSERT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.kth(0).peer, PeerId(5));
}

TEST(RankedTree, DifferentialAgainstSortedMirror) {
  const std::uint64_t seed = testing::test_seed();
  std::mt19937_64 rng(seed);
  RankedTree tree(42);
  std::vector<std::pair<double, std::uint64_t>> mirror;  // (key, peer)
  for (int round = 0; round < 5000; ++round) {
    const std::uint64_t peer = rng() % 200 + 1;
    const double key = static_cast<double>(rng() % 50) * 0.5;
    const auto entry = std::make_pair(key, peer);
    const auto it = std::lower_bound(mirror.begin(), mirror.end(), entry);
    const bool present = it != mirror.end() && *it == entry;
    if (present && rng() % 2 == 0) {
      ASSERT_TRUE(tree.erase(key, PeerId(peer))) << "seed=" << seed << " round=" << round;
      mirror.erase(it);
    } else if (!present) {
      tree.insert(key, PeerId(peer));
      mirror.insert(it, entry);
    }
    ASSERT_EQ(tree.size(), mirror.size()) << "seed=" << seed << " round=" << round;
    if (round % 97 == 0 && !mirror.empty()) {
      for (std::size_t i = 0; i < mirror.size(); ++i) {
        const auto got = tree.kth(i);
        ASSERT_EQ(got.key, mirror[i].first) << "seed=" << seed << " round=" << round;
        ASSERT_EQ(got.peer.value(), mirror[i].second) << "seed=" << seed << " round=" << round;
      }
    }
  }
}

}  // namespace
}  // namespace peerlab::core

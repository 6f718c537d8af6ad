#include "peerlab/core/blind.hpp"
#include "support/ranking.hpp"

#include <gtest/gtest.h>

#include <map>

namespace peerlab::core {
namespace {

using peerlab::testing::ranked;

std::vector<PeerSnapshot> peers(std::size_t n) {
  std::vector<PeerSnapshot> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].peer = PeerId(i + 1);
  }
  return out;
}

TEST(Blind, FirstAvailableAlwaysPicksLowestId) {
  BlindModel model(BlindModel::Mode::kFirstAvailable);
  const auto candidates = peers(4);
  SelectionContext ctx;
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(model.select(candidates, ctx), PeerId(1));
  }
}

TEST(Blind, RoundRobinCyclesThroughAllPeers) {
  BlindModel model(BlindModel::Mode::kRoundRobin);
  const auto candidates = peers(3);
  SelectionContext ctx;
  std::map<PeerId, int> picks;
  for (int i = 0; i < 9; ++i) {
    ++picks[model.select(candidates, ctx)];
  }
  ASSERT_EQ(picks.size(), 3u);
  for (const auto& [peer, count] : picks) {
    EXPECT_EQ(count, 3);
  }
}

TEST(Blind, RoundRobinRankingIsARotation) {
  BlindModel model(BlindModel::Mode::kRoundRobin);
  const auto candidates = peers(3);
  SelectionContext ctx;
  const auto first = ranked(model, candidates, ctx);
  const auto second = ranked(model, candidates, ctx);
  ASSERT_EQ(first.size(), 3u);
  ASSERT_EQ(second.size(), 3u);
  EXPECT_EQ(first[0], PeerId(1));
  EXPECT_EQ(second[0], PeerId(2));
  EXPECT_EQ(second[1], PeerId(3));
  EXPECT_EQ(second[2], PeerId(1));
}

TEST(Blind, OfflinePeersSkipped) {
  BlindModel model(BlindModel::Mode::kFirstAvailable);
  auto candidates = peers(3);
  candidates[0].online = false;
  SelectionContext ctx;
  EXPECT_EQ(model.select(candidates, ctx), PeerId(2));
}

TEST(Blind, EmptyOrAllOfflineGivesNothing) {
  BlindModel model;
  SelectionContext ctx;
  EXPECT_TRUE(ranked(model, {}, ctx).empty());
  auto candidates = peers(2);
  candidates[0].online = false;
  candidates[1].online = false;
  EXPECT_TRUE(ranked(model, candidates, ctx).empty());
}

TEST(Blind, IgnoresAllQualitySignals) {
  // A straggler with huge queues is picked as readily as anyone —
  // that's the point of the baseline.
  BlindModel model(BlindModel::Mode::kRoundRobin);
  auto candidates = peers(2);
  candidates[0].queued_tasks = 100;
  candidates[0].idle = false;
  SelectionContext ctx;
  std::map<PeerId, int> picks;
  for (int i = 0; i < 10; ++i) ++picks[model.select(candidates, ctx)];
  EXPECT_EQ(picks[PeerId(1)], 5);
  EXPECT_EQ(picks[PeerId(2)], 5);
}

}  // namespace
}  // namespace peerlab::core

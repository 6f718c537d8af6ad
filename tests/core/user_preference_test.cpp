#include "peerlab/core/user_preference.hpp"

#include <gtest/gtest.h>

#include "peerlab/common/check.hpp"
#include "support/ranking.hpp"

namespace peerlab::core {
namespace {

using peerlab::testing::ranked;

std::vector<PeerSnapshot> peers(std::initializer_list<std::uint64_t> ids) {
  std::vector<PeerSnapshot> out;
  for (const auto id : ids) {
    PeerSnapshot p;
    p.peer = PeerId(id);
    out.push_back(p);
  }
  return out;
}

TEST(UserPreference, ExplicitOrderIsHonoured) {
  UserPreferenceModel model({PeerId(3), PeerId(1), PeerId(2)});
  SelectionContext ctx;
  const auto candidates = peers({1, 2, 3});
  const auto ranking = ranked(model, candidates, ctx);
  ASSERT_EQ(ranking.size(), 3u);
  EXPECT_EQ(ranking[0], PeerId(3));
  EXPECT_EQ(ranking[1], PeerId(1));
  EXPECT_EQ(ranking[2], PeerId(2));
}

TEST(UserPreference, UnlistedPeersRankAfterListedOnes) {
  UserPreferenceModel model({PeerId(5)});
  SelectionContext ctx;
  const auto candidates = peers({4, 5, 6});
  const auto ranking = ranked(model, candidates, ctx);
  ASSERT_EQ(ranking.size(), 3u);
  EXPECT_EQ(ranking[0], PeerId(5));
  EXPECT_EQ(ranking[1], PeerId(4));  // unlisted, by id
  EXPECT_EQ(ranking[2], PeerId(6));
}

TEST(UserPreference, IgnoresCurrentPeerState) {
  // The paper's stated drawback: current load does not matter.
  UserPreferenceModel model({PeerId(1), PeerId(2)});
  auto candidates = peers({1, 2});
  candidates[0].idle = false;
  candidates[0].queued_tasks = 50;
  candidates[0].active_transfers = 10;
  SelectionContext ctx;
  EXPECT_EQ(ranked(model, candidates, ctx).front(), PeerId(1));
}

TEST(UserPreference, OfflinePeersStillExcluded) {
  UserPreferenceModel model({PeerId(1), PeerId(2)});
  auto candidates = peers({1, 2});
  candidates[0].online = false;
  SelectionContext ctx;
  const auto ranking = ranked(model, candidates, ctx);
  ASSERT_EQ(ranking.size(), 1u);
  EXPECT_EQ(ranking[0], PeerId(2));
}

TEST(UserPreference, QuickPeerRanksByHistoricalQuickness) {
  stats::HistoryStore history;
  history.record_response_time(PeerId(1), 5.0);
  history.record_response_time(PeerId(2), 0.1);
  history.record_response_time(PeerId(3), 1.0);
  const auto model =
      UserPreferenceModel::quick_peer(history, {PeerId(1), PeerId(2), PeerId(3)});
  ASSERT_EQ(model.preference_order().size(), 3u);
  EXPECT_EQ(model.preference_order()[0], PeerId(2));
  EXPECT_EQ(model.preference_order()[1], PeerId(3));
  EXPECT_EQ(model.preference_order()[2], PeerId(1));
}

TEST(UserPreference, QuickPeerUsesTransferRatesToo) {
  stats::HistoryStore history;
  // Same response time; peer 2 transfers much faster.
  history.record_response_time(PeerId(1), 0.5);
  history.record_response_time(PeerId(2), 0.5);
  stats::TransferRecord slow;
  slow.transfer = TransferId(1);
  slow.peer = PeerId(1);
  slow.size = megabytes(1.0);
  slow.duration = 8.0;  // 1 Mbit/s
  slow.ok = true;
  history.record_transfer(slow);
  auto fast = slow;
  fast.peer = PeerId(2);
  fast.duration = 1.0;  // 8 Mbit/s
  history.record_transfer(fast);
  const auto model = UserPreferenceModel::quick_peer(history, {PeerId(1), PeerId(2)});
  EXPECT_EQ(model.preference_order()[0], PeerId(2));
}

TEST(UserPreference, QuickPeerPutsUnknownPeersLast) {
  stats::HistoryStore history;
  history.record_response_time(PeerId(2), 0.2);
  const auto model = UserPreferenceModel::quick_peer(history, {PeerId(1), PeerId(2)});
  EXPECT_EQ(model.preference_order()[0], PeerId(2));
  EXPECT_EQ(model.preference_order()[1], PeerId(1));
}

TEST(UserPreference, QuickPeerSnapshotIsStatic) {
  stats::HistoryStore history;
  history.record_response_time(PeerId(1), 0.1);
  history.record_response_time(PeerId(2), 9.0);
  auto model = UserPreferenceModel::quick_peer(history, {PeerId(1), PeerId(2)});
  // The world changes: peer 2 becomes the quick one.
  for (int i = 0; i < 100; ++i) history.record_response_time(PeerId(2), 0.01);
  // The frozen model still prefers peer 1.
  SelectionContext ctx;
  const auto candidates = peers({1, 2});
  EXPECT_EQ(ranked(model, candidates, ctx).front(), PeerId(1));
}

TEST(UserPreference, RejectsInvalidIdsInOrder) {
  EXPECT_THROW(UserPreferenceModel({PeerId(1), PeerId{}}), InvariantError);
}

TEST(UserPreference, NameIsStable) {
  EXPECT_EQ(UserPreferenceModel({}).name(), "user-preference");
}

}  // namespace
}  // namespace peerlab::core

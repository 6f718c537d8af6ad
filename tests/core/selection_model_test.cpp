#include "peerlab/core/selection_model.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "peerlab/core/blind.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/hybrid.hpp"
#include "peerlab/core/user_preference.hpp"
#include "support/ranking.hpp"

namespace peerlab::core {
namespace {

using peerlab::testing::ranked;

std::vector<PeerSnapshot> three_peers() {
  std::vector<PeerSnapshot> peers(3);
  for (std::size_t i = 0; i < 3; ++i) {
    peers[i].peer = PeerId(i + 1);
  }
  return peers;
}

TEST(SelectionModel, SelectReturnsTopOfRanking) {
  BlindModel model(BlindModel::Mode::kFirstAvailable);
  const auto peers = three_peers();
  SelectionContext ctx;
  EXPECT_EQ(model.select(peers, ctx), PeerId(1));
}

TEST(SelectionModel, SelectOnEmptyCandidatesIsInvalid) {
  BlindModel model;
  SelectionContext ctx;
  EXPECT_FALSE(model.select({}, ctx).valid());
}

TEST(SelectionModel, AppendRankedSortsAscendingWithIdTiebreak) {
  std::vector<ScoredPeer> scored{
      {PeerId(3), 0.5}, {PeerId(1), 0.5}, {PeerId(2), 0.1}, {PeerId(4), 0.9}};
  std::vector<PeerId> ranked{PeerId(9)};  // appends after existing entries
  append_ranked(scored, ranked);
  ASSERT_EQ(ranked.size(), 5u);
  EXPECT_EQ(ranked[0], PeerId(9));
  EXPECT_EQ(ranked[1], PeerId(2));
  EXPECT_EQ(ranked[2], PeerId(1));  // tie at 0.5 -> lower id first
  EXPECT_EQ(ranked[3], PeerId(3));
  EXPECT_EQ(ranked[4], PeerId(4));
}

TEST(SelectionModel, EveryModelHonoursTheExcludeList) {
  // Failover re-petitions carry the peers that already failed; every
  // model must skip them no matter how well they score.
  const auto peers = three_peers();
  SelectionContext ctx;
  ctx.exclude = {PeerId(1), PeerId(3)};
  std::vector<std::unique_ptr<SelectionModel>> models;
  models.push_back(std::make_unique<BlindModel>(BlindModel::Mode::kFirstAvailable));
  models.push_back(std::make_unique<BlindModel>(BlindModel::Mode::kRoundRobin));
  models.push_back(std::make_unique<EconomicSchedulingModel>());
  models.push_back(
      std::make_unique<DataEvaluatorModel>(DataEvaluatorModel::same_priority()));
  models.push_back(std::make_unique<UserPreferenceModel>(
      std::vector<PeerId>{PeerId(3), PeerId(1), PeerId(2)}));
  models.push_back(std::make_unique<HybridModel>());
  for (const auto& model : models) {
    const auto ranking = ranked(*model, peers, ctx);
    ASSERT_EQ(ranking.size(), 1u) << model->name();
    EXPECT_EQ(ranking[0], PeerId(2)) << model->name();
    EXPECT_EQ(model->select(peers, ctx), PeerId(2)) << model->name();
  }
  // Excluding everyone leaves nothing to select.
  ctx.exclude = {PeerId(1), PeerId(2), PeerId(3)};
  for (const auto& model : models) {
    EXPECT_TRUE(ranked(*model, peers, ctx).empty()) << model->name();
    EXPECT_FALSE(model->select(peers, ctx).valid()) << model->name();
  }
}

TEST(SelectionContextEnum, PurposeNames) {
  EXPECT_STREQ(to_string(SelectionContext::Purpose::kFileTransfer), "file-transfer");
  EXPECT_STREQ(to_string(SelectionContext::Purpose::kTaskExecution), "task-execution");
  EXPECT_STREQ(to_string(SelectionContext::Purpose::kGeneric), "generic");
}

}  // namespace
}  // namespace peerlab::core

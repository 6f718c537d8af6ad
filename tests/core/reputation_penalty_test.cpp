// SelectionContext::reputation_penalty across all five models: exact
// zero-perturbation at weight 0 (a run without defenses ranks
// bit-identically whatever the reputation field holds), and a material
// penalty at the defended weight that sinks distrusted peers.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "peerlab/core/blind.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/hybrid.hpp"
#include "peerlab/core/user_preference.hpp"
#include "support/ranking.hpp"

namespace peerlab::core {
namespace {

using peerlab::testing::ranked;

PeerSnapshot peer(std::uint64_t id, double reputation = 1.0) {
  PeerSnapshot p;
  p.peer = PeerId(id);
  p.cpu_ghz = 1.0;
  p.price_per_cpu_second = 1.0;
  p.idle = true;
  p.reputation = reputation;
  return p;
}

SelectionContext transfer_ctx(double weight = 0.0) {
  SelectionContext ctx;
  ctx.purpose = SelectionContext::Purpose::kFileTransfer;
  ctx.payload_size = megabytes(4.0);
  ctx.reputation_weight = weight;
  return ctx;
}

TEST(ReputationPenalty, PenaltyIsExactlyZeroAtWeightZero) {
  const SelectionContext ctx = transfer_ctx(0.0);
  EXPECT_EQ(ctx.reputation_penalty(peer(1, 0.0)), 0.0);
  EXPECT_EQ(ctx.reputation_penalty(peer(1, 0.5)), 0.0);
  const SelectionContext defended = transfer_ctx(2.0);
  EXPECT_DOUBLE_EQ(defended.reputation_penalty(peer(1, 1.0)), 0.0);
  EXPECT_DOUBLE_EQ(defended.reputation_penalty(peer(1, 0.25)), 1.5);
}

/// Every model: identical peers except one's reputation. At weight 0
/// the ranking must not depend on the reputation field at all; at the
/// defended weight the distrusted peer must sink to the bottom.
template <typename MakeModel>
void expect_weight_semantics(MakeModel make_model) {
  const std::vector<PeerSnapshot> trusted{peer(1), peer(2), peer(3)};
  const std::vector<PeerSnapshot> mixed{peer(1, 0.1), peer(2), peer(3)};

  {
    auto a = make_model();
    auto b = make_model();
    const auto baseline = ranked(*a, trusted, transfer_ctx(0.0));
    const auto undefended = ranked(*b, mixed, transfer_ctx(0.0));
    EXPECT_EQ(baseline, undefended);  // weight 0: reputation invisible
  }
  {
    auto m = make_model();
    const auto defended = ranked(*m, mixed, transfer_ctx(2.0));
    ASSERT_EQ(defended.size(), 3u);
    EXPECT_EQ(defended.back(), PeerId(1));  // distrusted peer sinks
  }
}

TEST(ReputationPenalty, EconomicSinksDistrustedPeers) {
  expect_weight_semantics([] { return std::make_unique<EconomicSchedulingModel>(); });
}

TEST(ReputationPenalty, DataEvaluatorSinksDistrustedPeers) {
  expect_weight_semantics(
      [] { return std::make_unique<DataEvaluatorModel>(DataEvaluatorModel::same_priority()); });
}

TEST(ReputationPenalty, HybridSinksDistrustedPeers) {
  expect_weight_semantics([] { return std::make_unique<HybridModel>(); });
}

TEST(ReputationPenalty, UserPreferenceSinksEvenTheFavourite) {
  // Peer 1 is the user's first choice, but reputation 0 at weight 1
  // (scaled by the candidate count inside the model) outweighs any
  // preference-rank gap.
  const std::vector<PeerId> order{PeerId(1), PeerId(2), PeerId(3)};
  {
    UserPreferenceModel m(order);
    const auto ranking =
        ranked(m, std::vector<PeerSnapshot>{peer(1, 0.0), peer(2), peer(3)}, transfer_ctx(0.0));
    ASSERT_EQ(ranking.size(), 3u);
    EXPECT_EQ(ranking.front(), PeerId(1));  // weight 0: preference rules
  }
  {
    UserPreferenceModel m(order);
    const auto ranking =
        ranked(m, std::vector<PeerSnapshot>{peer(1, 0.0), peer(2), peer(3)}, transfer_ctx(1.0));
    ASSERT_EQ(ranking.size(), 3u);
    EXPECT_EQ(ranking.back(), PeerId(1));
    EXPECT_EQ(ranking.front(), PeerId(2));  // remaining preference intact
  }
}

TEST(ReputationPenalty, BlindConfinesRotationToTheTrustedGroup) {
  const std::vector<PeerSnapshot> mixed{peer(1, 0.1), peer(2), peer(3)};
  BlindModel defended;
  // Round-robin keeps rotating, but only within the minimal-penalty
  // group: the distrusted peer is always ranked last.
  std::vector<PeerId> firsts;
  for (int i = 0; i < 4; ++i) {
    const auto ranking = ranked(defended, mixed, transfer_ctx(2.0));
    ASSERT_EQ(ranking.size(), 3u);
    EXPECT_EQ(ranking.back(), PeerId(1));
    firsts.push_back(ranking.front());
  }
  EXPECT_EQ(firsts[0], PeerId(2));
  EXPECT_EQ(firsts[1], PeerId(3));  // rotation alive within the group
  EXPECT_EQ(firsts[2], PeerId(2));

  // Weight 0: the same snapshots rotate over the whole set, exactly as
  // a defense-free blind broker would.
  BlindModel undefended;
  const auto first = ranked(undefended, mixed, transfer_ctx(0.0));
  const auto second = ranked(undefended, mixed, transfer_ctx(0.0));
  const auto third = ranked(undefended, mixed, transfer_ctx(0.0));
  EXPECT_EQ(first.front(), PeerId(1));
  EXPECT_EQ(second.front(), PeerId(2));
  EXPECT_EQ(third.front(), PeerId(3));
}

}  // namespace
}  // namespace peerlab::core

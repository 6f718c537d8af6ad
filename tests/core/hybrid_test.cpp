#include "peerlab/core/hybrid.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "peerlab/common/check.hpp"
#include "support/ranking.hpp"

namespace peerlab::core {
namespace {

using peerlab::testing::ranked;

struct Population {
  std::deque<stats::PeerStatistics> statistics;
  std::vector<PeerSnapshot> snapshots;
};

/// Peer 1: fast but unreliable. Peer 2: slow but spotless. Peer 3:
/// mediocre on both axes.
Population mixed_population() {
  Population pop;
  auto& unreliable = pop.statistics.emplace_back(3600.0);
  for (int i = 0; i < 10; ++i) unreliable.record_message(static_cast<double>(i), i % 2 == 0);
  for (int i = 0; i < 4; ++i) unreliable.record_file(stats::FileOutcome::kFailed);
  auto& spotless = pop.statistics.emplace_back(3600.0);
  for (int i = 0; i < 10; ++i) spotless.record_message(static_cast<double>(i), true);
  spotless.record_file(stats::FileOutcome::kCompleted);
  auto& mediocre = pop.statistics.emplace_back(3600.0);
  for (int i = 0; i < 10; ++i) mediocre.record_message(static_cast<double>(i), i % 4 != 0);

  const double cpus[3] = {3.0, 0.8, 1.5};
  for (int i = 0; i < 3; ++i) {
    PeerSnapshot snap;
    snap.peer = PeerId(static_cast<std::uint64_t>(i + 1));
    snap.cpu_ghz = cpus[i];
    snap.statistics = &pop.statistics[static_cast<std::size_t>(i)];
    pop.snapshots.push_back(std::move(snap));
  }
  return pop;
}

SelectionContext task_ctx() {
  SelectionContext ctx;
  ctx.purpose = SelectionContext::Purpose::kTaskExecution;
  ctx.work = 100.0;
  ctx.now = 20.0;
  return ctx;
}

TEST(Hybrid, AlphaOneMatchesEconomicOrdering) {
  auto pop = mixed_population();
  HybridConfig cfg;
  cfg.alpha = 1.0;
  HybridModel hybrid(cfg);
  EconomicConfig ecfg;
  ecfg.prefer_idle = false;
  EconomicSchedulingModel economic(ecfg);
  // Both rank by time/cost: the 3 GHz peer wins despite its record.
  EXPECT_EQ(ranked(hybrid, pop.snapshots, task_ctx()).front(), PeerId(1));
  EXPECT_EQ(ranked(economic, pop.snapshots, task_ctx()).front(), PeerId(1));
}

TEST(Hybrid, AlphaZeroMatchesEvaluatorOrdering) {
  auto pop = mixed_population();
  HybridConfig cfg;
  cfg.alpha = 0.0;
  HybridModel hybrid(cfg);
  auto evaluator = DataEvaluatorModel::same_priority();
  EXPECT_EQ(ranked(hybrid, pop.snapshots, task_ctx()).front(), PeerId(2));
  EXPECT_EQ(ranked(evaluator, pop.snapshots, task_ctx()).front(), PeerId(2));
}

TEST(Hybrid, MidAlphaTradesSpeedAgainstReliability) {
  auto pop = mixed_population();
  // At alpha 0.5 the spotless-but-slow peer and the fast-but-flaky
  // peer both get penalized once; the ordering must be a blend, i.e.
  // the mediocre peer can never be ranked below BOTH extremes' losers
  // simultaneously more than once... concretely: the winner at 0.5 is
  // one of the two specialists, and sweeping alpha moves the boundary.
  std::vector<PeerId> winners;
  for (const double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    HybridConfig cfg;
    cfg.alpha = alpha;
    HybridModel hybrid(cfg);
    winners.push_back(ranked(hybrid, pop.snapshots, task_ctx()).front());
  }
  EXPECT_EQ(winners.front(), PeerId(2));  // pure evaluator
  EXPECT_EQ(winners.back(), PeerId(1));   // pure economic
  // Monotone handover: once the fast peer takes over it keeps winning.
  bool switched = false;
  for (std::size_t i = 1; i < winners.size(); ++i) {
    if (winners[i] == PeerId(1)) switched = true;
    if (switched) {
      EXPECT_EQ(winners[i], PeerId(1));
    }
  }
}

TEST(Hybrid, OfflinePeersExcluded) {
  auto pop = mixed_population();
  pop.snapshots[0].online = false;
  HybridModel hybrid;
  const auto ranking = ranked(hybrid, pop.snapshots, task_ctx());
  EXPECT_EQ(ranking.size(), 2u);
  for (const auto peer : ranking) EXPECT_NE(peer, PeerId(1));
}

TEST(Hybrid, EmptyCandidatesGiveEmptyRanking) {
  HybridModel hybrid;
  EXPECT_TRUE(ranked(hybrid, {}, task_ctx()).empty());
}

TEST(Hybrid, RejectsBadAlpha) {
  HybridConfig cfg;
  cfg.alpha = -0.1;
  EXPECT_THROW(HybridModel{cfg}, InvariantError);
  cfg.alpha = 1.1;
  EXPECT_THROW(HybridModel{cfg}, InvariantError);
}

TEST(Hybrid, NameIsStable) { EXPECT_EQ(HybridModel{}.name(), "hybrid"); }

}  // namespace
}  // namespace peerlab::core

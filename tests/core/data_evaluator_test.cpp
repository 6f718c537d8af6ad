#include "peerlab/core/data_evaluator.hpp"

#include <gtest/gtest.h>

#include "peerlab/common/check.hpp"
#include "support/ranking.hpp"

namespace peerlab::core {
namespace {

using peerlab::testing::ranked;

using stats::Criterion;

TEST(DataEvaluator, SamePriorityCoversEveryCriterion) {
  const auto model = DataEvaluatorModel::same_priority();
  EXPECT_EQ(model.weights().size(), stats::kCriterionCount);
  for (const auto& w : model.weights()) {
    EXPECT_DOUBLE_EQ(w.weight, 1.0);
  }
}

TEST(DataEvaluator, GoodnessMapsPercentagesLinearly) {
  EXPECT_DOUBLE_EQ(DataEvaluatorModel::goodness(Criterion::kMsgSuccessTotal, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(DataEvaluatorModel::goodness(Criterion::kMsgSuccessTotal, 50.0), 0.5);
  EXPECT_DOUBLE_EQ(DataEvaluatorModel::goodness(Criterion::kMsgSuccessTotal, 0.0), 0.0);
}

TEST(DataEvaluator, GoodnessInvertsLowerIsBetterPercentages) {
  EXPECT_DOUBLE_EQ(DataEvaluatorModel::goodness(Criterion::kFileCancelTotal, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(DataEvaluatorModel::goodness(Criterion::kFileCancelTotal, 100.0), 0.0);
}

TEST(DataEvaluator, GoodnessOfCountsDecaysSmoothly) {
  EXPECT_DOUBLE_EQ(DataEvaluatorModel::goodness(Criterion::kPendingTransfers, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(DataEvaluatorModel::goodness(Criterion::kPendingTransfers, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(DataEvaluatorModel::goodness(Criterion::kOutboxNow, 3.0), 0.25);
  // Monotone decreasing.
  double prev = 1.0;
  for (double v = 0.0; v <= 20.0; v += 1.0) {
    const double g = DataEvaluatorModel::goodness(Criterion::kInboxAvg, v);
    EXPECT_LE(g, prev);
    prev = g;
  }
}

TEST(DataEvaluator, GoodnessClampsOutOfRangePercentages) {
  EXPECT_DOUBLE_EQ(DataEvaluatorModel::goodness(Criterion::kMsgSuccessTotal, 150.0), 1.0);
  EXPECT_DOUBLE_EQ(DataEvaluatorModel::goodness(Criterion::kMsgSuccessTotal, -10.0), 0.0);
}

TEST(DataEvaluator, PerfectPeerHasZeroCost) {
  stats::PeerStatistics perfect;
  perfect.record_message(0.0, true);
  perfect.record_task_accept(true);
  perfect.record_task_execution(true);
  perfect.record_file(stats::FileOutcome::kCompleted);
  PeerSnapshot p;
  p.peer = PeerId(1);
  p.statistics = &perfect;
  const auto model = DataEvaluatorModel::same_priority();
  SelectionContext ctx;
  ctx.now = 1.0;
  EXPECT_NEAR(model.cost(p, ctx), 0.0, 1e-12);
}

TEST(DataEvaluator, WorsePeerCostsMore) {
  stats::PeerStatistics good, bad;
  for (int i = 0; i < 10; ++i) {
    good.record_message(static_cast<double>(i), true);
    bad.record_message(static_cast<double>(i), i % 2 == 0);  // 50%
  }
  bad.set_pending_transfers(4);
  bad.sample_outbox(6.0);

  PeerSnapshot pg, pb;
  pg.peer = PeerId(1);
  pg.statistics = &good;
  pb.peer = PeerId(2);
  pb.statistics = &bad;
  const auto model = DataEvaluatorModel::same_priority();
  SelectionContext ctx;
  ctx.now = 10.0;
  EXPECT_LT(model.cost(pg, ctx), model.cost(pb, ctx));

  auto mutable_model = DataEvaluatorModel::same_priority();
  std::vector<PeerSnapshot> peers{pb, pg};
  EXPECT_EQ(ranked(mutable_model, peers, ctx).front(), PeerId(1));
}

TEST(DataEvaluator, ZeroWeightCriteriaAreIgnored) {
  // Weight only message success; a peer with terrible file stats but
  // perfect messaging must win.
  DataEvaluatorModel model({{Criterion::kMsgSuccessTotal, 1.0},
                            {Criterion::kFileSentTotal, 0.0}});
  stats::PeerStatistics msgs_good_files_bad;
  msgs_good_files_bad.record_message(0.0, true);
  for (int i = 0; i < 5; ++i) msgs_good_files_bad.record_file(stats::FileOutcome::kFailed);
  stats::PeerStatistics msgs_bad_files_good;
  msgs_bad_files_good.record_message(0.0, false);
  msgs_bad_files_good.record_file(stats::FileOutcome::kCompleted);

  PeerSnapshot a, b;
  a.peer = PeerId(1);
  a.statistics = &msgs_good_files_bad;
  b.peer = PeerId(2);
  b.statistics = &msgs_bad_files_good;
  SelectionContext ctx;
  ctx.now = 1.0;
  std::vector<PeerSnapshot> peers{a, b};
  EXPECT_EQ(ranked(model, peers, ctx).front(), PeerId(1));
}

TEST(DataEvaluator, CustomWeightsShiftTheDecision) {
  stats::PeerStatistics queuey;  // good success, long queues
  queuey.record_message(0.0, true);
  queuey.sample_outbox(8.0);
  stats::PeerStatistics lossy;  // bad success, empty queues
  lossy.record_message(0.0, false);
  lossy.record_message(0.5, true);
  lossy.sample_outbox(0.0);

  PeerSnapshot a, b;
  a.peer = PeerId(1);
  a.statistics = &queuey;
  b.peer = PeerId(2);
  b.statistics = &lossy;
  SelectionContext ctx;
  ctx.now = 1.0;
  std::vector<PeerSnapshot> peers{a, b};

  DataEvaluatorModel msg_focused({{Criterion::kMsgSuccessTotal, 1.0}});
  EXPECT_EQ(ranked(msg_focused, peers, ctx).front(), PeerId(1));
  DataEvaluatorModel queue_focused({{Criterion::kOutboxNow, 1.0}});
  EXPECT_EQ(ranked(queue_focused, peers, ctx).front(), PeerId(2));
}

TEST(DataEvaluator, UnknownPeersGetNeutralCost) {
  const auto model = DataEvaluatorModel::same_priority();
  PeerSnapshot anon;
  anon.peer = PeerId(1);
  SelectionContext ctx;
  EXPECT_DOUBLE_EQ(model.cost(anon, ctx), 0.5);
}

TEST(DataEvaluator, OfflinePeersExcluded) {
  auto model = DataEvaluatorModel::same_priority();
  PeerSnapshot off;
  off.peer = PeerId(1);
  off.online = false;
  SelectionContext ctx;
  std::vector<PeerSnapshot> peers{off};
  EXPECT_TRUE(ranked(model, peers, ctx).empty());
}

TEST(DataEvaluator, RejectsDegenerateWeightVectors) {
  EXPECT_THROW(DataEvaluatorModel({}), InvariantError);
  EXPECT_THROW(DataEvaluatorModel({{Criterion::kMsgSuccessTotal, 0.0}}), InvariantError);
  EXPECT_THROW(DataEvaluatorModel({{Criterion::kMsgSuccessTotal, -1.0}}), InvariantError);
}

TEST(DataEvaluator, CostIsMonotoneInOneCriterion) {
  // Property: with a single-criterion model, improving that criterion
  // never raises the cost.
  DataEvaluatorModel model({{Criterion::kMsgSuccessTotal, 1.0}});
  SelectionContext ctx;
  double prev_cost = 2.0;
  for (int good = 0; good <= 10; ++good) {
    stats::PeerStatistics s;
    for (int i = 0; i < 10; ++i) s.record_message(0.0, i < good);
    PeerSnapshot p;
    p.peer = PeerId(1);
    p.statistics = &s;
    ctx.now = 1.0;
    const double c = model.cost(p, ctx);
    EXPECT_LT(c, prev_cost);
    prev_cost = c;
  }
}

}  // namespace
}  // namespace peerlab::core

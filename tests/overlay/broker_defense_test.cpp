// The broker's defended report/selection paths: self-praise is a
// detected lie whose outcome fields never pollute history, counterparty
// outcomes feed the reputation book, quarantined peers drop out of
// selection (with graceful fallback when nobody is left), and with
// defenses off every path is bit-identical to the pre-defense broker.

#include <gtest/gtest.h>

#include <algorithm>

#include "overlay_world.hpp"
#include "peerlab/core/snapshot.hpp"

namespace peerlab::overlay {
namespace {

using testing::OverlayWorld;
using testing::WorldOptions;

WorldOptions defended_options(int clients = 3) {
  WorldOptions opts;
  opts.clients = clients;
  opts.broker_config.reputation.enabled = true;
  opts.broker_config.reputation.decay_half_life = 0.0;  // deterministic scores
  return opts;
}

/// A self-report carrying the counterparty-only fields (the stats
/// liar's heartbeat payload).
StatsDelta self_praise(PeerId peer) {
  StatsDelta delta;
  delta.subject = peer;
  delta.file_done = 3;
  delta.response_times.push_back(0.01);
  stats::TransferRecord fake;
  fake.transfer = TransferId(999);
  fake.peer = peer;
  fake.size = megabytes(1.0);
  fake.duration = 0.01;
  fake.ok = true;
  delta.transfer_records.push_back(fake);
  return delta;
}

TEST(BrokerDefense, SelfPraiseIsCaughtAndNeverReachesHistory) {
  OverlayWorld w(defended_options());
  w.boot();
  const PeerId liar(2);
  w.broker->apply_stats(self_praise(liar), liar);

  EXPECT_EQ(w.broker->reputation().lies_recorded(), 1u);
  EXPECT_LT(w.broker->reputation().score(liar, w.sim.now()), 1.0);
  // The fabricated outcome fields were dropped before application: the
  // history estimators every selection model consults stay clean.
  EXPECT_TRUE(w.broker->history().transfers_for(liar).empty());
  EXPECT_FALSE(w.broker->history().mean_transfer_rate(liar).has_value());
  EXPECT_FALSE(w.broker->history().mean_response_time(liar).has_value());
}

TEST(BrokerDefense, SelfQueueSamplesAreNotLies) {
  OverlayWorld w(defended_options());
  w.boot();
  const PeerId honest(2);
  StatsDelta delta;
  delta.subject = honest;
  delta.outbox_sample = 4.0;
  delta.inbox_sample = 1.0;
  delta.pending_transfers = 2;
  w.broker->apply_stats(delta, honest);
  EXPECT_EQ(w.broker->reputation().lies_recorded(), 0u);
  EXPECT_DOUBLE_EQ(w.broker->reputation().score(honest, w.sim.now()), 1.0);
}

TEST(BrokerDefense, CounterpartyOutcomesFeedTheReputationBook) {
  OverlayWorld w(defended_options());
  w.boot();
  const PeerId reporter(2);
  const PeerId subject(3);

  StatsDelta failure;
  failure.subject = subject;
  failure.file_fail = 1;
  w.broker->apply_stats(failure, reporter);
  EXPECT_EQ(w.broker->reputation().failures_recorded(), 1u);
  const double penalized = w.broker->reputation().score(subject, w.sim.now());
  EXPECT_DOUBLE_EQ(penalized,
                   1.0 - w.broker->reputation().config().failure_penalty);
  // ... and the defended snapshot carries the score into ranking.
  const auto snapshot = w.broker->candidate_index().snapshot(subject, w.sim.now());
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_DOUBLE_EQ(snapshot->reputation, penalized);

  // Counterparty-attributed history is trusted and applied.
  StatsDelta success;
  success.subject = subject;
  success.exec_ok = 1;
  stats::TransferRecord real;
  real.transfer = TransferId(7);
  real.peer = subject;
  real.size = megabytes(2.0);
  real.duration = 2.0;
  real.ok = true;
  success.transfer_records.push_back(real);
  w.broker->apply_stats(success, reporter);
  EXPECT_GT(w.broker->reputation().successes_recorded(), 0u);
  EXPECT_EQ(w.broker->history().transfers_for(subject).size(), 1u);
  EXPECT_EQ(w.broker->reputation().lies_recorded(), 0u);
}

TEST(BrokerDefense, QuarantinedPeersDropOutOfSelection) {
  OverlayWorld w(defended_options(3));  // peers 2, 3, 4
  w.boot();
  const PeerId leech(3);
  w.broker->reputation().record_lie(leech, w.sim.now());
  w.broker->reputation().record_lie(leech, w.sim.now());  // 0.2 < 0.3
  ASSERT_TRUE(w.broker->reputation().quarantined(leech, w.sim.now()));

  core::SelectionContext ctx;
  ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
  const auto selected = w.broker->select_peers(ctx, 3);
  EXPECT_EQ(selected.size(), 2u);
  EXPECT_EQ(std::count(selected.begin(), selected.end(), leech), 0);
  const auto best = w.broker->select_peers(ctx, 1);
  ASSERT_EQ(best.size(), 1u);
  EXPECT_NE(best.front(), leech);
}

TEST(BrokerDefense, AllPeersQuarantinedFallsBackGracefully) {
  OverlayWorld w(defended_options(2));  // peers 2, 3
  w.boot();
  for (const auto peer : {PeerId(2), PeerId(3)}) {
    w.broker->reputation().record_lie(peer, w.sim.now());
    w.broker->reputation().record_lie(peer, w.sim.now());
    ASSERT_TRUE(w.broker->reputation().quarantined(peer, w.sim.now()));
  }
  // A distrusted peer beats none: the quarantine is lifted for the
  // decision instead of returning an empty selection.
  core::SelectionContext ctx;
  ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
  EXPECT_EQ(w.broker->select_peers(ctx, 2).size(), 2u);
  EXPECT_EQ(w.broker->select_peers(ctx, 1).size(), 1u);
  // An explicit caller exclude survives the fallback untouched.
  ctx.exclude.push_back(PeerId(2));
  const auto selected = w.broker->select_peers(ctx, 2);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0], PeerId(3));
}

TEST(BrokerDefense, DisabledDefensesTrustEveryReportWholesale) {
  OverlayWorld w;  // defaults: reputation.enabled == false
  w.boot();
  ASSERT_FALSE(w.broker->defenses_enabled());
  const PeerId liar(2);
  w.broker->apply_stats(self_praise(liar), liar);
  // No vetting, no scoring: pre-defense behaviour bit-for-bit.
  EXPECT_EQ(w.broker->reputation().lies_recorded(), 0u);
  EXPECT_EQ(w.broker->history().transfers_for(liar).size(), 1u);
  EXPECT_TRUE(w.broker->history().mean_response_time(liar).has_value());
  for (const PeerId peer : w.broker->registered_clients()) {
    EXPECT_DOUBLE_EQ(w.broker->candidate_index().snapshot(peer, w.sim.now())->reputation, 1.0);
  }
}

}  // namespace
}  // namespace peerlab::overlay

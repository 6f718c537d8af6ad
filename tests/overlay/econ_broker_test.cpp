// Broker-level econ engine coverage: constrained petitions route
// around the candidate index (the budget-exhaustion fallback
// regression), the engine re-ranks by quoted cost, exhausted petitions
// still answer, the objective rides the petition wire format, and a
// disabled engine is invisible — constrained or not.

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "overlay/overlay_world.hpp"
#include "peerlab/core/blind.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/overlay/broker.hpp"

namespace peerlab::overlay {
namespace {

using testing::OverlayWorld;
using testing::WorldOptions;

core::SelectionContext constrained_at(Seconds now) {
  core::SelectionContext ctx;
  ctx.now = now;
  ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
  ctx.payload_size = megabytes(4.0);
  ctx.deadline = now + 3600.0;
  ctx.budget = 1e9;  // binding in form, generous in substance
  return ctx;
}

econ::EconConfig enabled_engine() {
  econ::EconConfig cfg;
  cfg.enabled = true;
  return cfg;
}

TEST(EconBroker, ConstrainedContextFallsBackToScanForEveryModel) {
  for (const bool economic_model : {false, true}) {
    WorldOptions options;
    options.clients = 4;
    OverlayWorld world(options);
    world.boot(2.0);
    if (economic_model) {
      world.broker->set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
    }

    // Warm the fast path so the fallback below is attributable.
    core::SelectionContext plain;
    plain.now = world.sim.now();
    (void)world.broker->select_peers(plain, 2);
    const auto fallbacks_before = world.broker->candidate_index().scan_fallbacks();
    const auto fast_before = world.broker->candidate_index().fast_path_selections();
    EXPECT_GT(fast_before, 0u);

    // A budget alone, a deadline alone, and a bare objective must each
    // refuse the index walk — even for models that ignore them.
    core::SelectionContext budgeted = plain;
    budgeted.budget = 10.0;
    core::SelectionContext dated = plain;
    dated.deadline = plain.now + 60.0;
    core::SelectionContext aimed = plain;
    aimed.objective = core::EconObjective::kEfficiency;
    for (const auto* ctx : {&budgeted, &dated, &aimed}) {
      (void)world.broker->select_peers(*ctx, 2);
    }
    EXPECT_EQ(world.broker->candidate_index().scan_fallbacks(), fallbacks_before + 3)
        << "economic_model=" << economic_model;
    EXPECT_EQ(world.broker->candidate_index().fast_path_selections(), fast_before);
  }
}

TEST(EconBroker, DisabledEngineIgnoresConstraintsExactly) {
  // Same world twice; the arms differ only in the engine toggle. With
  // the engine off, a constrained petition must take the pristine path
  // (and the pristine path must not know constraints exist).
  WorldOptions plain_options;
  plain_options.clients = 4;
  OverlayWorld pristine(plain_options);
  pristine.boot(2.0);

  WorldOptions econ_options;
  econ_options.clients = 4;
  econ_options.broker_config.econ = enabled_engine();
  econ_options.broker_config.econ.enabled = false;  // present but off
  OverlayWorld disabled(econ_options);
  disabled.boot(2.0);

  const auto ctx_a = constrained_at(pristine.sim.now());
  const auto ctx_b = constrained_at(disabled.sim.now());
  EXPECT_EQ(pristine.broker->select_peers(ctx_a, 3), disabled.broker->select_peers(ctx_b, 3));
  EXPECT_EQ(disabled.broker->econ_engine().petitions(), 0u);
}

TEST(EconBroker, EnabledEngineLeavesUnconstrainedPetitionsAlone) {
  WorldOptions options;
  options.clients = 4;
  options.broker_config.econ = enabled_engine();
  OverlayWorld world(options);
  world.boot(2.0);
  core::SelectionContext plain;
  plain.now = world.sim.now();
  (void)world.broker->select_peers(plain, 3);
  (void)world.broker->select_peers(plain, 1);
  // The engine never saw them; the index served them.
  EXPECT_EQ(world.broker->econ_engine().petitions(), 0u);
  EXPECT_GT(world.broker->candidate_index().fast_path_selections(), 0u);
}

TEST(EconBroker, CostTimeAdmissionPicksTheCheapestQuote) {
  WorldOptions options;
  options.clients = 5;
  options.broker_config.econ = enabled_engine();
  OverlayWorld world(options);
  world.boot(2.0);

  const auto ctx = constrained_at(world.sim.now());
  const auto picked = world.broker->select_peers(ctx, 1);
  ASSERT_EQ(picked.size(), 1u);

  // Recompute every quote the engine saw; the pick must be the
  // cheapest (cost-time default, everyone feasible, fresh world =>
  // distinct seeded prices, no ties).
  const econ::EconEngine quoter(enabled_engine());
  double best_cost = std::numeric_limits<double>::infinity();
  PeerId best;
  for (const auto& snap : world.reference_snapshots()) {
    const double cost = quoter.appraise(snap, ctx).cost;
    if (cost < best_cost) {
      best_cost = cost;
      best = snap.peer;
    }
  }
  EXPECT_EQ(picked.front(), best);
  EXPECT_EQ(world.broker->econ_engine().petitions(), 1u);
  EXPECT_GT(world.broker->econ_engine().admitted(), 0u);
}

TEST(EconBroker, ExhaustedPetitionStillAnswers) {
  WorldOptions options;
  options.clients = 3;
  options.broker_config.econ = enabled_engine();
  OverlayWorld world(options);
  world.boot(2.0);

  auto ctx = constrained_at(world.sim.now());
  ctx.budget = 1e-9;  // nobody can quote under this
  // Least-bad service, never a refusal.
  EXPECT_EQ(world.broker->select_peers(ctx, 1).size(), 1u);
  EXPECT_EQ(world.broker->econ_engine().exhausted(), 1u);
}

TEST(EconBroker, ObjectiveRidesThePetitionWireFormat) {
  WorldOptions options;
  options.clients = 3;
  options.broker_config.econ = enabled_engine();
  OverlayWorld world(options);
  world.boot(2.0);

  auto ctx = constrained_at(world.sim.now());
  ctx.objective = core::EconObjective::kEfficiency;
  std::vector<PeerId> got;
  bool done = false;
  world.client(0).request_selection(ctx, 2, [&](std::vector<PeerId> peers) {
    got = std::move(peers);
    done = true;
  });
  world.sim.run_until(world.sim.now() + 60.0);
  ASSERT_TRUE(done);
  EXPECT_FALSE(got.empty());
  // The broker-side engine processed the petition it peeked off the
  // ticket store — the whole context (objective included) survived the
  // wire.
  EXPECT_EQ(world.broker->econ_engine().petitions(), 1u);
}

TEST(EconBroker, QuarantinedPeersStayExcludedOnTheEconPath) {
  WorldOptions options;
  options.clients = 4;
  options.broker_config.econ = enabled_engine();
  options.broker_config.reputation.enabled = true;
  OverlayWorld world(options);
  world.boot(2.0);

  const PeerId bad = peer_of(NodeId(2));
  const Seconds now = world.sim.now();
  for (int hit = 0; hit < 4; ++hit) world.broker->reputation().record_failure(bad, now);
  ASSERT_TRUE(world.broker->reputation().quarantined(bad, now));

  const auto ranked = world.broker->select_peers(constrained_at(now), 4);
  ASSERT_FALSE(ranked.empty());
  for (const PeerId peer : ranked) EXPECT_NE(peer, bad);

  // And the all-quarantined degradation still answers under constraints.
  for (int i = 0; i < options.clients; ++i) {
    const PeerId peer = peer_of(NodeId(i + 2));
    for (int hit = 0; hit < 4; ++hit) world.broker->reputation().record_failure(peer, now);
  }
  EXPECT_EQ(world.broker->select_peers(constrained_at(now), 1).size(), 1u);
}

}  // namespace
}  // namespace peerlab::overlay

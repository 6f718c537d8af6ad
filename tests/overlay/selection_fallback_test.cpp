// Fallback regressions around the candidate index: a defended broker
// whose quarantine covers the whole registry must still answer (the
// graceful all-quarantined lift, which the index walks like any other
// ranking), an exclude list covering the registry yields the same empty
// ranking as the scan, an exclude list of any length stays on the
// walks, blind with excludes routes to the model pass with the fallback
// counter moving, and a model-pass petition moves that counter alone.

#include <gtest/gtest.h>

#include <memory>

#include "core/selection_reference.hpp"
#include "overlay/overlay_world.hpp"
#include "peerlab/core/blind.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/overlay/broker.hpp"

namespace peerlab::overlay {
namespace {

using testing::OverlayWorld;
using testing::WorldOptions;

core::SelectionContext context_at(Seconds now) {
  core::SelectionContext ctx;
  ctx.now = now;
  return ctx;
}

TEST(SelectionFallback, AllQuarantinedStillAnswersOnDefendedBroker) {
  WorldOptions options;
  options.clients = 4;
  options.broker_config.reputation.enabled = true;
  OverlayWorld world(options);
  world.boot(2.0);

  const Seconds now = world.sim.now();
  for (int i = 0; i < options.clients; ++i) {
    const PeerId peer = peer_of(NodeId(i + 2));
    for (int hit = 0; hit < 4; ++hit) world.broker->reputation().record_failure(peer, now);
    ASSERT_TRUE(world.broker->reputation().quarantined(peer, now));
  }

  // Blind with a reputation weight takes the model pass, which lifts
  // the quarantine.
  EXPECT_EQ(world.broker->select_peers(context_at(world.sim.now()), 1).size(), 1u);
  EXPECT_FALSE(world.broker->select_peers(context_at(world.sim.now()), 2).empty());

  // Economic: the index answers the quarantined context (empty) and
  // then the lifted one — the penalized ranking of the whole registry.
  world.broker->set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
  const auto& index = world.broker->candidate_index();
  const auto fallbacks = index.scan_fallbacks();
  const auto fast = index.fast_path_selections();
  core::SelectionContext lifted = context_at(world.sim.now());
  lifted.reputation_weight = options.broker_config.reputation.rank_penalty_weight;
  const auto snaps = world.reference_snapshots();
  peerlab::testing::ReferenceEconomic reference;
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}}) {
    const auto got = world.broker->select_peers(context_at(world.sim.now()), k);
    EXPECT_EQ(got.size(), k);
    EXPECT_EQ(got, peerlab::testing::ref_select_k(reference, snaps, lifted, k));
  }
  EXPECT_EQ(index.scan_fallbacks(), fallbacks);
  EXPECT_EQ(index.fast_path_selections(), fast + 4);
}

TEST(SelectionFallback, ExcludeCoveringRegistryYieldsEmptyLikeScan) {
  WorldOptions options;
  options.clients = 4;
  OverlayWorld world(options);
  world.boot(2.0);
  world.broker->set_selection_model(std::make_unique<core::EconomicSchedulingModel>());

  core::SelectionContext ctx = context_at(world.sim.now());
  for (int i = 0; i < options.clients; ++i) ctx.exclude.push_back(peer_of(NodeId(i + 2)));

  const auto snaps = world.reference_snapshots();
  ASSERT_EQ(snaps.size(), 4u);
  const auto got = world.broker->select_peers(ctx, 3);
  peerlab::testing::ReferenceEconomic reference;
  const auto want = peerlab::testing::ref_select_k(reference, snaps, ctx, 3);
  EXPECT_TRUE(want.empty());
  EXPECT_EQ(got, want);
  EXPECT_TRUE(world.broker->select_peers(ctx, 1).empty());
  // The empty answer came from the index, not from a silent bail-out.
  EXPECT_GT(world.broker->candidate_index().fast_path_selections(), 0u);
  EXPECT_EQ(world.broker->candidate_index().scan_fallbacks(), 0u);
}

TEST(SelectionFallback, LongExcludeListIsServedByIndex) {
  WorldOptions options;
  options.clients = 4;
  OverlayWorld world(options);
  world.boot(2.0);
  world.broker->set_selection_model(std::make_unique<core::EconomicSchedulingModel>());

  core::SelectionContext ctx = context_at(world.sim.now());
  // 66 entries: one registered peer and 65 the broker never saw (a
  // defended broker's quarantine list reaches this size).
  ctx.exclude.push_back(peer_of(NodeId(3)));
  for (std::uint64_t i = 0; i < 65; ++i) ctx.exclude.push_back(PeerId(1000 + i));

  const auto snaps = world.reference_snapshots();
  const auto& index = world.broker->candidate_index();
  const auto fallbacks = index.scan_fallbacks();
  const auto fast = index.fast_path_selections();
  const auto got = world.broker->select_peers(ctx, 2);
  EXPECT_EQ(index.scan_fallbacks(), fallbacks);
  EXPECT_EQ(index.fast_path_selections(), fast + 1);
  peerlab::testing::ReferenceEconomic reference;
  EXPECT_EQ(got, peerlab::testing::ref_select_k(reference, snaps, ctx, 2));
  EXPECT_EQ(got.size(), 2u);
}

TEST(SelectionFallback, BlindWithExcludesFallsBackToScan) {
  WorldOptions options;
  options.clients = 4;
  OverlayWorld world(options);
  world.boot(2.0);

  core::SelectionContext ctx = context_at(world.sim.now());
  ctx.exclude.push_back(peer_of(NodeId(2)));

  const auto snaps = world.reference_snapshots();
  const auto before = world.broker->candidate_index().scan_fallbacks();
  peerlab::testing::ReferenceBlind reference;
  const auto want = peerlab::testing::ref_select_k(reference, snaps, ctx, 2);
  const auto got = world.broker->select_peers(ctx, 2);
  EXPECT_GT(world.broker->candidate_index().scan_fallbacks(), before);
  EXPECT_EQ(got, want);
}

/// The model pass neither drains nor flushes the index: a petition it
/// answers moves scan_fallbacks() by exactly one and leaves every walk
/// counter where it was, even with re-keys pending, and answers what the
/// reference ranks truncated to k.
TEST(SelectionFallback, ModelPassMovesOnlyTheFallbackCounter) {
  WorldOptions options;
  options.clients = 5;
  OverlayWorld world(options);
  world.boot(2.0);
  world.broker->set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
  (void)world.broker->select_peers(context_at(world.sim.now()), 2);  // flush the rebind
  // Heartbeats since that walk leave re-keys pending.
  world.sim.run_until(world.sim.now() + 60.0);

  const auto& index = world.broker->candidate_index();
  const auto fallbacks = index.scan_fallbacks();
  const auto fast = index.fast_path_selections();
  const auto rekeys = index.rekeys();
  const auto rebuilds = index.rebuilds();
  const auto pulls = index.bound_pulls();
  const auto sweeps = index.dense_sweeps();

  core::SelectionContext ctx = context_at(world.sim.now());
  ctx.budget = 50.0;  // constrained; the engine is off, so no admission
  const auto snaps = world.reference_snapshots();
  const auto got = world.broker->select_peers(ctx, 3);
  EXPECT_EQ(index.scan_fallbacks(), fallbacks + 1);
  EXPECT_EQ(index.fast_path_selections(), fast);
  EXPECT_EQ(index.rekeys(), rekeys);
  EXPECT_EQ(index.rebuilds(), rebuilds);
  EXPECT_EQ(index.bound_pulls(), pulls);
  EXPECT_EQ(index.dense_sweeps(), sweeps);
  peerlab::testing::ReferenceEconomic reference;
  EXPECT_EQ(got, peerlab::testing::ref_select_k(reference, snaps, ctx, 3));
  EXPECT_EQ(got.size(), 3u);

  // The pending re-keys land on the next walk.
  (void)world.broker->select_peers(context_at(world.sim.now()), 2);
  EXPECT_GT(index.rekeys(), rekeys);
}

}  // namespace
}  // namespace peerlab::overlay

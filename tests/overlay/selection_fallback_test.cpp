// Fallback regressions around the candidate index: a defended broker
// whose quarantine covers the whole registry must still answer (the
// graceful all-quarantined fallback, which the index must never
// shadow), an exclude list covering the registry yields the same empty
// ranking as the scan, and gate conditions (oversized excludes, blind
// with excludes) route to the scan with the fallback counter moving.

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
  // Defenses on: the index must have stood down.
  ASSERT_FALSE(world.broker->index_active());

  const Seconds now = world.sim.now();
  for (int i = 0; i < options.clients; ++i) {
    const PeerId peer = peer_of(NodeId(i + 2));
    for (int hit = 0; hit < 4; ++hit) world.broker->reputation().record_failure(peer, now);
    ASSERT_TRUE(world.broker->reputation().quarantined(peer, now));
  }

  for (const bool economic : {false, true}) {
    if (economic) {
      world.broker->set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
    }
    const auto best = world.broker->select_peers(context_at(world.sim.now()), 1);
    EXPECT_EQ(best.size(), 1u) << "economic=" << economic;
    const auto ranked = world.broker->select_peers(context_at(world.sim.now()), 2);
    EXPECT_FALSE(ranked.empty()) << "economic=" << economic;
  }
}

TEST(SelectionFallback, ExcludeCoveringRegistryYieldsEmptyLikeScan) {
  WorldOptions options;
  options.clients = 4;
  OverlayWorld world(options);
  world.boot(2.0);
  world.broker->set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
  ASSERT_TRUE(world.broker->index_active());

  core::SelectionContext ctx = context_at(world.sim.now());
  for (int i = 0; i < options.clients; ++i) ctx.exclude.push_back(peer_of(NodeId(i + 2)));

  const auto snaps = world.broker->snapshot_group();
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

TEST(SelectionFallback, OversizedExcludeListFallsBackToScan) {
  WorldOptions options;
  options.clients = 4;
  OverlayWorld world(options);
  world.boot(2.0);
  world.broker->set_selection_model(std::make_unique<core::EconomicSchedulingModel>());

  core::SelectionContext ctx = context_at(world.sim.now());
  // 65 entries — one past the inline-exclude budget; the targets don't
  // need to exist for the gate to trip.
  for (std::uint64_t i = 0; i < 65; ++i) ctx.exclude.push_back(PeerId(1000 + i));

  const auto snaps = world.broker->snapshot_group();
  const auto before = world.broker->candidate_index().scan_fallbacks();
  const auto got = world.broker->select_peers(ctx, 2);
  EXPECT_GT(world.broker->candidate_index().scan_fallbacks(), before);
  peerlab::testing::ReferenceEconomic reference;
  EXPECT_EQ(got, peerlab::testing::ref_select_k(reference, snaps, ctx, 2));
}

TEST(SelectionFallback, BlindWithExcludesFallsBackToScan) {
  WorldOptions options;
  options.clients = 4;
  OverlayWorld world(options);
  world.boot(2.0);
  ASSERT_TRUE(world.broker->index_active());

  core::SelectionContext ctx = context_at(world.sim.now());
  ctx.exclude.push_back(peer_of(NodeId(2)));

  const auto snaps = world.broker->snapshot_group();
  const auto before = world.broker->candidate_index().scan_fallbacks();
  peerlab::testing::ReferenceBlind reference;
  const auto want = peerlab::testing::ref_select_k(reference, snaps, ctx, 2);
  const auto got = world.broker->select_peers(ctx, 2);
  EXPECT_GT(world.broker->candidate_index().scan_fallbacks(), before);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace peerlab::overlay

#include "peerlab/overlay/primitives.hpp"

#include <gtest/gtest.h>

#include "overlay_world.hpp"
#include "peerlab/core/economic.hpp"

namespace peerlab::overlay {
namespace {

using testing::OverlayWorld;
using testing::WorldOptions;

TEST(Primitives, DiscoverPeersSeesTheGroup) {
  OverlayWorld w;
  w.boot();
  Primitives api(w.client(0));
  std::optional<std::vector<jxta::Advertisement>> peers;
  api.discover_peers([&](std::vector<jxta::Advertisement> advs) { peers = std::move(advs); });
  w.sim.run_until(w.sim.now() + 10.0);
  ASSERT_TRUE(peers.has_value());
  EXPECT_EQ(peers->size(), 3u);
  for (const auto& adv : *peers) {
    // Each advert carries its publisher's hostname and CPU speed.
    const auto& profile = w.network->topology().node(adv.home).profile();
    EXPECT_EQ(adv.name, profile.hostname);
    EXPECT_DOUBLE_EQ(adv.cpu_ghz, profile.cpu_ghz);
    EXPECT_GT(adv.cpu_ghz, 0.0);
  }
}

TEST(Primitives, ShareAndDiscoverContent) {
  OverlayWorld w;
  w.boot();
  Primitives alice(w.client(0));
  Primitives bob(w.client(1));
  alice.share_content("lecture-01.mp4", megabytes(700.0));
  std::optional<std::vector<jxta::Advertisement>> found;
  w.sim.schedule(1.0, [&] {
    bob.discover_content("lecture-01.mp4",
                         [&](std::vector<jxta::Advertisement> advs) { found = std::move(advs); });
  });
  w.sim.run_until(w.sim.now() + 10.0);
  ASSERT_TRUE(found.has_value());
  ASSERT_EQ(found->size(), 1u);
  EXPECT_EQ((*found)[0].home, w.client(0).node());
  EXPECT_EQ((*found)[0].size, megabytes(700.0));
}

TEST(Primitives, SelectPeersDelegatesToBrokerModel) {
  OverlayWorld w;
  w.boot();
  w.broker->set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
  Primitives api(w.client(0));
  core::SelectionContext ctx;
  ctx.purpose = core::SelectionContext::Purpose::kTaskExecution;
  ctx.work = 100.0;
  std::optional<std::vector<PeerId>> selected;
  api.select_peers(ctx, 1, [&](std::vector<PeerId> peers) { selected = std::move(peers); });
  w.sim.run_until(w.sim.now() + 10.0);
  ASSERT_TRUE(selected.has_value());
  ASSERT_EQ(selected->size(), 1u);
  // Economic + cpu tiebreak: the fastest idle peer (sc3, 1.2 GHz).
  EXPECT_EQ(selected->front(), PeerId(4));
}

TEST(Primitives, SendFileRoundTrip) {
  OverlayWorld w;
  w.boot();
  Primitives api(w.client(0));
  std::optional<transport::TransferResult> result;
  api.send_file(PeerId(3), megabytes(1.0), 4,
                [&](const transport::TransferResult& r) { result = r; });
  w.sim.run_until(w.sim.now() + 60.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->complete);
  EXPECT_EQ(result->parts.size(), 4u);
}

TEST(Primitives, SubmitTaskAutoSelectsAndRuns) {
  OverlayWorld w;
  w.boot();
  w.broker->set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
  Primitives api(w.client(0));
  std::optional<TaskOutcome> outcome;
  api.submit_task_auto(/*work=*/10.0, /*input_size=*/0,
                       [&](const TaskOutcome& o) { outcome = o; });
  w.sim.run_until(w.sim.now() + 120.0);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->accepted);
  EXPECT_TRUE(outcome->ok);
  EXPECT_NE(outcome->executor, w.client(0).id());  // never self
}

TEST(Primitives, SubmitTaskAutoFailsWhenNoPeerEligible) {
  WorldOptions opts;
  opts.clients = 1;  // only the submitter itself registers
  OverlayWorld w(opts);
  w.boot();
  Primitives api(w.client(0));
  std::optional<TaskOutcome> outcome;
  api.submit_task_auto(10.0, 0, [&](const TaskOutcome& o) { outcome = o; });
  w.sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->accepted);
}

TEST(Primitives, InstantMessaging) {
  OverlayWorld w;
  w.boot();
  Primitives alice(w.client(0));
  Primitives bob(w.client(1));
  std::optional<std::int64_t> heard;
  bob.on_message([&](PeerId, std::int64_t tag) { heard = tag; });
  std::optional<bool> sent;
  alice.send_message(bob.self(), 99, [&](bool ok, Seconds) { sent = ok; });
  w.sim.run_until(w.sim.now() + 10.0);
  EXPECT_TRUE(heard && *heard == 99);
  EXPECT_TRUE(sent && *sent);
}

}  // namespace
}  // namespace peerlab::overlay

#include "peerlab/overlay/broker.hpp"

#include <gtest/gtest.h>

#include "overlay_world.hpp"
#include "peerlab/core/economic.hpp"

namespace peerlab::overlay {
namespace {

using testing::OverlayWorld;
using testing::WorldOptions;

TEST(Broker, HeartbeatsRegisterClients) {
  OverlayWorld w;
  EXPECT_TRUE(w.broker->registered_clients().empty());
  w.boot();
  const auto registered = w.broker->registered_clients();
  ASSERT_EQ(registered.size(), 3u);
  EXPECT_EQ(registered[0], PeerId(2));
  EXPECT_EQ(registered[2], PeerId(4));
  for (const auto peer : registered) {
    EXPECT_TRUE(w.broker->online(peer));
    const auto* record = w.broker->client(peer);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->node, node_of(peer));
    EXPECT_TRUE(record->idle);
    EXPECT_EQ(record->backlog, 0);
  }
  EXPECT_GE(w.broker->heartbeats_received(), 3u);
}

TEST(Broker, SilentClientGoesOffline) {
  WorldOptions opts;
  opts.client_config.heartbeat_interval = 10.0;
  opts.broker_config.heartbeat_interval = 10.0;
  OverlayWorld w(opts);
  w.boot();
  EXPECT_TRUE(w.broker->online(PeerId(2)));
  w.client(0).stop();
  // 3.5 missed intervals of 10 s -> offline after ~36 s of silence.
  w.sim.run_until(w.sim.now() + 60.0);
  EXPECT_FALSE(w.broker->online(PeerId(2)));
  EXPECT_TRUE(w.broker->online(PeerId(3)));
}

TEST(Broker, RestartedClientComesBackOnline) {
  WorldOptions opts;
  opts.client_config.heartbeat_interval = 10.0;
  opts.broker_config.heartbeat_interval = 10.0;
  OverlayWorld w(opts);
  w.boot();
  w.client(0).stop();
  w.sim.run_until(100.0);
  EXPECT_FALSE(w.broker->online(PeerId(2)));
  w.client(0).start();
  w.sim.run_until(101.0);
  EXPECT_TRUE(w.broker->online(PeerId(2)));
}

TEST(Broker, SnapshotsCarryProfileAndDynamicState) {
  OverlayWorld w;
  w.boot();
  const auto& index = w.broker->candidate_index();
  ASSERT_EQ(index.snapshots().size(), 3u);
  const auto snapshot = index.snapshot(PeerId(2), w.sim.now());
  ASSERT_TRUE(snapshot.has_value());
  const auto& first = *snapshot;
  EXPECT_EQ(first.peer, PeerId(2));
  EXPECT_DOUBLE_EQ(first.cpu_ghz, 1.0);
  EXPECT_TRUE(first.online);
  EXPECT_TRUE(first.idle);
  EXPECT_EQ(first.history, &w.broker->history());
  ASSERT_NE(first.statistics, nullptr);  // heartbeat reports queue samples
}

TEST(Broker, AppliedStatsFlowIntoSnapshots) {
  OverlayWorld w;
  w.boot();
  StatsDelta delta;
  delta.subject = PeerId(2);
  delta.msg_ok = 3;
  delta.msg_fail = 1;
  delta.file_done = 2;
  w.broker->apply_stats(delta);
  const auto& stats = w.broker->statistics_for(PeerId(2));
  EXPECT_DOUBLE_EQ(stats.value(stats::Criterion::kMsgSuccessTotal, w.sim.now()), 75.0);
  EXPECT_DOUBLE_EQ(stats.value(stats::Criterion::kFileSentTotal, w.sim.now()), 100.0);
}

TEST(Broker, StatsReportsTravelOverTheWire) {
  OverlayWorld w;
  w.boot();
  StatsDelta delta;
  delta.subject = PeerId(3);
  delta.msg_ok = 1;
  delta.response_times.push_back(0.25);
  w.client(0).report(delta);
  w.sim.run_until(w.sim.now() + 5.0);
  EXPECT_GT(w.broker->reports_applied(), 0u);
  ASSERT_TRUE(w.broker->history().mean_response_time(PeerId(3)).has_value());
  EXPECT_DOUBLE_EQ(*w.broker->history().mean_response_time(PeerId(3)), 0.25);
}

TEST(Broker, DefaultModelIsBlind) {
  OverlayWorld w;
  EXPECT_EQ(w.broker->selection_model().name(), "blind");
}

TEST(Broker, SelectionModelIsPluggable) {
  OverlayWorld w;
  w.boot();
  w.broker->set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
  EXPECT_EQ(w.broker->selection_model().name(), "economic");
  core::SelectionContext ctx;
  ctx.now = w.sim.now();
  EXPECT_EQ(w.broker->select_peers(ctx, 1).size(), 1u);
}

TEST(Broker, LocalSelectKReturnsDistinctPeers) {
  OverlayWorld w;
  w.boot();
  core::SelectionContext ctx;
  const auto two = w.broker->select_peers(ctx, 2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_NE(two[0], two[1]);
  const auto all = w.broker->select_peers(ctx, 99);
  EXPECT_EQ(all.size(), 3u);
}

TEST(Broker, WireSelectionReachesClients) {
  OverlayWorld w;
  w.boot();
  std::optional<std::vector<PeerId>> result;
  core::SelectionContext ctx;
  ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
  ctx.payload_size = megabytes(10.0);
  w.client(0).request_selection(ctx, 2, [&](std::vector<PeerId> peers) {
    result = std::move(peers);
  });
  w.sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->size(), 2u);
  EXPECT_EQ(w.broker->selections_served(), 1u);
}

TEST(Broker, WireSelectionFailsCleanlyWithoutBroker) {
  OverlayWorld w;
  w.boot();
  w.broker.reset();
  std::optional<std::vector<PeerId>> result;
  core::SelectionContext ctx;
  w.client(0).request_selection(ctx, 1, [&](std::vector<PeerId> peers) {
    result = std::move(peers);
  });
  w.sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->empty());
}

TEST(Broker, BusyClientIsReportedBusyViaHeartbeat) {
  WorldOptions opts;
  opts.client_config.heartbeat_interval = 5.0;
  OverlayWorld w(opts);
  w.boot();
  // Occupy client 0's executor with a long task.
  tasks::Task t;
  t.id = TaskId(999);
  t.owner = PeerId(2);
  t.work = 1000.0;  // ~1000 s at 1 GHz
  w.client(0).executor().submit(t, [](const tasks::ExecutionReport&) {});
  w.sim.run_until(w.sim.now() + 12.0);  // two heartbeats later
  const auto* record = w.broker->client(PeerId(2));
  ASSERT_NE(record, nullptr);
  EXPECT_FALSE(record->idle);
  EXPECT_EQ(record->backlog, 1);
}

TEST(Broker, BeginSessionResetsSessionScopedStats) {
  OverlayWorld w;
  w.boot();
  StatsDelta bad;
  bad.subject = PeerId(2);
  bad.msg_fail = 4;
  w.broker->apply_stats(bad);
  w.broker->begin_session();
  const auto& s = w.broker->statistics_for(PeerId(2));
  EXPECT_DOUBLE_EQ(s.value(stats::Criterion::kMsgSuccessSession, w.sim.now()), 100.0);
  EXPECT_DOUBLE_EQ(s.value(stats::Criterion::kMsgSuccessTotal, w.sim.now()), 0.0);
}

TEST(Broker, HostsRendezvousAndGroupRegistry) {
  OverlayWorld w;
  w.boot();
  // Client adverts reached the broker's rendezvous via heartbeats.
  jxta::AdvertisementQuery q;
  q.kind = jxta::AdvertisementKind::kPeer;
  EXPECT_EQ(w.broker->rendezvous().query(q).size(), 3u);
  // Group registry serves joins.
  const GroupId g = w.broker->groups().create("campus", w.broker->id());
  std::optional<bool> joined;
  w.client(1).membership().join(g, [&](bool ok, GroupId) { joined = ok; });
  w.sim.run_until(w.sim.now() + 5.0);
  ASSERT_TRUE(joined.has_value());
  EXPECT_TRUE(*joined);
  EXPECT_TRUE(w.broker->groups().is_member(g, PeerId(3)));
}

}  // namespace
}  // namespace peerlab::overlay

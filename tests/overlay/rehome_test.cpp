// Broker failover: a client re-homes to a surviving broker and keeps
// working (registration, discovery, selection, groups).

#include <gtest/gtest.h>

#include <optional>

#include "peerlab/common/check.hpp"
#include "peerlab/planetlab/deployment.hpp"

namespace peerlab::overlay {
namespace {

TEST(Rehome, ClientRegistersAtTheNewBroker) {
  sim::Simulator sim(1);
  planetlab::DeploymentOptions opts;
  opts.brokers = 2;
  planetlab::Deployment dep(sim, opts);
  dep.boot();
  auto& sc1 = dep.sc(1);
  const NodeId old_broker = sc1.broker_node();
  const NodeId new_broker =
      old_broker == dep.broker_at(0).node() ? dep.broker_at(1).node() : dep.broker_at(0).node();
  auto& target = old_broker == dep.broker_at(0).node() ? dep.broker_at(1) : dep.broker_at(0);

  sc1.rehome(new_broker);
  sim.run_until(sim.now() + 5.0);
  EXPECT_EQ(sc1.broker_node(), new_broker);
  EXPECT_TRUE(target.online(sc1.id()));
}

TEST(Rehome, SelectionAndDiscoveryFollowTheNewBroker) {
  sim::Simulator sim(2);
  planetlab::DeploymentOptions opts;
  opts.brokers = 2;
  planetlab::Deployment dep(sim, opts);
  dep.boot();

  auto& sc1 = dep.sc(1);  // homed at broker 0
  ASSERT_EQ(sc1.broker_node(), dep.broker_at(0).node());
  sc1.rehome(dep.broker_at(1).node());
  sim.run_until(sim.now() + 5.0);

  // Selection requests now hit broker 1 (whose group includes SC1).
  const auto before = dep.broker_at(1).selections_served();
  std::optional<std::vector<PeerId>> selected;
  core::SelectionContext ctx;
  sc1.request_selection(ctx, 2, [&](std::vector<PeerId> peers) { selected = std::move(peers); });
  // Generous window: the request channel retries after 45 s if the
  // rare background datagram loss eats the first attempt.
  sim.run_until(sim.now() + 120.0);
  ASSERT_TRUE(selected.has_value());
  EXPECT_FALSE(selected->empty());
  EXPECT_EQ(dep.broker_at(1).selections_served(), before + 1);

  // Adverts publish to the new rendezvous.
  Primitives api(sc1);
  api.share_content("after-failover.txt", kilobytes(1.0));
  sim.run_until(sim.now() + 5.0);
  jxta::AdvertisementQuery q;
  q.kind = jxta::AdvertisementKind::kContent;
  q.name = "after-failover.txt";
  EXPECT_EQ(dep.broker_at(1).rendezvous().query(q).size(), 1u);
  EXPECT_TRUE(dep.broker_at(0).rendezvous().query(q).empty());
}

TEST(Rehome, SurvivesBrokerDeathMidRun) {
  sim::Simulator sim(3);
  planetlab::DeploymentOptions opts;
  opts.brokers = 2;
  opts.client.heartbeat_interval = 10.0;
  planetlab::Deployment dep(sim, opts);
  dep.boot();

  // Kill broker 0's software; its clients re-home to broker 1.
  const NodeId survivor = dep.broker_at(1).node();
  std::vector<int> orphans;
  for (int i = 1; i <= 8; ++i) {
    if (dep.sc(i).broker_node() == dep.broker_at(0).node()) orphans.push_back(i);
  }
  ASSERT_FALSE(orphans.empty());
  for (const int i : orphans) {
    dep.sc(i).rehome(survivor);
  }
  sim.run_until(sim.now() + 15.0);
  for (const int i : orphans) {
    EXPECT_TRUE(dep.broker_at(1).online(dep.sc_peer(i))) << "SC" << i;
  }
  // The surviving broker can now select among everyone.
  core::SelectionContext ctx;
  EXPECT_EQ(dep.broker_at(1).select_peers(ctx, 99).size(), 8u);
}

TEST(Rehome, Validation) {
  sim::Simulator sim(4);
  planetlab::Deployment dep(sim);
  EXPECT_THROW(dep.sc(1).rehome(NodeId{}), InvariantError);
  EXPECT_THROW(dep.sc(1).rehome(dep.sc(1).node()), InvariantError);
}

}  // namespace
}  // namespace peerlab::overlay

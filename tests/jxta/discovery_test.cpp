#include "peerlab/jxta/discovery.hpp"

#include <gtest/gtest.h>

#include <optional>

namespace peerlab::jxta {
namespace {

// Two-node world: node 1 = broker (hosts the rendezvous), node 2 = edge.
struct World {
  explicit World(double datagram_loss = 0.0, std::uint64_t seed = 1,
                 double datagram_duplication = 0.0)
      : sim(seed) {
    net::Topology topo(sim.rng().fork(1));
    for (const char* name : {"broker", "edge"}) {
      net::NodeProfile p;
      p.hostname = name;
      p.control_delay_mean = 0.02;
      p.control_delay_sigma = 0.0;
      p.loss_per_megabyte = 0.0;
      topo.add_node(p);
    }
    net::NetworkConfig cfg;
    cfg.datagram_loss = datagram_loss;
    cfg.datagram_duplication = datagram_duplication;
    network.emplace(sim, std::move(topo), cfg);
    fabric.emplace(*network);
    rendezvous.emplace(sim);
    directory.enroll(NodeId(1), *rendezvous);
    broker_discovery.emplace(fabric->attach(NodeId(1)), directory, PeerId(1), NodeId(1));
    broker_discovery->serve_rendezvous_queries();
    edge_discovery.emplace(fabric->attach(NodeId(2)), directory, PeerId(2), NodeId(1));
  }

  sim::Simulator sim;
  std::optional<net::Network> network;
  std::optional<transport::TransportFabric> fabric;
  std::optional<RendezvousIndex> rendezvous;
  RendezvousDirectory directory;
  std::optional<DiscoveryService> broker_discovery;
  std::optional<DiscoveryService> edge_discovery;
};

Advertisement peer_adv(const std::string& name) {
  Advertisement adv;
  adv.kind = AdvertisementKind::kPeer;
  adv.name = name;
  adv.home = NodeId(2);
  adv.cpu_ghz = 2.4;
  return adv;
}

TEST(Discovery, PublishReachesRendezvousAfterControlDelay) {
  World w;
  w.edge_discovery->publish(peer_adv("edge-peer"), 600.0);
  EXPECT_EQ(w.rendezvous->size(), 0u);  // not yet: datagram in flight
  w.sim.run();
  EXPECT_EQ(w.rendezvous->size(), 1u);
}

TEST(Discovery, DuplicatedPublishLeavesOneIntactAdvert) {
  // The publish datagram is duplicated (the network caps the knob
  // below 1; the count below pins that it fired), so its arrival runs
  // twice and both runs must read the advert intact from the capture.
  World w(/*datagram_loss=*/0.0, /*seed=*/1, /*datagram_duplication=*/0.999);
  w.edge_discovery->publish(peer_adv("edge-peer"), 600.0);
  w.sim.run();
  EXPECT_EQ(w.network->datagrams_duplicated(), 1u);
  ASSERT_EQ(w.rendezvous->size(), 1u);
  AdvertisementQuery q;
  q.kind = AdvertisementKind::kPeer;
  const auto held = w.rendezvous->query(q);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].name, "edge-peer");
  EXPECT_EQ(held[0].publisher, PeerId(2));
  EXPECT_EQ(held[0].home, NodeId(2));
  EXPECT_DOUBLE_EQ(held[0].cpu_ghz, 2.4);
  EXPECT_DOUBLE_EQ(held[0].expires_at, 600.0);
}

TEST(Discovery, RemoteQueryFindsPublishedAdvert) {
  World w;
  w.edge_discovery->publish(peer_adv("edge-peer"), 600.0);
  std::optional<std::vector<Advertisement>> results;
  w.sim.schedule(1.0, [&] {
    AdvertisementQuery q;
    q.kind = AdvertisementKind::kPeer;
    q.name = "edge-peer";
    w.edge_discovery->query_remote(q, [&](std::vector<Advertisement> advs) {
      results = std::move(advs);
    });
  });
  w.sim.run();
  ASSERT_TRUE(results.has_value());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].name, "edge-peer");
  EXPECT_EQ((*results)[0].home, NodeId(2));
  EXPECT_DOUBLE_EQ((*results)[0].cpu_ghz, 2.4);
}

TEST(Discovery, RemoteQueryEmptyWhenNothingMatches) {
  World w;
  std::optional<std::vector<Advertisement>> results;
  AdvertisementQuery q;
  q.kind = AdvertisementKind::kContent;
  w.edge_discovery->query_remote(q, [&](std::vector<Advertisement> advs) {
    results = std::move(advs);
  });
  w.sim.run();
  ASSERT_TRUE(results.has_value());
  EXPECT_TRUE(results->empty());
}

TEST(Discovery, RemoteQuerySurvivesDatagramLoss) {
  World w(/*datagram_loss=*/0.3, /*seed=*/17);
  w.edge_discovery->publish(peer_adv("edge-peer"), 6000.0);
  int found = 0, attempts = 0;
  constexpr int kQueries = 20;
  for (int i = 0; i < kQueries; ++i) {
    w.sim.schedule(5.0 + i * 40.0, [&] {
      AdvertisementQuery q;
      q.kind = AdvertisementKind::kPeer;
      w.edge_discovery->query_remote(q, [&](std::vector<Advertisement> advs) {
        ++attempts;
        if (!advs.empty()) ++found;
      });
    });
  }
  w.sim.run();
  EXPECT_EQ(attempts, kQueries);
  // 3 attempts at 30% loss: the vast majority must succeed. (The
  // publish itself is also lossy, hence the generous bound.)
  EXPECT_GE(found, kQueries * 3 / 4);
}

TEST(Discovery, QueryToDeadRendezvousFailsCleanly) {
  World w;
  w.directory.withdraw(NodeId(1));
  w.broker_discovery.reset();  // rendezvous software gone
  std::optional<std::vector<Advertisement>> results;
  AdvertisementQuery q;
  w.edge_discovery->query_remote(q, [&](std::vector<Advertisement> advs) {
    results = std::move(advs);
  });
  w.sim.run();
  ASSERT_TRUE(results.has_value());
  EXPECT_TRUE(results->empty());
}

TEST(Discovery, ExpiredAdvertNeverReachesRendezvous) {
  World w;
  // Lifetime shorter than the control-plane delay: arrives dead.
  w.edge_discovery->publish(peer_adv("mayfly"), 0.001);
  w.sim.run();
  EXPECT_EQ(w.rendezvous->size(), 0u);
}

TEST(Discovery, SetRendezvousRedirectsQueries) {
  World w;
  // Stand up a second rendezvous on node 2 and re-point the broker's
  // own discovery service at it.
  RendezvousIndex second(w.sim);
  w.directory.enroll(NodeId(2), second);
  DiscoveryService edge_rdv(w.fabric->endpoint(NodeId(2)), w.directory, PeerId(2), NodeId(2));
  // Note: edge_rdv takes over the edge endpoint's discovery handlers.
  edge_rdv.serve_rendezvous_queries();

  Advertisement adv;
  adv.kind = AdvertisementKind::kContent;
  adv.name = "syllabus.pdf";
  adv.publisher = PeerId(9);
  adv.expires_at = w.sim.now() + 100.0;
  second.publish(adv);

  w.broker_discovery->set_rendezvous(NodeId(2));
  EXPECT_EQ(w.broker_discovery->rendezvous(), NodeId(2));
  std::optional<std::vector<Advertisement>> results;
  AdvertisementQuery q;
  q.kind = AdvertisementKind::kContent;
  w.broker_discovery->query_remote(q, [&](std::vector<Advertisement> advs) {
    results = std::move(advs);
  });
  w.sim.run();
  ASSERT_TRUE(results.has_value());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].name, "syllabus.pdf");
}

TEST(RendezvousDirectoryStore, ParkAndClaimRoundTrip) {
  RendezvousDirectory dir;
  std::vector<Advertisement> payload(3);
  payload[0].name = "x";
  const auto ticket = dir.results.park(payload);
  const auto claimed = dir.results.claim(ticket);
  ASSERT_EQ(claimed.size(), 3u);
  EXPECT_EQ(claimed[0].name, "x");
  EXPECT_TRUE(dir.results.claim(ticket).empty());  // single-shot
}

TEST(RendezvousDirectoryStore, QueriesArePeekedNotClaimed) {
  RendezvousDirectory dir;
  AdvertisementQuery q;
  q.name = "needle";
  const auto ticket = dir.queries.park(q);
  ASSERT_NE(dir.queries.peek(ticket), nullptr);
  EXPECT_EQ(dir.queries.peek(ticket)->name, "needle");
  ASSERT_NE(dir.queries.peek(ticket), nullptr);  // still there
  dir.queries.release(ticket);
  EXPECT_EQ(dir.queries.peek(ticket), nullptr);
}

}  // namespace
}  // namespace peerlab::jxta

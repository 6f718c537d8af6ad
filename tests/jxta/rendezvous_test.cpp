#include "peerlab/jxta/rendezvous.hpp"

#include <gtest/gtest.h>

#include "peerlab/common/check.hpp"

namespace peerlab::jxta {
namespace {

Advertisement peer_adv(PeerId publisher, const std::string& name, Seconds expires) {
  Advertisement adv;
  adv.kind = AdvertisementKind::kPeer;
  adv.publisher = publisher;
  adv.name = name;
  adv.expires_at = expires;
  return adv;
}

TEST(Rendezvous, PublishAssignsIdsAndCounts) {
  sim::Simulator sim(1);
  RendezvousIndex index(sim);
  const auto id1 = index.publish(peer_adv(PeerId(1), "a", 100.0));
  const auto id2 = index.publish(peer_adv(PeerId(2), "b", 100.0));
  EXPECT_TRUE(id1.valid());
  EXPECT_NE(id1, id2);
  EXPECT_EQ(index.size(), 2u);
}

TEST(Rendezvous, RepublishReplacesSameEdition) {
  sim::Simulator sim(1);
  RendezvousIndex index(sim);
  index.publish(peer_adv(PeerId(1), "a", 100.0));
  index.publish(peer_adv(PeerId(1), "a", 200.0));
  EXPECT_EQ(index.size(), 1u);
  AdvertisementQuery q;
  q.kind = AdvertisementKind::kPeer;
  const auto results = index.query(q);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_DOUBLE_EQ(results[0].expires_at, 200.0);
}

TEST(Rendezvous, DistinctPublishersDoNotCollide) {
  sim::Simulator sim(1);
  RendezvousIndex index(sim);
  index.publish(peer_adv(PeerId(1), "same-name", 100.0));
  index.publish(peer_adv(PeerId(2), "same-name", 100.0));
  EXPECT_EQ(index.size(), 2u);
}

TEST(Rendezvous, QueryFiltersExpired) {
  sim::Simulator sim(1);
  RendezvousIndex index(sim);
  index.publish(peer_adv(PeerId(1), "short", 5.0));
  index.publish(peer_adv(PeerId(2), "long", 500.0));
  sim.schedule(10.0, [] {});
  sim.run();
  AdvertisementQuery q;
  q.kind = AdvertisementKind::kPeer;
  const auto results = index.query(q);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].name, "long");
  EXPECT_EQ(index.size(), 2u);  // lazy: stored until republished
}

TEST(Rendezvous, KindsDoNotCollide) {
  sim::Simulator sim(1);
  RendezvousIndex index(sim);
  index.publish(peer_adv(PeerId(1), "same-name", 100.0));
  auto content = peer_adv(PeerId(1), "same-name", 100.0);
  content.kind = AdvertisementKind::kContent;
  content.size = 4096;
  index.publish(content);
  EXPECT_EQ(index.size(), 2u);
  AdvertisementQuery q;
  q.kind = AdvertisementKind::kContent;
  const auto results = index.query(q);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].size, 4096);
}

TEST(Rendezvous, QueryResultsAreSortedById) {
  sim::Simulator sim(1);
  RendezvousIndex index(sim);
  for (int i = 0; i < 10; ++i) {
    index.publish(peer_adv(PeerId(static_cast<std::uint64_t>(i + 1)),
                           "peer" + std::to_string(i), 100.0));
  }
  AdvertisementQuery q;
  q.kind = AdvertisementKind::kPeer;
  const auto results = index.query(q);
  ASSERT_EQ(results.size(), 10u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_LT(results[i - 1].id, results[i].id);
  }
}

TEST(Rendezvous, RejectsInvalidPublishes) {
  sim::Simulator sim(1);
  RendezvousIndex index(sim);
  Advertisement anon = peer_adv(PeerId{}, "x", 100.0);
  EXPECT_THROW(index.publish(anon), InvariantError);
  Advertisement stale = peer_adv(PeerId(1), "x", 0.0);
  EXPECT_THROW(index.publish(stale), InvariantError);
}

}  // namespace
}  // namespace peerlab::jxta

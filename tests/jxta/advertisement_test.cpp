#include "peerlab/jxta/advertisement.hpp"

#include <gtest/gtest.h>

namespace peerlab::jxta {
namespace {

Advertisement sample_adv() {
  Advertisement adv;
  adv.id = AdvertisementId(1);
  adv.kind = AdvertisementKind::kPeer;
  adv.publisher = PeerId(5);
  adv.home = NodeId(3);
  adv.name = "planetlab1.example";
  adv.cpu_ghz = 1.2;
  adv.published_at = 10.0;
  adv.expires_at = 110.0;
  return adv;
}

TEST(Advertisement, KindNames) {
  EXPECT_STREQ(to_string(AdvertisementKind::kPeer), "peer");
  EXPECT_STREQ(to_string(AdvertisementKind::kContent), "content");
}

TEST(Advertisement, ExpiryBoundary) {
  const auto adv = sample_adv();
  EXPECT_FALSE(adv.expired(10.0));
  EXPECT_FALSE(adv.expired(109.999));
  EXPECT_TRUE(adv.expired(110.0));
  EXPECT_TRUE(adv.expired(200.0));
}

TEST(AdvertisementQuery, MatchesByKindAndLiveness) {
  const auto adv = sample_adv();
  AdvertisementQuery q;
  q.kind = AdvertisementKind::kPeer;
  EXPECT_TRUE(q.matches(adv, 50.0));
  EXPECT_FALSE(q.matches(adv, 110.0));  // expired
  q.kind = AdvertisementKind::kContent;
  EXPECT_FALSE(q.matches(adv, 50.0));  // wrong kind
}

TEST(AdvertisementQuery, EmptyNameMatchesAnyName) {
  const auto adv = sample_adv();
  AdvertisementQuery q;
  q.kind = AdvertisementKind::kPeer;
  q.name.clear();
  EXPECT_TRUE(q.matches(adv, 50.0));
  q.name = "planetlab1.example";
  EXPECT_TRUE(q.matches(adv, 50.0));
  q.name = "other.example";
  EXPECT_FALSE(q.matches(adv, 50.0));
}

}  // namespace
}  // namespace peerlab::jxta

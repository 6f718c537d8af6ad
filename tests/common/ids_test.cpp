#include "peerlab/common/ids.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

namespace peerlab {
namespace {

TEST(Ids, DefaultConstructedIsInvalid) {
  PeerId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.value(), 0u);
}

TEST(Ids, ExplicitValueRoundTrips) {
  NodeId id(42);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(Ids, EqualityAndOrdering) {
  TaskId a(1), b(2), c(1);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_LE(a, c);
  EXPECT_GT(b, a);
  EXPECT_GE(c, a);
}

TEST(Ids, AllocatorMintsSequentialIds) {
  IdAllocator<TaskId> alloc;
  EXPECT_EQ(alloc.next().value(), 1u);
  EXPECT_EQ(alloc.next().value(), 2u);
  EXPECT_EQ(alloc.next().value(), 3u);
  EXPECT_EQ(alloc.allocated(), 3u);
}

TEST(Ids, AllocatorIsDeterministicAcrossInstances) {
  IdAllocator<FlowId> a, b;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Ids, HashWorksAsMapKey) {
  std::unordered_set<PeerId> set;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    set.insert(PeerId(v));
  }
  EXPECT_EQ(set.size(), 1000u);
  EXPECT_TRUE(set.contains(PeerId(500)));
  EXPECT_FALSE(set.contains(PeerId(1001)));
}

TEST(Ids, ToStringUsesFamilyPrefix) {
  EXPECT_EQ(to_string(NodeId(7)), "node#7");
  EXPECT_EQ(to_string(PeerId(7)), "peer#7");
  EXPECT_EQ(to_string(MessageId(3)), "msg#3");
  EXPECT_EQ(to_string(TaskId(4)), "task#4");
  EXPECT_EQ(to_string(TransferId(5)), "xfer#5");
  EXPECT_EQ(to_string(FlowId(6)), "flow#6");
  EXPECT_EQ(to_string(AdvertisementId(8)), "adv#8");
}

TEST(Ids, DistinctFamiliesAreDistinctTypes) {
  static_assert(!std::is_same_v<NodeId, PeerId>);
  static_assert(!std::is_same_v<TaskId, TransferId>);
  SUCCEED();
}

}  // namespace
}  // namespace peerlab

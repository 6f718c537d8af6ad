#include "peerlab/transport/message.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>

namespace peerlab::transport {
namespace {

const MessageType kAllTypes[] = {
    MessageType::kTransferPetition,  MessageType::kTransferPetitionAck,
    MessageType::kPartConfirm,       MessageType::kConfirmQuery,
    MessageType::kTaskOffer,         MessageType::kTaskAccept,
    MessageType::kTaskReject,        MessageType::kTaskResult,
    MessageType::kTaskResultAck,     MessageType::kHeartbeat,
    MessageType::kStatsReport,       MessageType::kDiscoveryQuery,
    MessageType::kDiscoveryResponse, MessageType::kChat,
    MessageType::kChatAck,           MessageType::kSelectRequest,
    MessageType::kSelectResponse,    MessageType::kReplicaDelta,
    MessageType::kReplicaDeltaAck,   MessageType::kReplicaHeartbeat,
    MessageType::kReplicaSnapshot,   MessageType::kReplicaJoin,
};

TEST(MessageType, NamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (const auto t : kAllTypes) {
    const std::string name = to_string(t);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
}

TEST(MessageType, WireCodesArePinned) {
  // Trace dumps record a message's type as this number, so a code may
  // never move; retired codes (13-15, 18-20) are never reused.
  const auto code = [](MessageType t) { return static_cast<int>(t); };
  EXPECT_EQ(code(MessageType::kTransferPetition), 0);
  EXPECT_EQ(code(MessageType::kTransferPetitionAck), 1);
  EXPECT_EQ(code(MessageType::kPartConfirm), 2);
  EXPECT_EQ(code(MessageType::kConfirmQuery), 3);
  EXPECT_EQ(code(MessageType::kTaskOffer), 4);
  EXPECT_EQ(code(MessageType::kTaskAccept), 5);
  EXPECT_EQ(code(MessageType::kTaskReject), 6);
  EXPECT_EQ(code(MessageType::kTaskResult), 7);
  EXPECT_EQ(code(MessageType::kTaskResultAck), 8);
  EXPECT_EQ(code(MessageType::kHeartbeat), 9);
  EXPECT_EQ(code(MessageType::kStatsReport), 10);
  EXPECT_EQ(code(MessageType::kDiscoveryQuery), 11);
  EXPECT_EQ(code(MessageType::kDiscoveryResponse), 12);
  EXPECT_EQ(code(MessageType::kChat), 16);
  EXPECT_EQ(code(MessageType::kChatAck), 17);
  EXPECT_EQ(code(MessageType::kSelectRequest), 21);
  EXPECT_EQ(code(MessageType::kSelectResponse), 22);
  EXPECT_EQ(code(MessageType::kReplicaDelta), 23);
  EXPECT_EQ(code(MessageType::kReplicaDeltaAck), 24);
  EXPECT_EQ(code(MessageType::kReplicaHeartbeat), 25);
  EXPECT_EQ(code(MessageType::kReplicaSnapshot), 26);
  EXPECT_EQ(code(MessageType::kReplicaJoin), 27);
  EXPECT_EQ(std::size(kAllTypes), 22u);
}

TEST(MessageType, NominalSizesAreControlScale) {
  for (const auto t : kAllTypes) {
    const Bytes size = nominal_size(t);
    EXPECT_GT(size, 0);
    EXPECT_LE(size, 64 * kKilobyte) << to_string(t) << " must stay degradation-exempt";
  }
}

TEST(MessageType, PetitionCarriesAdvertisementPayload) {
  EXPECT_GT(nominal_size(MessageType::kTransferPetition),
            nominal_size(MessageType::kPartConfirm));
}

TEST(Message, DefaultsAreInert) {
  Message m;
  EXPECT_FALSE(m.id.valid());
  EXPECT_FALSE(m.src.valid());
  EXPECT_EQ(m.correlation, 0u);
  EXPECT_EQ(m.seq, 0u);
  EXPECT_EQ(m.arg, 0);
}

}  // namespace
}  // namespace peerlab::transport

#include "peerlab/transport/message.hpp"

namespace peerlab::transport {

const char* to_string(MessageType type) noexcept {
  switch (type) {
    case MessageType::kTransferPetition: return "transfer-petition";
    case MessageType::kTransferPetitionAck: return "transfer-petition-ack";
    case MessageType::kPartConfirm: return "part-confirm";
    case MessageType::kConfirmQuery: return "confirm-query";
    case MessageType::kTaskOffer: return "task-offer";
    case MessageType::kTaskAccept: return "task-accept";
    case MessageType::kTaskReject: return "task-reject";
    case MessageType::kTaskResult: return "task-result";
    case MessageType::kTaskResultAck: return "task-result-ack";
    case MessageType::kHeartbeat: return "heartbeat";
    case MessageType::kStatsReport: return "stats-report";
    case MessageType::kDiscoveryQuery: return "discovery-query";
    case MessageType::kDiscoveryResponse: return "discovery-response";
    case MessageType::kChat: return "chat";
    case MessageType::kChatAck: return "chat-ack";
    case MessageType::kSelectRequest: return "select-request";
    case MessageType::kSelectResponse: return "select-response";
    case MessageType::kReplicaDelta: return "replica-delta";
    case MessageType::kReplicaDeltaAck: return "replica-delta-ack";
    case MessageType::kReplicaHeartbeat: return "replica-heartbeat";
    case MessageType::kReplicaSnapshot: return "replica-snapshot";
    case MessageType::kReplicaJoin: return "replica-join";
  }
  return "?";
}

Bytes nominal_size(MessageType type) noexcept {
  switch (type) {
    case MessageType::kTransferPetition:
    case MessageType::kTaskOffer:
      return 2 * kKilobyte;  // XML advertisement payloads in JXTA
    case MessageType::kStatsReport:
      return 4 * kKilobyte;
    case MessageType::kDiscoveryQuery:
    case MessageType::kDiscoveryResponse:
      return 3 * kKilobyte;
    case MessageType::kChat:
      return 1 * kKilobyte;
    case MessageType::kTaskResult:
      return 8 * kKilobyte;
    case MessageType::kReplicaDelta:
      return 4 * kKilobyte;  // mirrors the stats report it carries
    case MessageType::kReplicaSnapshot:
      return 64 * kKilobyte;  // full history + statistics dump
    default:
      return 512;
  }
}

}  // namespace peerlab::transport

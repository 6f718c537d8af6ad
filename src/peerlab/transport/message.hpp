#pragma once

// Control-plane message vocabulary of the overlay transport.
//
// Bulk data (file parts) moves on the data plane (net::Network bulk
// messages); everything here is small advisory traffic. A Message is
// deliberately payload-free: simulated endpoints carry protocol state
// in their services, and messages only need routing plus correlation
// fields (which session, which sequence number, which part).

#include <cstdint>
#include <string>

#include "peerlab/common/ids.hpp"
#include "peerlab/common/units.hpp"
#include "peerlab/obs/trace_context.hpp"

namespace peerlab::transport {

/// Explicit values: trace dumps record the type as this number
/// (kMsgSend/kMsgDeliver), so a code never moves once assigned. The
/// gaps (13-15, 18-20) are retired peergroup and pipe codes.
enum class MessageType : std::uint8_t {
  // File transfer protocol (Section 4.2 of the paper).
  kTransferPetition = 0,     // "may I send you a file part?"
  kTransferPetitionAck = 1,  // "yes, ready to receive"
  kPartConfirm = 2,          // "part received correctly, send the next"
  kConfirmQuery = 3,         // sender lost the confirm; asks again
  // Task management protocol.
  kTaskOffer = 4,
  kTaskAccept = 5,
  kTaskReject = 6,
  kTaskResult = 7,
  kTaskResultAck = 8,
  // Overlay housekeeping.
  kHeartbeat = 9,
  kStatsReport = 10,
  kDiscoveryQuery = 11,
  kDiscoveryResponse = 12,
  // Instant messaging primitive.
  kChat = 16,
  kChatAck = 17,
  // Broker-mediated peer selection.
  kSelectRequest = 21,
  kSelectResponse = 22,
  // Broker replication (primary -> standby state streaming).
  kReplicaDelta = 23,      // one sequence-numbered StatsDelta, via ticket
  kReplicaDeltaAck = 24,   // standby's cumulative applied sequence
  kReplicaHeartbeat = 25,  // primary liveness + current stream sequence
  kReplicaSnapshot = 26,   // anti-entropy full-state snapshot, via ticket
  kReplicaJoin = 27,       // (re)joining standby asks for a snapshot now
};

[[nodiscard]] const char* to_string(MessageType type) noexcept;

/// Nominal wire sizes for control messages (affects only loss odds and
/// the tiny serialization term; all are degradation-exempt).
[[nodiscard]] Bytes nominal_size(MessageType type) noexcept;

struct Message {
  MessageId id;
  NodeId src;
  NodeId dst;
  MessageType type = MessageType::kHeartbeat;
  Bytes size = 0;
  /// Protocol session this message belongs to (transfer id, task id...).
  std::uint64_t correlation = 0;
  /// Request/response matching sequence, stamped by ReliableChannel.
  std::uint64_t seq = 0;
  /// Free slot for small protocol arguments (part index, status code).
  std::int64_t arg = 0;
  /// Causal-tracing header (DESIGN.md §16). All-zero (inactive) unless
  /// the sender runs under an obs::trace chain; Endpoint::reply echoes
  /// it so responses stay on the requester's chain.
  obs::trace::TraceContext trace;
};

}  // namespace peerlab::transport

#pragma once

// Strongly typed identifiers used across peerlab.
//
// Every subsystem names its entities with a distinct Id type so that a
// NodeId can never be passed where a PeerId is expected. Ids are cheap
// value types (a 64-bit integer) with hashing and ordering, suitable as
// map keys. Fresh ids are minted from an IdAllocator owned by whoever
// creates the entity (typically the Simulator world), which keeps id
// generation deterministic across runs.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

namespace peerlab {

/// Generic strongly typed id. `Tag` is an empty struct that only serves
/// to make different id families distinct types.
template <typename Tag>
class Id {
 public:
  /// Constructs the invalid id (value 0). Valid ids start at 1.
  constexpr Id() noexcept = default;
  constexpr explicit Id(std::uint64_t value) noexcept : value_(value) {}

  [[nodiscard]] constexpr std::uint64_t value() const noexcept { return value_; }
  [[nodiscard]] constexpr bool valid() const noexcept { return value_ != 0; }

  friend constexpr bool operator==(Id a, Id b) noexcept { return a.value_ == b.value_; }
  friend constexpr bool operator!=(Id a, Id b) noexcept { return a.value_ != b.value_; }
  friend constexpr bool operator<(Id a, Id b) noexcept { return a.value_ < b.value_; }
  friend constexpr bool operator<=(Id a, Id b) noexcept { return a.value_ <= b.value_; }
  friend constexpr bool operator>(Id a, Id b) noexcept { return a.value_ > b.value_; }
  friend constexpr bool operator>=(Id a, Id b) noexcept { return a.value_ >= b.value_; }

 private:
  std::uint64_t value_ = 0;
};

struct NodeTag {};
struct PeerTag {};
struct MessageTag {};
struct TaskTag {};
struct TransferTag {};
struct FlowTag {};
struct AdvertisementTag {};

/// A physical (simulated) machine in the network substrate.
using NodeId = Id<NodeTag>;
/// A logical JXTA peer (broker or client) living on a node.
using PeerId = Id<PeerTag>;
/// A transport-level message.
using MessageId = Id<MessageTag>;
/// An executable task submitted through the overlay.
using TaskId = Id<TaskTag>;
/// A file transfer session (petition + parts + confirmations).
using TransferId = Id<TransferTag>;
/// A fluid flow in the bandwidth scheduler.
using FlowId = Id<FlowTag>;
/// A published advertisement.
using AdvertisementId = Id<AdvertisementTag>;

/// Mints sequential ids for one id family. Deterministic: the n-th id
/// allocated is always n, so simulations replay identically.
template <typename IdType>
class IdAllocator {
 public:
  IdType next() noexcept { return IdType(++last_); }
  [[nodiscard]] std::uint64_t allocated() const noexcept { return last_; }

 private:
  std::uint64_t last_ = 0;
};

/// Renders an id for logs, e.g. "peer#42"; defined per family.
std::string to_string(NodeId id);
std::string to_string(PeerId id);
std::string to_string(MessageId id);
std::string to_string(TaskId id);
std::string to_string(TransferId id);
std::string to_string(FlowId id);
std::string to_string(AdvertisementId id);

}  // namespace peerlab

namespace std {
template <typename Tag>
struct hash<peerlab::Id<Tag>> {
  size_t operator()(peerlab::Id<Tag> id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
}  // namespace std

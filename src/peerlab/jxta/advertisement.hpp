#pragma once

// JXTA advertisements.
//
// In JXTA every discoverable entity announces itself with an XML
// advertisement carrying a lifetime. peerlab keeps the shape (kind +
// name + expiry) without the XML, and carries the one fact each kind
// announces as a typed field: the selection experiments only care
// about what can be discovered and when it expires.

#include <string>

#include "peerlab/common/ids.hpp"
#include "peerlab/common/units.hpp"

namespace peerlab::jxta {

enum class AdvertisementKind : std::uint8_t {
  kPeer,     // a live peer (node + CPU)
  kContent,  // shared file/data
};

[[nodiscard]] const char* to_string(AdvertisementKind kind) noexcept;

struct Advertisement {
  AdvertisementId id;
  AdvertisementKind kind = AdvertisementKind::kPeer;
  /// The peer that published this advertisement.
  PeerId publisher;
  /// The node the publisher lives on (resolution target).
  NodeId home;
  /// Human-meaningful name, e.g. a hostname or a file name.
  std::string name;
  /// kPeer: the publisher's CPU speed.
  double cpu_ghz = 0.0;
  /// kContent: the shared content's size.
  Bytes size = 0;
  Seconds published_at = 0.0;
  Seconds expires_at = 0.0;

  [[nodiscard]] bool expired(Seconds now) const noexcept { return now >= expires_at; }
};

/// Query predicate: kind always matches exactly; empty name matches any.
struct AdvertisementQuery {
  AdvertisementKind kind = AdvertisementKind::kPeer;
  std::string name;  // exact match when non-empty

  [[nodiscard]] bool matches(const Advertisement& adv, Seconds now) const;
};

}  // namespace peerlab::jxta

#include "peerlab/jxta/advertisement.hpp"

namespace peerlab::jxta {

const char* to_string(AdvertisementKind kind) noexcept {
  switch (kind) {
    case AdvertisementKind::kPeer: return "peer";
    case AdvertisementKind::kContent: return "content";
  }
  return "?";
}

bool AdvertisementQuery::matches(const Advertisement& adv, Seconds now) const {
  if (adv.kind != kind) return false;
  if (adv.expired(now)) return false;
  return name.empty() || adv.name == name;
}

}  // namespace peerlab::jxta

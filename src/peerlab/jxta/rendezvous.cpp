#include "peerlab/jxta/rendezvous.hpp"

#include <algorithm>

#include "peerlab/common/check.hpp"

namespace peerlab::jxta {

AdvertisementId RendezvousIndex::publish(const Advertisement& adv) {
  PEERLAB_CHECK_MSG(adv.publisher.valid(), "advertisement needs a publisher");
  PEERLAB_CHECK_MSG(adv.expires_at > sim_.now(), "advertisement already expired");
  key_.clear();
  key_.append(std::to_string(adv.publisher.value())).append("/");
  key_.append(to_string(adv.kind)).append("/").append(adv.name);
  auto it = adverts_.find(key_);
  if (it == adverts_.end()) {
    it = adverts_.emplace(key_, adv).first;
  } else {
    it->second = adv;
  }
  it->second.id = ids_.next();
  it->second.published_at = sim_.now();
  return it->second.id;
}

std::vector<Advertisement> RendezvousIndex::query(const AdvertisementQuery& query) const {
  std::vector<Advertisement> out;
  for (const auto& [key, adv] : adverts_) {
    if (query.matches(adv, sim_.now())) {
      out.push_back(adv);
    }
  }
  // Deterministic order for callers that pick "the first" match.
  std::sort(out.begin(), out.end(),
            [](const Advertisement& a, const Advertisement& b) { return a.id < b.id; });
  return out;
}

}  // namespace peerlab::jxta

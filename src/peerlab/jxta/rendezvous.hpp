#pragma once

// Rendezvous service: the advertisement index a JXTA rendezvous peer
// (our Broker) maintains for its edge peers. Edge peers push their
// advertisements here and route discovery queries through it. Expiry
// is lazy: expired editions are filtered out at query time and
// replaced by the next publish.

#include <string>
#include <unordered_map>
#include <vector>

#include "peerlab/jxta/advertisement.hpp"
#include "peerlab/sim/simulator.hpp"

namespace peerlab::jxta {

class RendezvousIndex {
 public:
  explicit RendezvousIndex(sim::Simulator& sim) : sim_(sim) {}

  /// Stores (or refreshes) a copy of an advertisement. An advert with
  /// the same publisher + kind + name replaces the previous edition.
  AdvertisementId publish(const Advertisement& adv);

  /// All live advertisements matching the query, in publish order.
  [[nodiscard]] std::vector<Advertisement> query(const AdvertisementQuery& query) const;

  [[nodiscard]] std::size_t size() const noexcept { return adverts_.size(); }

 private:
  sim::Simulator& sim_;
  std::unordered_map<std::string, Advertisement> adverts_;
  /// Reused key buffer: a republish finds its edition without allocating.
  std::string key_;
  IdAllocator<AdvertisementId> ids_;
};

}  // namespace peerlab::jxta

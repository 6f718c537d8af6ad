#include "peerlab/jxta/discovery.hpp"

#include <utility>

#include "peerlab/common/check.hpp"

namespace peerlab::jxta {

namespace {
transport::RetryPolicy discovery_retry() {
  transport::RetryPolicy p;
  p.initial_timeout = 10.0;
  p.backoff = 1.5;
  p.max_attempts = 3;
  return p;
}
}  // namespace

void RendezvousDirectory::enroll(NodeId node, RendezvousIndex& index) {
  indexes_[node] = &index;
}

void RendezvousDirectory::withdraw(NodeId node) { indexes_.erase(node); }

RendezvousIndex* RendezvousDirectory::find(NodeId node) const noexcept {
  const auto it = indexes_.find(node);
  return it == indexes_.end() ? nullptr : it->second;
}

DiscoveryService::DiscoveryService(transport::Endpoint& endpoint,
                                   RendezvousDirectory& directory, PeerId self,
                                   NodeId rendezvous)
    : endpoint_(endpoint),
      directory_(directory),
      self_(self),
      rendezvous_(rendezvous),
      query_channel_(endpoint, transport::MessageType::kDiscoveryQuery,
                     transport::MessageType::kDiscoveryResponse, discovery_retry()) {
  PEERLAB_CHECK_MSG(self_.valid(), "discovery needs a peer identity");
}

DiscoveryService::~DiscoveryService() = default;

void DiscoveryService::publish(Advertisement adv, Seconds lifetime) {
  PEERLAB_CHECK_MSG(lifetime > 0.0, "advertisement lifetime must be positive");
  adv.publisher = self_;
  adv.published_at = endpoint_.fabric().simulator().now();
  adv.expires_at = adv.published_at + lifetime;

  // The datagram delay models the publish round; the index mutation
  // happens at arrival time. The index copies the advert rather than
  // moving it out of the capture, so the arrival stays safe to run
  // again (a duplicated datagram delivers a second time).
  endpoint_.fabric().network().send_datagram(
      endpoint_.node(), rendezvous_, transport::nominal_size(transport::MessageType::kStatsReport),
      [this, adv = std::move(adv)] {
        if (RendezvousIndex* index = directory_.find(rendezvous_)) {
          if (!adv.expired(endpoint_.fabric().simulator().now())) {
            index->publish(adv);
          }
        }
      });
}

void DiscoveryService::query_remote(const AdvertisementQuery& query, QueryCallback done,
                                    std::int64_t hop) {
  PEERLAB_CHECK_MSG(static_cast<bool>(done), "query callback required");
  // The control plane carries no structured payloads; the query body
  // travels via a parked ticket the rendezvous peeks at.
  const std::uint64_t query_ticket = directory_.queries.park(query);
  query_channel_.request(
      rendezvous_, query_ticket, hop,
      [this, query_ticket, done = std::move(done)](const transport::RequestOutcome& outcome) {
        directory_.queries.release(query_ticket);
        if (!outcome.ok) {
          done({});
          return;
        }
        done(directory_.results.claim(static_cast<std::uint64_t>(outcome.response.arg)));
      });
}

void DiscoveryService::serve_rendezvous_queries() {
  serve_rendezvous_queries([this](const AdvertisementQuery& query, std::int64_t /*hop*/,
                                  std::function<void(std::vector<Advertisement>)> done) {
    RendezvousIndex* index = directory_.find(endpoint_.node());
    done(index != nullptr ? index->query(query) : std::vector<Advertisement>{});
  });
}

void DiscoveryService::serve_rendezvous_queries(QueryResolver resolver) {
  PEERLAB_CHECK_MSG(static_cast<bool>(resolver), "resolver required");
  query_channel_.serve([this, resolver](const transport::Message& m) {
    const AdvertisementQuery* parked = directory_.queries.peek(m.correlation);
    const AdvertisementQuery query = parked != nullptr ? *parked : AdvertisementQuery{};
    resolver(query, m.arg, [this, m](std::vector<Advertisement> results) {
      const std::uint64_t ticket = directory_.results.park(std::move(results));
      endpoint_.reply(m, transport::MessageType::kDiscoveryResponse,
                      static_cast<std::int64_t>(ticket));
    });
  });
}

}  // namespace peerlab::jxta

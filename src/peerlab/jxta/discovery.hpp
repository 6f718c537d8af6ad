#pragma once

// Discovery service: the JXTA primitive that lets a peer publish
// advertisements and find others'. Edge peers push their adverts to
// their rendezvous (broker) and route queries through it over the
// control plane, with retry — discovery traffic crosses the same lossy
// wide-area links everything else does.

#include <functional>
#include <unordered_map>
#include <vector>

#include "peerlab/common/ticket_store.hpp"
#include "peerlab/jxta/rendezvous.hpp"
#include "peerlab/transport/reliable_channel.hpp"

namespace peerlab::jxta {

/// In-process registry: which node hosts which rendezvous index, plus
/// the ticket stores that carry query bodies and results across the
/// simulated control plane (messages themselves are payload-free).
class RendezvousDirectory {
 public:
  void enroll(NodeId node, RendezvousIndex& index);
  void withdraw(NodeId node);
  [[nodiscard]] RendezvousIndex* find(NodeId node) const noexcept;

  /// Query bodies; the rendezvous peeks rather than claims, so request
  /// retransmissions stay idempotent.
  TicketStore<AdvertisementQuery> queries{1024};
  /// Query results, claimed once by the requester.
  TicketStore<std::vector<Advertisement>> results{1024};

 private:
  std::unordered_map<NodeId, RendezvousIndex*> indexes_;
};

class DiscoveryService {
 public:
  /// `self` identifies the publishing peer; `rendezvous` is the node
  /// hosting this peer's rendezvous index (its broker).
  DiscoveryService(transport::Endpoint& endpoint, RendezvousDirectory& directory, PeerId self,
                   NodeId rendezvous);
  ~DiscoveryService();

  DiscoveryService(const DiscoveryService&) = delete;
  DiscoveryService& operator=(const DiscoveryService&) = delete;

  /// Pushes the advert to the rendezvous. The push is a datagram: it
  /// takes control-plane time and can be lost, in which case the
  /// periodic republish (the caller's business) heals it.
  void publish(Advertisement adv, Seconds lifetime);

  using QueryCallback = std::function<void(std::vector<Advertisement>)>;

  /// Remote query through the rendezvous; retried on loss. The callback
  /// always fires: with the rendezvous' matches, or empty on failure.
  /// `hop` rides the request; hop != 0 tells a federated responder not
  /// to forward again.
  void query_remote(const AdvertisementQuery& query, QueryCallback done, std::int64_t hop = 0);

  /// Re-points this peer at a different rendezvous (broker failover).
  void set_rendezvous(NodeId rendezvous) { rendezvous_ = rendezvous; }
  [[nodiscard]] NodeId rendezvous() const noexcept { return rendezvous_; }
  [[nodiscard]] PeerId self() const noexcept { return self_; }

  /// Installs the responder side on a rendezvous-hosting node's
  /// endpoint. Call once on the broker's discovery service.
  void serve_rendezvous_queries();

  /// Responder with a custom (possibly asynchronous) resolver — used
  /// by federated brokers that consult peer rendezvous on a local
  /// miss. `hop` is the query's hop marker (see query_remote); the
  /// resolver must call `done` exactly once per invocation.
  using QueryResolver =
      std::function<void(const AdvertisementQuery& query, std::int64_t hop,
                         std::function<void(std::vector<Advertisement>)> done)>;
  void serve_rendezvous_queries(QueryResolver resolver);

 private:
  transport::Endpoint& endpoint_;
  RendezvousDirectory& directory_;
  PeerId self_;
  NodeId rendezvous_;
  transport::ReliableChannel query_channel_;
};

}  // namespace peerlab::jxta

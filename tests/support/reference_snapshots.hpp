#pragma once

// Reference snapshot builder: a broker's registry rebuilt as the
// PeerSnapshots its selection model ranks, from the broker's public
// registry accessors and the topology's node profiles alone. The
// broker's candidate index keeps its own snapshots; the overlay
// differential tests rank these with the frozen reference models, so
// the index's mirroring of the registry is checked against code the
// index does not share. Ordered by peer id, like the registry.

#include <vector>

#include "peerlab/core/snapshot.hpp"
#include "peerlab/net/topology.hpp"
#include "peerlab/overlay/broker.hpp"

namespace peerlab::testing {

inline std::vector<core::PeerSnapshot> reference_snapshots(const overlay::BrokerPeer& broker,
                                                           const net::Topology& topology) {
  std::vector<core::PeerSnapshot> snapshots;
  for (const PeerId peer : broker.registered_clients()) {
    const overlay::BrokerPeer::ClientRecord& record = *broker.client(peer);
    const net::NodeProfile& profile = topology.node(record.node).profile();
    core::PeerSnapshot snap;
    snap.peer = peer;
    snap.cpu_ghz = profile.cpu_ghz;
    snap.price_per_cpu_second = profile.price_per_cpu_second;
    snap.online = broker.online(peer);
    snap.idle = record.idle;
    snap.queued_tasks = record.backlog;
    snap.active_transfers = record.pending_transfers;
    snap.statistics = broker.find_statistics(peer);
    snap.history = &broker.history();
    if (broker.defenses_enabled()) snap.reputation = broker.reputation().score(peer, broker.now());
    snapshots.push_back(snap);
  }
  return snapshots;
}

}  // namespace peerlab::testing

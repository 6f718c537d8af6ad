#pragma once

// Primitives — the overlay's public API (Section 3): "peer discovery,
// peer's resources discovery, peer selection, resource allocation,
// file/data sharing, discovery and transmission, instant communication,
// peer group functionalities" plus executable-task management; each
// broker's clients form its one implicit peergroup. This is the
// surface applications program against; everything below it (broker
// protocols, JXTA services, the transfer protocol) is plumbing.

#include "peerlab/overlay/client.hpp"

namespace peerlab::overlay {

class Primitives {
 public:
  explicit Primitives(ClientPeer& self) : self_(self) {}

  [[nodiscard]] PeerId self() const noexcept { return self_.id(); }

  // ---- peer & resource discovery ----
  using DiscoverCallback = std::function<void(std::vector<jxta::Advertisement>)>;
  /// Discovers live peers of the group (their advertisements carry
  /// their CPU speed).
  void discover_peers(DiscoverCallback done);
  /// Discovers shared content by name.
  void discover_content(const std::string& name, DiscoverCallback done);
  /// Publishes a shared-content advertisement.
  void share_content(const std::string& name, Bytes size, Seconds lifetime = 3600.0);

  // ---- peer selection & resource allocation ----
  /// Asks the broker to select `k` peers for the described work. The
  /// broker applies whichever selection model it is configured with.
  void select_peers(const core::SelectionContext& context, std::size_t k,
                    ClientPeer::SelectionCallback done);

  // ---- file sharing & transmission ----
  TransferId send_file(PeerId dst, Bytes size, int parts, FileService::Completion done);
  void cancel_transfer(TransferId id) { self_.files().cancel(id); }

  /// Broker-assisted scatter: asks the broker to select up to `parts`
  /// peers for the payload, then distributes the file's parts over
  /// them in parallel (the Figure 6 workload as a one-call primitive).
  void distribute_file(Bytes size, int parts, FileService::DistributionCallback done);

  // ---- executable tasks ----
  /// Submits a task to an explicit executor peer.
  TaskId submit_task(PeerId executor, GigaCycles work, Bytes input_size,
                     TaskService::Completion done);
  /// Lets the broker pick the executor first, then submits. The
  /// callback receives an unaccepted outcome when no peer is eligible.
  void submit_task_auto(GigaCycles work, Bytes input_size, TaskService::Completion done);

  // ---- instant communication ----
  void send_message(PeerId dst, std::int64_t tag, MessagingService::SendCallback done) {
    self_.messaging().send(dst, tag, std::move(done));
  }
  void on_message(MessagingService::Listener listener) {
    self_.messaging().set_listener(std::move(listener));
  }

  [[nodiscard]] ClientPeer& peer() noexcept { return self_; }

 private:
  ClientPeer& self_;
};

}  // namespace peerlab::overlay

#pragma once

// ClientPeer — an edge peer of the overlay (the paper's SimpleClient:
// a client without GUI). Composes every client-side service: JXTA
// discovery against its broker, the file transfer peer, the task
// executor and service, instant messaging, plus the liveness loop
// (periodic heartbeat + peer advertisement + self queue samples).

#include <memory>

#include "peerlab/obs/metrics.hpp"
#include "peerlab/overlay/directories.hpp"
#include "peerlab/overlay/file_service.hpp"
#include "peerlab/overlay/messaging.hpp"
#include "peerlab/overlay/task_service.hpp"

namespace peerlab::overlay {

struct ClientConfig {
  /// Also the peer advertisement's republish period.
  Seconds heartbeat_interval = 30.0;
  tasks::ExecutorConfig executor{};
};

/// Scripted self-reporting misbehaviour (installed by the adversary
/// layer; see peerlab::adversary). Defaults describe an honest client;
/// while no profile is installed the reporting path is bit-identical
/// to a build without the knobs.
struct MisreportProfile {
  /// Multiplier on self-reported load (heartbeat backlog, queue
  /// samples, pending transfers): 0 claims empty queues, 1 is honest.
  double load_factor = 1.0;
  /// Heartbeats always claim the executor is idle.
  bool always_idle = false;
  /// Fabricated self-praise shipped with each heartbeat: this many
  /// fake completed transfers at `fabricated_rate` plus near-zero
  /// response times (the stats-liar behaviour). 0 disables.
  int fabricate_praise = 0;
  MbitPerSec fabricated_rate = 1000.0;
};

class ClientPeer {
 public:
  ClientPeer(transport::TransportFabric& fabric, NodeId node, NodeId broker_node,
             OverlayDirectories& directories, ClientConfig config = {});
  ~ClientPeer();

  ClientPeer(const ClientPeer&) = delete;
  ClientPeer& operator=(const ClientPeer&) = delete;

  [[nodiscard]] PeerId id() const noexcept { return peer_of(node_); }
  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] NodeId broker_node() const noexcept { return broker_node_; }

  /// Brings the peer online: first heartbeat goes out immediately
  /// (registering it at the broker) and repeats every interval.
  void start();
  /// Takes the peer offline (churn): heartbeats stop; the broker ages
  /// it out after a few missed intervals.
  void stop();
  [[nodiscard]] bool started() const noexcept { return started_; }

  /// Re-homes the client to a different broker (broker failover): the
  /// next heartbeat registers it there, and discovery and selection
  /// requests follow.
  void rehome(NodeId new_broker);

  // ---- services ----
  [[nodiscard]] FileService& files() noexcept { return *files_; }
  [[nodiscard]] TaskService& task_service() noexcept { return *task_service_; }
  [[nodiscard]] MessagingService& messaging() noexcept { return *messaging_; }
  [[nodiscard]] jxta::DiscoveryService& discovery() noexcept { return discovery_; }
  [[nodiscard]] tasks::TaskExecutor& executor() noexcept { return executor_; }
  [[nodiscard]] transport::Endpoint& endpoint() noexcept { return endpoint_; }

  /// Broker-mediated peer selection over the control plane. The
  /// callback receives the selected peers (empty on failure).
  using SelectionCallback = std::function<void(std::vector<PeerId>)>;
  void request_selection(const core::SelectionContext& context, std::size_t k,
                         SelectionCallback done);

  /// Ships one observation batch to the broker (used by the services;
  /// public so applications can report domain-specific observations).
  void report(StatsDelta delta);

  /// Installs (or, with a default-constructed profile, clears) the
  /// scripted misreporting behaviour applied to every future heartbeat.
  void set_misreport_profile(const MisreportProfile& profile);
  [[nodiscard]] std::uint64_t misreports_sent() const noexcept { return misreports_sent_; }

  [[nodiscard]] std::uint64_t heartbeats_sent() const noexcept { return heartbeats_sent_; }
  /// Selection petitions re-issued against a new broker after rehome.
  [[nodiscard]] std::uint64_t selection_reissues() const noexcept {
    return selection_reissues_;
  }

  /// Registers the client-side selection instruments in `registry`:
  /// the client-observed selection latency histogram (request issued →
  /// peers delivered, virtual time — the broker-selection latency the
  /// paper's models are compared on) plus request/failure counters,
  /// and forwards to the file service's distribution instruments.
  /// Zero-cost when never called.
  void attach_metrics(obs::MetricRegistry& registry);

  /// Attaches (or detaches with nullptr) the causal-trace recorder and
  /// forwards it to the file service (and its transfer peer). Traced
  /// selection requests then emit kSelectRequest/kSelectDeliver/
  /// kSelectFail/kSelectReissue spans, traced stats reports emit
  /// kStatsReport, and re-homing lands as an ambient kRehome event.
  void attach_trace(obs::trace::TraceRecorder* recorder) noexcept;

 private:
  /// Cached instrument handles; all null while detached.
  struct Metrics {
    obs::Counter* selections_requested = nullptr;
    obs::Counter* selection_failures = nullptr;
    obs::Counter* selection_reissues = nullptr;
    obs::Counter* misreports = nullptr;
    obs::Histogram* selection_latency_s = nullptr;
  };

  void heartbeat();
  void publish_advert();

  [[nodiscard]] sim::Simulator& sim() noexcept { return endpoint_.fabric().simulator(); }

  transport::Endpoint& endpoint_;
  NodeId node_;
  NodeId broker_node_;
  OverlayDirectories& directories_;
  ClientConfig config_;
  jxta::DiscoveryService discovery_;
  tasks::TaskExecutor executor_;
  std::unique_ptr<FileService> files_;
  std::unique_ptr<TaskService> task_service_;
  std::unique_ptr<MessagingService> messaging_;
  transport::ReliableChannel select_channel_;
  Metrics m_;
  obs::trace::TraceRecorder* trace_ = nullptr;
  sim::EventHandle heartbeat_timer_;
  bool started_ = false;
  MisreportProfile misreport_;
  /// True only while a non-honest profile is installed, so the honest
  /// path never even reads the profile.
  bool misreport_active_ = false;
  std::uint64_t heartbeats_sent_ = 0;
  std::uint64_t selection_reissues_ = 0;
  std::uint64_t misreports_sent_ = 0;
};

}  // namespace peerlab::overlay

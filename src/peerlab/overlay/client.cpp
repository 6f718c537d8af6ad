#include "peerlab/overlay/client.hpp"

#include <algorithm>
#include <utility>

#include "peerlab/common/check.hpp"
#include "peerlab/obs/trace.hpp"

namespace peerlab::overlay {

using obs::trace::TraceKind;

namespace {
/// Peer advertisement lifetime: four heartbeats at the default period,
/// so a few lost republishes never drop a live peer from discovery.
constexpr Seconds kAdvertLifetime = 120.0;
}  // namespace

ClientPeer::ClientPeer(transport::TransportFabric& fabric, NodeId node, NodeId broker_node,
                       OverlayDirectories& directories, ClientConfig config)
    : endpoint_(fabric.attach(node)),
      node_(node),
      broker_node_(broker_node),
      directories_(directories),
      config_(config),
      discovery_(endpoint_, directories.rendezvous, peer_of(node), broker_node),
      executor_(fabric.simulator(), fabric.network().topology().node(node), config.executor),
      select_channel_(endpoint_, transport::MessageType::kSelectRequest,
                      transport::MessageType::kSelectResponse) {
  PEERLAB_CHECK_MSG(config_.heartbeat_interval > 0.0, "heartbeat interval must be positive");
  PEERLAB_CHECK_MSG(node != broker_node, "client must not share the broker's node");
  auto reporter = [this](StatsDelta delta) { report(std::move(delta)); };
  files_ = std::make_unique<FileService>(endpoint_, directories, reporter);
  task_service_ = std::make_unique<TaskService>(endpoint_, executor_, *files_, reporter);
  messaging_ = std::make_unique<MessagingService>(endpoint_, reporter);
  // Failover path: a failed distribution share re-petitions our broker
  // for one substitute, excluding every peer the distribution already
  // touched (and ourselves). Selection requests ride the reliable
  // select channel, so a bounded broker outage only delays the answer.
  files_->set_replacement_provider(
      [this](Bytes share_bytes, std::span<const PeerId> exclude,
             const obs::trace::TraceContext& trace, std::function<void(PeerId)> done) {
        core::SelectionContext context;
        context.now = sim().now();
        context.purpose = core::SelectionContext::Purpose::kFileTransfer;
        context.payload_size = share_bytes;
        context.exclude.assign(exclude.begin(), exclude.end());
        context.exclude.push_back(id());
        // The replacement petition rides the failed share's chain, so
        // one trace id covers the death AND the re-homing.
        context.trace = trace;
        request_selection(context, 1,
                          [done = std::move(done)](std::vector<PeerId> peers) {
                            done(peers.empty() ? PeerId() : peers.front());
                          });
      });
}

ClientPeer::~ClientPeer() { heartbeat_timer_.cancel(); }

void ClientPeer::start() {
  if (started_) return;
  started_ = true;
  heartbeat();
}

void ClientPeer::stop() {
  started_ = false;
  heartbeat_timer_.cancel();
}

void ClientPeer::heartbeat() {
  if (!started_) return;
  ++heartbeats_sent_;
  const auto& flows = endpoint_.fabric().network().flows();
  const int pending = flows.downloads_at(node_);
  const bool idle = executor_.idle();
  int backlog = executor_.backlog();
  double outbox = flows.uploads_at(node_);
  double inbox = pending;
  int pending_report = pending;
  bool idle_report = idle;
  if (misreport_active_) {
    // Under-reporter: the wire carries a scaled-down picture of the
    // true load; the executor and flows underneath stay honest.
    backlog = static_cast<int>(static_cast<double>(backlog) * misreport_.load_factor);
    outbox *= misreport_.load_factor;
    inbox *= misreport_.load_factor;
    pending_report =
        static_cast<int>(static_cast<double>(pending_report) * misreport_.load_factor);
    if (misreport_.always_idle) {
      idle_report = true;
      backlog = 0;
      pending_report = 0;
      outbox = 0.0;
      inbox = 0.0;
    }
    ++misreports_sent_;
    if (m_.misreports != nullptr) m_.misreports->add(1);
  }
  endpoint_.send(broker_node_, transport::MessageType::kHeartbeat,
                 /*correlation=*/id().value(),
                 /*seq=*/static_cast<std::uint64_t>(backlog),
                 /*arg=*/static_cast<std::int64_t>(pending_report) * 2 + (idle_report ? 1 : 0));

  // Self-observed queue pressure rides a stats report.
  StatsDelta self;
  self.subject = id();
  self.outbox_sample = outbox;
  self.inbox_sample = inbox;
  self.pending_transfers = pending_report;
  report(std::move(self));

  if (misreport_active_ && misreport_.fabricate_praise > 0) {
    // Stats liar: a self-praise delta claiming fast completed
    // transfers and instant responses. An undefended broker swallows
    // it into history; a defended one scores it as a protocol
    // violation (honest clients never self-report outcome fields).
    StatsDelta praise;
    praise.subject = id();
    praise.file_done = misreport_.fabricate_praise;
    for (int i = 0; i < misreport_.fabricate_praise; ++i) {
      stats::TransferRecord rec;
      rec.peer = id();
      rec.size = static_cast<Bytes>(kMegabyte);
      rec.duration = 8.0 / std::max(misreport_.fabricated_rate, 1e-6);
      rec.petition_time = 0.01;
      rec.ok = true;
      praise.transfer_records.push_back(rec);
      praise.response_times.push_back(0.01);
    }
    ++misreports_sent_;
    if (m_.misreports != nullptr) m_.misreports->add(1);
    report(std::move(praise));
  }

  publish_advert();
  heartbeat_timer_ =
      sim().schedule_daemon(config_.heartbeat_interval, [this] { heartbeat(); });
}

void ClientPeer::set_misreport_profile(const MisreportProfile& profile) {
  misreport_ = profile;
  misreport_active_ = profile.load_factor != 1.0 || profile.always_idle ||
                      profile.fabricate_praise > 0;
}

void ClientPeer::publish_advert() {
  const auto& profile =
      endpoint_.fabric().network().topology().node(node_).profile();
  jxta::Advertisement adv;
  adv.kind = jxta::AdvertisementKind::kPeer;
  adv.name = profile.hostname;
  adv.home = node_;
  adv.cpu_ghz = profile.cpu_ghz;
  discovery_.publish(std::move(adv), kAdvertLifetime);
}

void ClientPeer::rehome(NodeId new_broker) {
  PEERLAB_CHECK_MSG(new_broker.valid() && new_broker != node_,
                    "client must re-home to a different node");
  const NodeId old_broker = broker_node_;
  broker_node_ = new_broker;
  discovery_.set_rendezvous(new_broker);
  // Announce immediately so the new broker registers us without
  // waiting a full heartbeat period.
  if (started_) {
    heartbeat_timer_.cancel();
    heartbeat();
  }
  // Selection petitions still in flight towards the old broker would
  // otherwise burn their whole retry budget against a dead node; fail
  // them now — request_selection's outcome handler re-issues each one
  // against the new broker (broker_node_ is already updated above).
  if (old_broker != new_broker) {
    if (trace_ != nullptr) {
      trace_->emit_ambient(node_, TraceKind::kRehome, new_broker.value(), old_broker.value());
    }
    select_channel_.fail_pending_to(old_broker);
  }
}

void ClientPeer::attach_trace(obs::trace::TraceRecorder* recorder) noexcept {
  trace_ = recorder;
  files_->attach_trace(recorder);
}

void ClientPeer::attach_metrics(obs::MetricRegistry& registry) {
  m_.selections_requested = &registry.counter("overlay.selections_requested", "requests");
  m_.selection_failures = &registry.counter("overlay.selection_failures", "requests");
  m_.selection_reissues = &registry.counter("overlay.selection_reissues", "requests");
  m_.misreports = &registry.counter("overlay.misreports", "reports");
  obs::Histogram::Options latency_opts;
  latency_opts.lo = 1e-3;  // a selection round trip runs ms .. minutes
  latency_opts.hi = 1e4;
  m_.selection_latency_s =
      &registry.histogram("overlay.selection.latency_s", "s", latency_opts);
  files_->attach_metrics(registry);
}

void ClientPeer::request_selection(const core::SelectionContext& context, std::size_t k,
                                   SelectionCallback done) {
  PEERLAB_CHECK_MSG(static_cast<bool>(done), "selection callback required");
  if (m_.selections_requested != nullptr) m_.selections_requested->add(1);
  const Seconds begun = sim().now();
  const NodeId issued_to = broker_node_;
  // Each issue (and each re-issue after failover) opens its own span on
  // the workload's chain; the broker and the watchdog key on it.
  obs::trace::TraceContext req;
  if (trace_ != nullptr && context.trace.active()) {
    req = trace_->child_of(context.trace);
    trace_->emit(node_, TraceKind::kSelectRequest, req, k, broker_node_.value(),
                 context.trace.span);
  }
  core::SelectionContext parked = context;
  if (req.active()) parked.trace = req;
  const std::uint64_t context_ticket = directories_.selection_contexts.park(std::move(parked));
  select_channel_.request(
      broker_node_, context_ticket, static_cast<std::int64_t>(k), req,
      [this, begun, issued_to, context, k, context_ticket, req,
       done = std::move(done)](const transport::RequestOutcome& outcome) mutable {
        directories_.selection_contexts.release(context_ticket);
        const bool traced = trace_ != nullptr && req.active();
        if (!outcome.ok) {
          if (traced) {
            trace_->emit(node_, TraceKind::kSelectFail, req,
                         static_cast<std::uint64_t>(outcome.attempts), issued_to.value());
          }
          // Broker failover: the petition died against a broker we have
          // since re-homed away from — re-issue it against the current
          // one (selection is served there from replicated history).
          if (broker_node_ != issued_to) {
            ++selection_reissues_;
            if (m_.selection_reissues != nullptr) m_.selection_reissues->add(1);
            if (traced) {
              trace_->emit(node_, TraceKind::kSelectReissue, req, k, broker_node_.value());
            }
            request_selection(context, k, std::move(done));
            return;
          }
          if (m_.selection_failures != nullptr) m_.selection_failures->add(1);
          done({});
          return;
        }
        if (m_.selection_latency_s != nullptr) {
          m_.selection_latency_s->record(sim().now() - begun);
        }
        auto peers = directories_.selections.claim(
            static_cast<std::uint64_t>(outcome.response.arg));
        if (traced) {
          trace_->emit(node_, TraceKind::kSelectDeliver, req, peers.size(),
                       static_cast<std::uint64_t>(outcome.attempts));
        }
        done(std::move(peers));
      });
}

void ClientPeer::report(StatsDelta delta) {
  const obs::trace::TraceContext ctx = delta.trace;
  const PeerId subject = delta.subject;
  const std::uint64_t ticket = directories_.stats_reports.park(std::move(delta));
  if (trace_ != nullptr && ctx.active()) {
    trace_->emit(node_, TraceKind::kStatsReport, ctx, subject.value(), ticket);
  }
  endpoint_.send(broker_node_, transport::MessageType::kStatsReport, /*correlation=*/0, 0,
                 static_cast<std::int64_t>(ticket), ctx);
}

}  // namespace peerlab::overlay

#include "peerlab/overlay/broker.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "peerlab/common/check.hpp"
#include "peerlab/common/log.hpp"
#include "peerlab/obs/trace.hpp"

namespace peerlab::overlay {

using obs::trace::TraceKind;

namespace {
/// Every Nth traced walk-served selection is re-ranked by the model
/// pass (see audit_index_selection).
constexpr std::uint64_t kSelectionAuditPeriod = 16;
}  // namespace

BrokerPeer::BrokerPeer(transport::TransportFabric& fabric, NodeId node,
                       OverlayDirectories& directories, BrokerConfig config)
    : endpoint_(fabric.attach(node)),
      node_(node),
      directories_(directories),
      config_(config),
      rendezvous_(fabric.simulator()),
      discovery_(endpoint_, directories.rendezvous, peer_of(node), node),
      history_(config.history_capacity),
      reputation_(config.reputation),
      econ_(config.econ),
      model_(std::make_unique<core::BlindModel>()),
      index_(core::CandidateIndex::Config{config.heartbeat_interval,
                                          config.offline_after_missed}),
      select_channel_(endpoint_, transport::MessageType::kSelectRequest,
                      transport::MessageType::kSelectResponse) {
  PEERLAB_CHECK_MSG(config_.heartbeat_interval > 0.0, "heartbeat interval must be positive");
  index_.set_history(&history_);
  history_.set_observer([this](PeerId peer) { index_.mark_dirty(peer); });
  index_.bind_model(model_.get());
  if (config_.reputation.enabled) {
    // The score the index stamps on each candidate's snapshot.
    index_.set_reputation([this](PeerId peer) { return reputation_.score(peer, sim().now()); });
  }
  directories_.rendezvous.enroll(node_, rendezvous_);
  discovery_.serve_rendezvous_queries();
  select_channel_.serve([this](const transport::Message& m) { serve_selection(m); });
  endpoint_.set_handler(transport::MessageType::kHeartbeat,
                        [this](const transport::Message& m) { on_heartbeat(m); });
  endpoint_.set_handler(transport::MessageType::kStatsReport,
                        [this](const transport::Message& m) { on_stats_report(m); });
}

BrokerPeer::~BrokerPeer() {
  directories_.rendezvous.withdraw(node_);
  endpoint_.clear_handler(transport::MessageType::kHeartbeat);
  endpoint_.clear_handler(transport::MessageType::kStatsReport);
}

stats::PeerStatistics& BrokerPeer::statistics_for(PeerId peer) {
  auto it = statistics_.find(peer);
  if (it == statistics_.end()) {
    it = statistics_.emplace(peer, stats::PeerStatistics(config_.stats_window)).first;
  }
  // Every statistics mutation funnels through here; telling the index
  // keeps its cached evaluator keys coherent (O(1), re-key is lazy).
  index_.note_statistics(peer, &it->second);
  return it->second;
}

const stats::PeerStatistics* BrokerPeer::find_statistics(PeerId peer) const {
  const auto it = statistics_.find(peer);
  return it == statistics_.end() ? nullptr : &it->second;
}

const BrokerPeer::ClientRecord* BrokerPeer::client(PeerId peer) const {
  const auto it = clients_.find(peer);
  return it == clients_.end() ? nullptr : &it->second;
}

std::vector<PeerId> BrokerPeer::registered_clients() const {
  std::vector<PeerId> out;
  out.reserve(clients_.size());
  for (const auto& [peer, record] : clients_) out.push_back(peer);
  return out;
}

bool BrokerPeer::online(PeerId peer) const {
  const ClientRecord* record = client(peer);
  if (record == nullptr) return false;
  const Seconds silence = sim().now() - record->last_seen;
  return silence <= config_.heartbeat_interval * config_.offline_after_missed;
}

void BrokerPeer::set_selection_model(std::unique_ptr<core::SelectionModel> model) {
  PEERLAB_CHECK_MSG(model != nullptr, "selection model must not be null");
  model_ = std::move(model);
  index_.bind_model(model_.get());
}

std::vector<PeerId> BrokerPeer::select_peers(const core::SelectionContext& context,
                                             std::size_t k) {
  const obs::WallProfiler::Span span(m_.profiler, m_.rank_site);
  const bool traced = trace_ != nullptr && context.trace.active();
  core::SelectionContext effective = context;
  std::vector<PeerId> ranking;
  const bool econ = econ_.applies(context);
  // Admission needs the model's full ranking. Constrained petitions
  // always take the model pass, so the index's snapshots are the ones
  // this ranking was computed over.
  const bool indexed = rank_defended(effective, econ ? index_.snapshots().size() : k, ranking);
  if (econ) {
    const auto verdict = econ_.admit_and_rank(index_.snapshots(), effective, ranking);
    if (ranking.size() > k) ranking.resize(k);
    // Optimistic backlog: the answered peers are about to receive work
    // the next heartbeat cannot know about yet. Hint the engine so a
    // burst of constrained petitions spreads instead of piling onto the
    // one peer whose stale snapshot still looks idle.
    for (const PeerId peer : ranking) econ_.note_assignment(peer, sim().now());
    if (traced) {
      trace_->emit(node_, TraceKind::kEconRank, context.trace, verdict.feasible,
                   verdict.exhausted ? 0 : verdict.appraised);
    }
  }
  if (traced && indexed) {
    trace_->emit(node_, TraceKind::kIndexPull, context.trace, k, ranking.size());
    audit_index_selection(effective, k, ranking);
  } else if (traced) {
    trace_->emit(node_, TraceKind::kSelectRank, context.trace, index_.snapshots().size(),
                 ranking.size());
  }
  return ranking;
}

bool BrokerPeer::rank_defended(core::SelectionContext& effective, std::size_t k,
                               std::vector<PeerId>& ranking) {
  const auto rank = [&]() { return index_.select(effective, sim().now(), k, ranking); };
  if (!config_.reputation.enabled) return rank();
  effective.reputation_weight = config_.reputation.rank_penalty_weight;
  const std::size_t base_excludes = effective.exclude.size();
  reputation_.append_quarantined(sim().now(), effective.exclude);
  const std::size_t quarantined = effective.exclude.size() - base_excludes;
  if (trace_ != nullptr && effective.trace.active() && quarantined > 0) {
    trace_->emit(node_, TraceKind::kReputationExclude, effective.trace, quarantined, 0);
  }
  const bool indexed = rank();
  if (!ranking.empty() || quarantined == 0) return indexed;
  // Graceful degradation: a quarantine that empties the candidate set
  // is lifted for this decision — a distrusted peer beats none.
  effective.exclude.resize(base_excludes);
  return rank();
}

void BrokerPeer::audit_index_selection(const core::SelectionContext& effective, std::size_t k,
                                       const std::vector<PeerId>& picked) {
  // The blind model's shared rotation cursor advances on every ranking;
  // re-running the model would perturb the very selections under audit.
  // Blind index/scan equivalence is pinned by the differential harness
  // instead (tests/core/selection_index_property_test.cpp).
  if (model_->name() == "blind") return;
  if (++audit_clock_ % kSelectionAuditPeriod != 0) return;
  std::vector<PeerId> ranked;
  index_.rank_snapshots(effective, sim().now(), k, ranked);
  trace_->emit(node_, TraceKind::kIndexAudit, effective.trace, k, ranked == picked ? 1 : 0);
}

void BrokerPeer::attach_metrics(obs::MetricRegistry& registry, obs::WallProfiler* profiler) {
  m_.heartbeats = &registry.counter("overlay.heartbeats", "heartbeats");
  m_.stats_reports = &registry.counter("overlay.stats_reports", "reports");
  m_.selections_served = &registry.counter("overlay.selections_served", "selections");
  m_.federated_queries = &registry.counter("overlay.federated_queries", "queries");
  m_.profiler = profiler;
  m_.rank_site = profiler != nullptr ? &profiler->site("selection.rank") : nullptr;
  reputation_.attach_metrics(registry);
  econ_.attach_metrics(registry);
  index_.attach_metrics(registry);
}

void BrokerPeer::attach_trace(obs::trace::TraceRecorder* recorder) {
  trace_ = recorder;
  if (recorder == nullptr) {
    reputation_.set_quarantine_observer(nullptr);
    return;
  }
  reputation_.set_quarantine_observer([this](PeerId peer, Seconds until) {
    trace_->emit_ambient(node_, TraceKind::kQuarantine, peer.value(),
                         static_cast<std::uint64_t>(until));
    // A quarantine is the reputation defenses concluding a peer
    // misbehaved — exactly the moment the flight recorder is for.
    trace_->postmortem("quarantine", to_string(peer).c_str());
  });
}

void BrokerPeer::apply_stats(const StatsDelta& delta) { apply_stats(delta, PeerId()); }

void BrokerPeer::apply_stats(const StatsDelta& delta, PeerId reporter) {
  if (!delta.subject.valid()) return;
  ++reports_;
  if (m_.stats_reports != nullptr) m_.stats_reports->add(1);
  if (trace_ != nullptr && delta.trace.active()) {
    trace_->emit(node_, TraceKind::kStatsApply, delta.trace, delta.subject.value(),
                 reporter.value());
  }
  if (!config_.reputation.enabled) {
    apply_replicated(delta);
    if (delta_observer_) delta_observer_(delta);
    return;
  }
  const Seconds now = sim().now();
  StatsDelta vetted = delta;
  const bool self_report = reporter.valid() && reporter == delta.subject;
  if (self_report && (!delta.transfer_records.empty() || !delta.response_times.empty() ||
                      delta.file_done > 0 || delta.exec_ok > 0 || delta.msg_ok > 0)) {
    // Honest clients self-report only queue samples (outbox/inbox/
    // pending); outcome history about a peer comes from counterparties.
    // A self-report carrying outcome records is fabricated praise:
    // score the lie, drop those fields, keep the queue samples.
    reputation_.record_lie(reporter, now);
    vetted.transfer_records.clear();
    vetted.response_times.clear();
    vetted.file_done = 0;
    vetted.exec_ok = 0;
    vetted.msg_ok = 0;
  }
  if (!self_report) {
    // Counterparty-attributed outcomes feed the reputation score.
    for (int i = 0; i < vetted.file_fail; ++i) reputation_.record_failure(delta.subject, now);
    for (int i = 0; i < vetted.exec_fail; ++i) reputation_.record_failure(delta.subject, now);
    for (int i = 0; i < vetted.msg_fail; ++i) reputation_.record_failure(delta.subject, now);
    for (int i = 0; i < vetted.exec_ok; ++i) reputation_.record_success(delta.subject, now);
    for (const auto& record : vetted.transfer_records) {
      reputation_.record_transfer(delta.subject, record, now);
    }
  }
  apply_replicated(vetted);
  if (delta_observer_) delta_observer_(vetted);
}

void BrokerPeer::apply_replicated(const StatsDelta& delta) {
  if (!delta.subject.valid()) return;
  auto& s = statistics_for(delta.subject);
  const Seconds now = sim().now();
  for (int i = 0; i < delta.msg_ok; ++i) s.record_message(now, true);
  for (int i = 0; i < delta.msg_fail; ++i) s.record_message(now, false);
  for (int i = 0; i < delta.task_accept; ++i) s.record_task_accept(true);
  for (int i = 0; i < delta.task_reject; ++i) s.record_task_accept(false);
  for (int i = 0; i < delta.exec_ok; ++i) s.record_task_execution(true);
  for (int i = 0; i < delta.exec_fail; ++i) s.record_task_execution(false);
  for (int i = 0; i < delta.file_done; ++i) s.record_file(stats::FileOutcome::kCompleted);
  for (int i = 0; i < delta.file_cancel; ++i) s.record_file(stats::FileOutcome::kCancelled);
  for (int i = 0; i < delta.file_fail; ++i) s.record_file(stats::FileOutcome::kFailed);
  if (delta.outbox_sample >= 0.0) s.sample_outbox(delta.outbox_sample);
  if (delta.inbox_sample >= 0.0) s.sample_inbox(delta.inbox_sample);
  if (delta.pending_transfers >= 0) s.set_pending_transfers(delta.pending_transfers);
  for (const Seconds t : delta.response_times) {
    history_.record_response_time(delta.subject, t);
  }
  for (const auto& record : delta.task_records) history_.record_task(record);
  for (const auto& record : delta.transfer_records) history_.record_transfer(record);
}

void BrokerPeer::begin_session() {
  for (auto& [peer, s] : statistics_) s.begin_session();
  index_.mark_all_dirty();
}

BrokerPeer::ReplicatedState BrokerPeer::export_state() const {
  ReplicatedState state;
  state.clients = clients_;
  state.statistics = statistics_;
  state.history = history_;
  return state;
}

void BrokerPeer::adopt_state(ReplicatedState state) {
  clients_ = std::move(state.clients);
  statistics_ = std::move(state.statistics);
  history_ = std::move(state.history);
  // HistoryStore assignment moves data only — this broker's mutation
  // observer stays installed — but every cached statistics pointer and
  // key is now stale: rebuild the index from the adopted registry.
  rebuild_index();
}

void BrokerPeer::rebuild_index() {
  index_.clear();
  index_.set_history(&history_);
  history_.set_observer([this](PeerId peer) { index_.mark_dirty(peer); });
  index_.bind_model(model_.get());
  for (const auto& [peer, record] : clients_) index_client(record);
}

void BrokerPeer::index_client(const ClientRecord& record) {
  const auto& profile = endpoint_.fabric().network().topology().node(record.node).profile();
  index_.upsert_peer(record.peer, profile.cpu_ghz, profile.price_per_cpu_second,
                     find_statistics(record.peer), record.last_seen, record.idle, record.backlog,
                     record.pending_transfers);
}

void BrokerPeer::on_heartbeat(const transport::Message& m) {
  ++heartbeats_;
  if (m_.heartbeats != nullptr) m_.heartbeats->add(1);
  const PeerId peer(m.correlation);
  auto [it, inserted] = clients_.try_emplace(peer);
  ClientRecord& record = it->second;
  if (inserted) {
    record.peer = peer;
    record.node = m.src;
    record.first_seen = sim().now();
    PEERLAB_LOG(kInfo, "broker") << "registered " << to_string(peer) << " on "
                                 << to_string(m.src);
  }
  record.last_seen = sim().now();
  record.backlog = static_cast<int>(m.seq);
  record.pending_transfers = static_cast<int>(m.arg / 2);
  record.idle = (m.arg % 2) == 1;
  index_client(record);
}

void BrokerPeer::on_stats_report(const transport::Message& m) {
  const StatsDelta delta =
      directories_.stats_reports.claim(static_cast<std::uint64_t>(m.arg));
  apply_stats(delta, peer_of(m.src));
}

void BrokerPeer::federate_with(NodeId peer_broker) {
  PEERLAB_CHECK_MSG(peer_broker.valid() && peer_broker != node_,
                    "cannot federate with self or nothing");
  if (std::find(peer_brokers_.begin(), peer_brokers_.end(), peer_broker) !=
      peer_brokers_.end()) {
    return;
  }
  peer_brokers_.push_back(peer_broker);
  // Replace the plain local resolver with the federated one (idempotent
  // to re-install on every federate_with call).
  discovery_.serve_rendezvous_queries(
      [this](const jxta::AdvertisementQuery& query, std::int64_t hop,
             std::function<void(std::vector<jxta::Advertisement>)> done) {
        auto local = rendezvous_.query(query);
        // Forwarded queries (hop != 0) must not fan out again.
        if (!local.empty() || hop != 0 || peer_brokers_.empty()) {
          done(std::move(local));
          return;
        }
        ++federated_queries_;
        if (m_.federated_queries != nullptr) m_.federated_queries->add(1);
        forward_query(query, 0, std::make_shared<std::vector<jxta::Advertisement>>(),
                      std::move(done));
      });
}

void BrokerPeer::forward_query(const jxta::AdvertisementQuery& query, std::size_t peer_index,
                               std::shared_ptr<std::vector<jxta::Advertisement>> accumulated,
                               std::function<void(std::vector<jxta::Advertisement>)> done) {
  if (peer_index >= peer_brokers_.size()) {
    done(std::move(*accumulated));
    return;
  }
  // The discovery service's rendezvous pointer is only read while the
  // request is being issued; re-point, fire, restore.
  discovery_.set_rendezvous(peer_brokers_[peer_index]);
  discovery_.query_remote(
      query,
      [this, query, peer_index, accumulated, done](std::vector<jxta::Advertisement> found) {
        for (auto& adv : found) accumulated->push_back(std::move(adv));
        if (!accumulated->empty()) {
          done(std::move(*accumulated));  // first non-empty hop wins
          return;
        }
        forward_query(query, peer_index + 1, accumulated, done);
      },
      /*hop=*/1);
  discovery_.set_rendezvous(node_);
}

void BrokerPeer::serve_selection(const transport::Message& m) {
  ++selections_served_;
  if (m_.selections_served != nullptr) m_.selections_served->add(1);
  // Peek, not claim: the client's channel may retransmit this request.
  core::SelectionContext context;
  if (const auto* parked = directories_.selection_contexts.peek(m.correlation)) {
    context = *parked;
  }
  const auto k = static_cast<std::size_t>(std::max<std::int64_t>(1, m.arg));
  if (trace_ != nullptr && m.trace.active()) {
    // The broker-side view of the request, one hop downstream of the
    // client's kSelectRequest span (retransmissions repeat this event).
    trace_->emit(node_, TraceKind::kSelectServe, m.trace.hop(), k, m.src.value());
  }
  const auto selected = select_peers(context, k);
  const std::uint64_t ticket = directories_.selections.park(selected);
  endpoint_.reply(m, transport::MessageType::kSelectResponse,
                  static_cast<std::int64_t>(ticket));
}

}  // namespace peerlab::overlay

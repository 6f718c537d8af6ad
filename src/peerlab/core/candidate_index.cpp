#include "peerlab/core/candidate_index.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "peerlab/common/check.hpp"
#include "peerlab/core/blind.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/hybrid.hpp"
#include "peerlab/core/user_preference.hpp"

namespace peerlab::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Smallest t with `front <= t - span` — the exact first moment
/// OutcomeWindow::evict() would drop the event stamped `front`. The
/// naive `front + span` can round past the true threshold in either
/// direction, so probe the window's own comparison and walk by ulps
/// (at most a couple of steps).
double window_expiry_time(double front, double span) {
  double t = front + span;
  if (front <= t - span) {
    for (;;) {
      const double p = std::nextafter(t, -kInf);
      if (front <= p - span) {
        t = p;
      } else {
        break;
      }
    }
  } else {
    while (!(front <= t - span)) t = std::nextafter(t, kInf);
  }
  return t;
}

/// Smallest t with `t - last_seen > thr` — the exact first moment
/// BrokerPeer::online() flips false. Same ulp probing as above.
double offline_time(double last_seen, double thr) {
  double t = last_seen + thr;
  while (t - last_seen <= thr) t = std::nextafter(t, kInf);
  for (;;) {
    const double p = std::nextafter(t, -kInf);
    if (p - last_seen > thr) {
      t = p;
    } else {
      break;
    }
  }
  return t;
}

/// Min-heap ordering for the lazy heaps.
bool heap_cmp(double a, double b) { return a > b; }

/// Monotone mirrors of the economic estimators' accumulation order
/// (estimate_service_time, estimate_cost) over explicit attribute
/// values. At one peer's cached keys they ARE its model values
/// (compute_keys mirrors the estimators' fallbacks exactly), so walks
/// never touch the estimators or the history maps; at per-attribute
/// frontier values they are exact bounds, no margins.
Seconds service_chain(const SelectionContext& c, double speed, double rate, double resp) {
  Seconds service = 0.0;
  if (c.work > 0.0) service += c.work / std::max(speed, 1e-6);
  if (c.payload_size > 0) service += wire_time(c.payload_size, rate);
  service += resp;
  return service;
}

double cost_chain(const SelectionContext& c, double price, double cpu, double rate, double resp) {
  const Seconds cpu_time =
      c.work > 0.0 ? c.work / std::max(cpu, 1e-6) : service_chain(c, 0.0, rate, resp);
  return price * cpu_time;
}

/// The models' ranking order (append_ranked): ascending cost, then peer.
template <typename S>
bool ranks_before(const S& a, const S& b) {
  if (a.value != b.value) return a.value < b.value;
  return a.peer < b.peer;
}

}  // namespace

CandidateIndex::CandidateIndex(Config config) : config_(config) {}

void CandidateIndex::set_history(const stats::HistoryStore* history) {
  history_ = history;
  mark_all_dirty();
}

void CandidateIndex::bind_model(SelectionModel* model) {
  for (Slot& slot : slots_) {
    if (slot.in_trees) remove_from_trees(slot);
  }
  model_ = model;
  blind_ = dynamic_cast<BlindModel*>(model);
  economic_ = dynamic_cast<EconomicSchedulingModel*>(model);
  evaluator_ = dynamic_cast<DataEvaluatorModel*>(model);
  preference_ = dynamic_cast<UserPreferenceModel*>(model);
  hybrid_ = dynamic_cast<HybridModel*>(model);
  if (blind_ != nullptr) {
    kind_ = ModelKind::kBlind;
  } else if (economic_ != nullptr) {
    kind_ = ModelKind::kEconomic;
  } else if (evaluator_ != nullptr) {
    kind_ = ModelKind::kEvaluator;
  } else if (preference_ != nullptr) {
    kind_ = ModelKind::kUserPreference;
  } else if (hybrid_ != nullptr) {
    kind_ = ModelKind::kHybrid;
  } else {
    kind_ = ModelKind::kNone;
  }
  eval_term_ = evaluator_ != nullptr
                   ? evaluator_
                   : (hybrid_ != nullptr ? &hybrid_->evaluator_term() : nullptr);
  window_sensitive_ = false;
  if (eval_term_ != nullptr) {
    for (const auto& w : eval_term_->weights()) {
      if (w.criterion == stats::Criterion::kMsgSuccessWindow && w.weight > 0.0) {
        window_sensitive_ = true;
      }
    }
  }
  mark_all_dirty();
}

CandidateIndex::Slot* CandidateIndex::find_slot(PeerId peer) {
  const auto it = slot_of_.find(peer);
  return it == slot_of_.end() ? nullptr : &slots_[it->second];
}

void CandidateIndex::upsert_peer(PeerId peer, GigaHertz cpu_ghz, double price_per_cpu_second,
                                 const stats::PeerStatistics* statistics, Seconds last_seen,
                                 bool idle, int queued_tasks, int active_transfers) {
  const auto [it, inserted] = slot_of_.try_emplace(peer, static_cast<std::uint32_t>(slots_.size()));
  if (inserted) {
    slots_.emplace_back().peer = peer;
    snaps_.emplace_back().peer = peer;
  }
  const std::uint32_t index = it->second;
  PeerSnapshot& snap = snaps_[index];
  snap.history = history_;
  snap.cpu_ghz = cpu_ghz;
  snap.price_per_cpu_second = price_per_cpu_second;
  snap.statistics = statistics;
  snap.idle = idle;
  snap.queued_tasks = queued_tasks;
  snap.active_transfers = active_transfers;
  slots_[index].last_seen = last_seen;
  push_live(index, offline_time(last_seen, config_.heartbeat_interval * config_.offline_after_missed));
  mark_dirty(peer);
}

void CandidateIndex::note_statistics(PeerId peer, const stats::PeerStatistics* statistics) {
  const auto it = slot_of_.find(peer);
  if (it == slot_of_.end()) return;
  snaps_[it->second].statistics = statistics;
  mark_dirty(peer);
}

void CandidateIndex::mark_dirty(PeerId peer) {
  const auto it = slot_of_.find(peer);
  if (it == slot_of_.end()) return;
  Slot& slot = slots_[it->second];
  if (slot.dirty || all_dirty_) {
    slot.dirty = true;
    return;
  }
  slot.dirty = true;
  dirty_.push_back(it->second);
}

void CandidateIndex::mark_all_dirty() { all_dirty_ = true; }

void CandidateIndex::clear() {
  slots_.clear();
  snaps_.clear();
  slot_of_.clear();
  dirty_.clear();
  all_dirty_ = false;
  ids_.clear();
  t_static_.clear();
  t_eval_.clear();
  t_base_.clear();
  t_speed_.clear();
  t_rate_.clear();
  t_resp_.clear();
  t_price_.clear();
  t_cpu_.clear();
  online_idle_ = 0;
  live_heap_.clear();
  expiry_heap_.clear();
}

void CandidateIndex::attach_metrics(obs::MetricRegistry& registry) {
  m_.fast_path = &registry.counter("selection.index.fast_path", "selections");
  m_.fallbacks = &registry.counter("selection.index.fallbacks", "selections");
  m_.rekeys = &registry.counter("selection.index.rekeys", "peers");
  m_.pulls = &registry.counter("selection.index.pulls", "entries");
  m_.dense_sweeps = &registry.counter("selection.index.dense_sweeps", "selections");
  m_.rebuilds = &registry.counter("selection.index.rebuilds", "rebuilds");
  m_.fast_path->add(fast_path_);
  m_.fallbacks->add(fallbacks_);
  m_.rekeys->add(rekeys_);
  m_.pulls->add(pulls_);
  m_.dense_sweeps->add(dense_sweeps_);
  m_.rebuilds->add(rebuilds_);
}

std::optional<PeerSnapshot> CandidateIndex::snapshot(PeerId peer, Seconds sim_now) const {
  const auto it = slot_of_.find(peer);
  if (it == slot_of_.end()) return std::nullopt;
  PeerSnapshot snap = snaps_[it->second];
  stamp(slots_[it->second], snap, sim_now);
  return snap;
}

void CandidateIndex::stamp(const Slot& slot, PeerSnapshot& snap, Seconds sim_now) const {
  snap.online = slot_online(slot, sim_now);
  if (reputation_) snap.reputation = reputation_(snap.peer);
}

// ---- lazy maintenance -------------------------------------------------

void CandidateIndex::push_live(std::uint32_t slot_index, double key) {
  Slot& slot = slots_[slot_index];
  ++slot.live_stamp;
  live_heap_.push_back(HeapEntry{key, slot_index, slot.live_stamp});
  std::push_heap(live_heap_.begin(), live_heap_.end(),
                 [](const HeapEntry& a, const HeapEntry& b) { return heap_cmp(a.key, b.key); });
}

void CandidateIndex::push_expiry(std::uint32_t slot_index, double key) {
  Slot& slot = slots_[slot_index];
  ++slot.exp_stamp;
  expiry_heap_.push_back(HeapEntry{key, slot_index, slot.exp_stamp});
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(),
                 [](const HeapEntry& a, const HeapEntry& b) { return heap_cmp(a.key, b.key); });
}

void CandidateIndex::drain_liveness(Seconds sim_now) {
  const auto cmp = [](const HeapEntry& a, const HeapEntry& b) { return heap_cmp(a.key, b.key); };
  while (!live_heap_.empty() && live_heap_.front().key <= sim_now) {
    std::pop_heap(live_heap_.begin(), live_heap_.end(), cmp);
    const HeapEntry entry = live_heap_.back();
    live_heap_.pop_back();
    Slot& slot = slots_[entry.slot];
    if (entry.stamp != slot.live_stamp) continue;
    mark_dirty(slot.peer);
  }
}

void CandidateIndex::drain_expiry(Seconds now) {
  const auto cmp = [](const HeapEntry& a, const HeapEntry& b) { return heap_cmp(a.key, b.key); };
  while (!expiry_heap_.empty() && expiry_heap_.front().key <= now) {
    std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), cmp);
    const HeapEntry entry = expiry_heap_.back();
    expiry_heap_.pop_back();
    Slot& slot = slots_[entry.slot];
    if (entry.stamp != slot.exp_stamp) continue;
    mark_dirty(slot.peer);
  }
}

void CandidateIndex::flush_dirty(const SelectionContext& context, Seconds sim_now) {
  if (all_dirty_) {
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      refresh_slot(i, context, sim_now);
    }
    dirty_.clear();
    all_dirty_ = false;
    ++rebuilds_;
    if (m_.rebuilds != nullptr) m_.rebuilds->add(1);
    return;
  }
  for (const std::uint32_t i : dirty_) refresh_slot(i, context, sim_now);
  dirty_.clear();
}

void CandidateIndex::refresh_slot(std::uint32_t slot_index, const SelectionContext& context,
                                  Seconds sim_now) {
  Slot& slot = slots_[slot_index];
  slot.dirty = false;
  if (!slot_online(slot, sim_now)) {
    if (slot.in_trees) remove_from_trees(slot);
    return;
  }
  if (slot.in_trees) {
    rekey_in_place(slot, slot_index, context);
  } else {
    compute_keys(slot, slot_index, context);
    insert_into_trees(slot, snaps_[slot_index].idle);
  }
  ++rekeys_;
  if (m_.rekeys != nullptr) m_.rekeys->add(1);
}

void CandidateIndex::compute_keys(Slot& slot, std::uint32_t slot_index,
                                  const SelectionContext& context) {
  const PeerSnapshot& snap = snaps_[slot_index];
  if (kind_ == ModelKind::kUserPreference) {
    slot.key_static = preference_->base_cost(slot.peer);
  }
  if ((kind_ == ModelKind::kEvaluator || kind_ == ModelKind::kHybrid) && eval_term_ != nullptr) {
    slot.key_eval = eval_term_->cost(snap, context);
    if (window_sensitive_ && snap.statistics != nullptr) {
      const auto& window = snap.statistics->message_window();
      if (const auto front = window.oldest_event()) {
        push_expiry(slot_index, window_expiry_time(*front, window.span()));
      }
    }
  }
  if (kind_ == ModelKind::kEconomic || kind_ == ModelKind::kHybrid) {
    const EconomicSchedulingModel& econ =
        kind_ == ModelKind::kHybrid ? hybrid_->economic_term() : *economic_;
    const EconomicConfig& cfg = econ.config();
    slot.key_base = econ.estimate_ready_time(snap);
    // The attribute keys mirror estimate_service_time/estimate_cost's
    // fallbacks exactly: the chain evaluated at a peer's own keys IS
    // its model value, which is what makes frontier bounds exact.
    GigaHertz speed = snap.cpu_ghz;
    MbitPerSec rate = cfg.default_rate_estimate;
    Seconds resp = 0.0;
    if (snap.history != nullptr) {
      if (const auto hist = snap.history->mean_effective_speed(snap.peer, cfg.history_depth)) {
        speed = *hist;
      }
      if (const auto hist = snap.history->mean_transfer_rate(snap.peer, cfg.history_depth)) {
        rate = *hist;
      }
      if (const auto hist = snap.history->mean_response_time(snap.peer, cfg.history_depth)) {
        resp = *hist;
      }
    }
    slot.key_speed = speed;
    slot.key_rate = rate;
    slot.key_resp = resp;
    slot.key_price = snap.price_per_cpu_second;
    slot.key_cpu = snap.cpu_ghz;
  }
}

template <typename Self, typename F>
void CandidateIndex::for_each_tree(Self& self, F&& f) {
  switch (self.kind_) {
    case ModelKind::kUserPreference:
      f(self.t_static_, &Slot::key_static);
      break;
    case ModelKind::kEvaluator:
      f(self.t_eval_, &Slot::key_eval);
      break;
    case ModelKind::kHybrid:
      f(self.t_eval_, &Slot::key_eval);
      [[fallthrough]];
    case ModelKind::kEconomic:
      f(self.t_base_, &Slot::key_base);
      f(self.t_speed_, &Slot::key_speed);
      f(self.t_rate_, &Slot::key_rate);
      f(self.t_resp_, &Slot::key_resp);
      f(self.t_price_, &Slot::key_price);
      f(self.t_cpu_, &Slot::key_cpu);
      break;
    default:
      break;
  }
}

void CandidateIndex::rekey_in_place(Slot& slot, std::uint32_t slot_index,
                                    const SelectionContext& context) {
  // Most heartbeats change no key. A tree's order is a function of its
  // (key, peer) entries alone (treap priorities hash the peer), so an
  // entry whose key did not move stays where it is and answers exactly
  // as an erase and re-insert would. Keys compare by bits, not ==:
  // -0.0 and 0.0 tie in a tree but not in every bound a frontier feeds.
  const Slot old = slot;
  compute_keys(slot, slot_index, context);
  for_each_tree(*this, [&](RankedTree& tree, double Slot::*key) {
    if (std::bit_cast<std::uint64_t>(old.*key) == std::bit_cast<std::uint64_t>(slot.*key)) {
      return;
    }
    tree.erase(old.*key, slot.peer);
    tree.insert(slot.*key, slot.peer);
    ++tree_updates_;
  });
  const bool idle = snaps_[slot_index].idle;
  if (idle != slot.indexed_idle) {
    slot.indexed_idle = idle;
    if (idle) {
      ++online_idle_;
    } else {
      --online_idle_;
    }
  }
}

void CandidateIndex::insert_into_trees(Slot& slot, bool idle) {
  ids_.insert(0.0, slot.peer);
  ++tree_updates_;
  for_each_tree(*this, [&](RankedTree& tree, double Slot::*key) {
    tree.insert(slot.*key, slot.peer);
    ++tree_updates_;
  });
  slot.in_trees = true;
  slot.indexed_idle = idle;
  if (slot.indexed_idle) ++online_idle_;
}

void CandidateIndex::remove_from_trees(Slot& slot) {
  ids_.erase(0.0, slot.peer);
  for_each_tree(*this,
                [&](RankedTree& tree, double Slot::*key) { tree.erase(slot.*key, slot.peer); });
  slot.in_trees = false;
  if (slot.indexed_idle) --online_idle_;
  slot.indexed_idle = false;
}

std::string CandidateIndex::check_consistency() const {
  std::size_t indexed = 0;
  std::size_t idle = 0;
  std::string fault;
  const auto fail = [&fault](const Slot& slot, const char* what) {
    if (fault.empty()) fault = "peer " + std::to_string(slot.peer.value()) + " " + what;
  };
  for (std::size_t i = 0; i < slots_.size() && fault.empty(); ++i) {
    const Slot& slot = slots_[i];
    if (!slot.in_trees) {
      if (slot.indexed_idle) fail(slot, "counts as idle outside the trees");
      continue;
    }
    ++indexed;
    if (slot.indexed_idle) ++idle;
    // A clean slot was refreshed after its snapshot last changed.
    if (!slot.dirty && !all_dirty_ && slot.indexed_idle != snaps_[i].idle) {
      fail(slot, "has an indexed idle flag that differs from its snapshot");
    }
    if (!ids_.contains(0.0, slot.peer)) fail(slot, "is missing from the id tree");
    for_each_tree(*this, [&](const RankedTree& tree, double Slot::*key) {
      if (!tree.contains(slot.*key, slot.peer)) {
        fail(slot, "is missing from a criterion tree at its cached key");
      }
    });
  }
  if (!fault.empty()) return fault;
  if (ids_.size() != indexed) return "id tree size differs from the indexed count";
  for_each_tree(*this, [&](const RankedTree& tree, double Slot::*) {
    if (tree.size() != indexed) fault = "criterion tree size differs from the indexed count";
  });
  if (fault.empty() && online_idle_ != idle) {
    fault = "online_idle_ differs from the idle indexed slots";
  }
  return fault;
}

// ---- threshold-walk plumbing ------------------------------------------

void CandidateIndex::mark_excludes(const SelectionContext& context) {
  ++select_epoch_;
  excl_online_ = 0;
  excl_idle_ = 0;
  for (const PeerId peer : context.exclude) {
    Slot* slot = find_slot(peer);
    if (slot == nullptr || slot->excluded == select_epoch_) continue;
    slot->excluded = select_epoch_;
    if (slot->in_trees) {
      ++excl_online_;
      if (slot->indexed_idle) ++excl_idle_;
    }
  }
}

bool CandidateIndex::eligible(const Slot& slot, bool idle_gate) const noexcept {
  if (slot.excluded == select_epoch_) return false;
  // Walks visit only indexed slots, flushed before the walk, so the
  // insertion-time idle flag is the snapshot's.
  if (idle_gate && !slot.indexed_idle) return false;
  return true;
}

double CandidateIndex::penalty(const Slot& slot) const {
  if (weight_ == 0.0) return 0.0;
  return weight_ * (1.0 - (reputation_ ? reputation_(slot.peer) : 1.0));
}

void CandidateIndex::keep(const Scored& scored, std::size_t k) {
  const auto cmp = [](const Scored& a, const Scored& b) { return ranks_before(a, b); };
  if (best_heap_.size() < k) {
    best_heap_.push_back(scored);
    std::push_heap(best_heap_.begin(), best_heap_.end(), cmp);
  } else if (ranks_before(scored, best_heap_.front())) {
    std::pop_heap(best_heap_.begin(), best_heap_.end(), cmp);
    best_heap_.back() = scored;
    std::push_heap(best_heap_.begin(), best_heap_.end(), cmp);
  }
}

template <typename ValueOf, typename BoundOf>
double CandidateIndex::extremum(std::vector<Cursor>& cursors, bool want_max, bool idle_gate,
                                ValueOf value_of, BoundOf bound_of, std::size_t budget,
                                bool& blown) {
  // A top-1 walk; negation is exact, so a max is the negated min of
  // the negated values. The largest peer id makes the bound pair stop
  // on a value tie, since only the value is wanted.
  const double sign = want_max ? -1.0 : 1.0;
  top_k(
      cursors, 1, idle_gate, [&](const Slot& s) { return sign * value_of(s); },
      [&]() { return Scored{0, sign * bound_of(), PeerId(~std::uint64_t{0})}; }, budget, blown);
  return best_heap_.empty() ? sign * kInf : sign * best_heap_.front().value;
}

template <typename ValueOf, typename BoundOf>
void CandidateIndex::top_k(std::vector<Cursor>& cursors, std::size_t k, bool idle_gate,
                           ValueOf value_of, BoundOf bound_of, std::size_t budget, bool& blown) {
  ++walk_epoch_;
  best_heap_.clear();
  std::size_t walked = 0;
  for (;;) {
    bool enumerated_all = false;
    for (auto& cursor : cursors) {
      if (cursor.exhausted()) {
        enumerated_all = true;
        continue;
      }
      const auto entry = cursor.step();
      ++pulls_;
      ++walked;
      if (cursor.exhausted()) enumerated_all = true;
      Slot& slot = slots_[slot_of_.find(entry.peer)->second];
      if (slot.visited == walk_epoch_) continue;
      slot.visited = walk_epoch_;
      if (!eligible(slot, idle_gate)) continue;
      const std::uint32_t slot_index =
          static_cast<std::uint32_t>(&slot - slots_.data());
      keep(Scored{slot_index, value_of(slot), entry.peer}, k);
    }
    if (enumerated_all) return;
    // Every unseen peer ranks strictly after the bound pair, so a k-th
    // best at or before it is final. Multi-criterion bounds carry the
    // invalid peer id (before every peer): a value tie at the bound
    // could still lose the peer-id tiebreak, so those keep pulling.
    if (best_heap_.size() >= k && !ranks_before(bound_of(), best_heap_.front())) return;
    if (walked > budget) {
      blown = true;
      return;
    }
  }
}

template <typename ValueOf>
void CandidateIndex::dense_top_k(std::size_t k, bool idle_gate, ValueOf value_of) {
  ++dense_sweeps_;
  if (m_.dense_sweeps != nullptr) m_.dense_sweeps->add(1);
  best_heap_.clear();
  for (const Slot& slot : slots_) {
    if (!slot.in_trees || !eligible(slot, idle_gate)) continue;
    ++pulls_;
    const std::uint32_t slot_index =
        static_cast<std::uint32_t>(&slot - slots_.data());
    keep(Scored{slot_index, value_of(slot), slot.peer}, k);
  }
}

void CandidateIndex::emit_scored(std::vector<PeerId>& out) {
  // Mirrors append_ranked: std::sort by (cost, peer); entries are
  // distinct peers, so the permutation is unique.
  std::sort(best_heap_.begin(), best_heap_.end(),
            [](const Scored& a, const Scored& b) { return ranks_before(a, b); });
  out.clear();
  out.reserve(best_heap_.size());
  for (const Scored& scored : best_heap_) out.push_back(scored.peer);
}

// ---- per-model fast paths ---------------------------------------------

void CandidateIndex::select_blind(std::size_t k, std::vector<PeerId>& out) {
  // Exclude- and weight-free by walkable(); blind ignores the rest.
  out.clear();
  const std::size_t m = ids_.size();
  if (m == 0) return;  // the model returns before advancing the cursor
  std::size_t start = 0;
  if (blind_->mode() == BlindModel::Mode::kRoundRobin) start = blind_->take_turn(m);
  const std::size_t count = std::min(k, m);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(ids_.kth((start + i) % m).peer);
  }
}

void CandidateIndex::select_tree(const RankedTree& tree, double Slot::*key, double scale,
                                 std::size_t k, std::vector<PeerId>& out) {
  out.clear();
  const std::size_t n_el = ids_.size() - excl_online_;
  const std::size_t n_needed = std::min(k, n_el);
  if (n_needed == 0) return;
  // The tree is ordered by (key, peer) — the model's own order — and a
  // penalty only raises a cost, so every peer past the frontier entry
  // ranks strictly after it: the frontier pair itself is the bound. At
  // weight 0 that stops the walk on the k-th non-excluded entry.
  cursors_.clear();
  cursors_.push_back(Cursor{&tree, false, 0, 0.0, PeerId{}});
  const Cursor& cursor = cursors_.front();
  const auto value_of = [&](const Slot& s) { return s.*key + penalty(s) * scale; };
  const auto bound_of = [&]() { return Scored{0, cursor.frontier, cursor.frontier_peer}; };
  bool blown = false;
  top_k(cursors_, n_needed, /*idle_gate=*/false, value_of, bound_of, pull_budget(n_el), blown);
  if (blown) dense_top_k(n_needed, /*idle_gate=*/false, value_of);
  emit_scored(out);
}

void CandidateIndex::select_economic(const SelectionContext& context, std::size_t k,
                                     std::vector<PeerId>& out) {
  out.clear();
  const EconomicConfig& cfg = economic_->config();
  const bool any_idle = online_idle_ > excl_idle_;
  const bool idle_gate = cfg.prefer_idle && any_idle;
  const std::size_t n_el =
      idle_gate ? online_idle_ - excl_idle_ : ids_.size() - excl_online_;
  const std::size_t n_needed = std::min(k, n_el);
  if (n_needed == 0) return;  // model: no offers (or k = 0) → empty answer

  const bool has_work = context.work > 0.0;
  const bool has_payload = context.payload_size > 0;

  const auto completion_chain = [&](double ready, double speed, double rate, double resp) {
    return ready + service_chain(context, speed, rate, resp);
  };
  const auto completion_of = [&](const Slot& s) {
    return completion_chain(s.key_base, s.key_speed, s.key_rate, s.key_resp);
  };
  const auto cost_of = [&](const Slot& s) {
    return cost_chain(context, s.key_price, s.key_cpu, s.key_rate, s.key_resp);
  };

  int ci_base = -1, ci_speed = -1, ci_rate = -1, ci_resp = -1, ci_price = -1, ci_cpu = -1;
  const auto reset = [&]() {
    cursors_.clear();
    ci_base = ci_speed = ci_rate = ci_resp = ci_price = ci_cpu = -1;
  };
  const auto add = [&](int& index, const RankedTree& tree, bool desc) {
    index = static_cast<int>(cursors_.size());
    cursors_.push_back(Cursor{&tree, desc, 0, 0.0, PeerId{}});
  };
  const auto f = [&](int index) { return cursors_[static_cast<std::size_t>(index)].frontier; };

  const auto time_cursors = [&](bool low) {
    reset();
    add(ci_base, t_base_, !low);
    if (has_work) add(ci_speed, t_speed_, low);
    if (has_payload) add(ci_rate, t_rate_, low);
    add(ci_resp, t_resp_, !low);
  };
  const auto time_bound = [&]() {
    return completion_chain(f(ci_base), has_work ? f(ci_speed) : 0.0,
                            has_payload ? f(ci_rate) : 0.0, f(ci_resp));
  };
  const auto cost_cursors = [&](bool low) {
    reset();
    add(ci_price, t_price_, !low);
    if (has_work) {
      add(ci_cpu, t_cpu_, low);
    } else {
      if (has_payload) add(ci_rate, t_rate_, low);
      add(ci_resp, t_resp_, !low);
    }
  };
  // With work the rate and resp cursors are absent (cost_chain ignores
  // both then), so only the work-free chain reads them.
  const auto cost_bound = [&]() {
    return cost_chain(context, f(ci_price), has_work ? f(ci_cpu) : 0.0,
                      !has_work && has_payload ? f(ci_rate) : 0.0, has_work ? 0.0 : f(ci_resp));
  };

  const std::size_t budget = pull_budget(n_el);
  bool blown = false;
  double tlo = kInf, thi = -kInf, clo = kInf, chi = -kInf;
  time_cursors(true);
  tlo = extremum(cursors_, /*want_max=*/false, idle_gate, completion_of, time_bound, budget,
                 blown);
  if (!blown) {
    time_cursors(false);
    thi = extremum(cursors_, /*want_max=*/true, idle_gate, completion_of, time_bound, budget,
                   blown);
  }
  if (!blown) {
    cost_cursors(true);
    clo = extremum(cursors_, /*want_max=*/false, idle_gate, cost_of, cost_bound, budget, blown);
  }
  if (!blown) {
    cost_cursors(false);
    chi = extremum(cursors_, /*want_max=*/true, idle_gate, cost_of, cost_bound, budget, blown);
  }
  if (blown) {
    // Dense redo of all four extrema in one pass over the cached slots:
    // exact by exhaustion, and cheaper than letting four stuck walks
    // crawl tied frontier runs one pull at a time.
    tlo = kInf, thi = -kInf, clo = kInf, chi = -kInf;
    for (const Slot& s : slots_) {
      if (!s.in_trees || !eligible(s, idle_gate)) continue;
      const double t = completion_of(s);
      const double c = cost_of(s);
      if (t < tlo) tlo = t;
      if (t > thi) thi = t;
      if (c < clo) clo = c;
      if (c > chi) chi = c;
    }
  }

  const double wsum = cfg.time_weight + cfg.cost_weight;
  const auto utility_of = [&](const Slot& s) {
    const double completion = completion_of(s);
    const double cost = cost_of(s);
    const double tnorm = thi > tlo ? (completion - tlo) / (thi - tlo) : 0.0;
    const double cnorm = chi > clo ? (cost - clo) / (chi - clo) : 0.0;
    double utility = (cfg.time_weight * tnorm + cfg.cost_weight * cnorm) / wsum;
    utility -= 1e-9 * s.key_cpu;  // the snapshot's cpu_ghz
    utility += penalty(s);
    return utility;
  };

  reset();
  add(ci_base, t_base_, false);
  if (has_work) add(ci_speed, t_speed_, true);
  if (has_payload) add(ci_rate, t_rate_, true);
  add(ci_resp, t_resp_, false);
  add(ci_price, t_price_, false);
  add(ci_cpu, t_cpu_, true);  // cost lower bound (work > 0) and the -1e-9 tiebreak
  const auto utility_bound = [&]() {
    const double completion = completion_chain(f(ci_base), has_work ? f(ci_speed) : 0.0,
                                               has_payload ? f(ci_rate) : 0.0, f(ci_resp));
    const double cost = cost_chain(context, f(ci_price), has_work ? f(ci_cpu) : 0.0,
                                   has_payload ? f(ci_rate) : 0.0,
                                   has_work ? 0.0 : f(ci_resp));
    const double tnorm = thi > tlo ? (completion - tlo) / (thi - tlo) : 0.0;
    const double cnorm = chi > clo ? (cost - clo) / (chi - clo) : 0.0;
    double utility = (cfg.time_weight * tnorm + cfg.cost_weight * cnorm) / wsum;
    utility -= 1e-9 * f(ci_cpu);
    return Scored{0, utility, PeerId{}};  // zero-penalty bound; penalties only add
  };
  bool rank_blown = false;
  if (blown) {
    rank_blown = true;  // extrema already proved the distribution degenerate
  } else {
    top_k(cursors_, n_needed, idle_gate, utility_of, utility_bound, budget, rank_blown);
  }
  if (rank_blown) dense_top_k(n_needed, idle_gate, utility_of);
  emit_scored(out);
}

void CandidateIndex::select_hybrid(const SelectionContext& context, std::size_t k,
                                   std::vector<PeerId>& out) {
  out.clear();
  const std::size_t n_el = ids_.size() - excl_online_;
  const std::size_t n_needed = std::min(k, n_el);
  if (n_needed == 0) return;

  const bool has_work = context.work > 0.0;
  const bool has_payload = context.payload_size > 0;

  // Mirrors the model's left-associated ready + service + cost.
  const auto e_chain = [&](double ready, double speed, double rate, double resp, double price,
                           double cpu) {
    return ready + service_chain(context, speed, rate, resp) +
           cost_chain(context, price, cpu, rate, resp);
  };
  const auto e_of = [&](const Slot& s) {
    return e_chain(s.key_base, s.key_speed, s.key_rate, s.key_resp, s.key_price, s.key_cpu);
  };

  int ci_base = -1, ci_speed = -1, ci_rate = -1, ci_resp = -1, ci_price = -1, ci_cpu = -1,
      ci_eval = -1;
  const auto reset = [&]() {
    cursors_.clear();
    ci_base = ci_speed = ci_rate = ci_resp = ci_price = ci_cpu = ci_eval = -1;
  };
  const auto add = [&](int& index, const RankedTree& tree, bool desc) {
    index = static_cast<int>(cursors_.size());
    cursors_.push_back(Cursor{&tree, desc, 0, 0.0, PeerId{}});
  };
  const auto f = [&](int index) { return cursors_[static_cast<std::size_t>(index)].frontier; };

  const auto e_cursors = [&](bool low) {
    reset();
    add(ci_base, t_base_, !low);
    if (has_work) add(ci_speed, t_speed_, low);
    if (has_payload) add(ci_rate, t_rate_, low);
    add(ci_resp, t_resp_, !low);
    add(ci_price, t_price_, !low);
    if (has_work) add(ci_cpu, t_cpu_, low);
  };
  const auto e_bound = [&]() {
    return e_chain(f(ci_base), has_work ? f(ci_speed) : 0.0, has_payload ? f(ci_rate) : 0.0,
                   f(ci_resp), f(ci_price), has_work ? f(ci_cpu) : 0.0);
  };

  const std::size_t budget = pull_budget(n_el);
  bool blown = false;
  double elo = kInf, ehi = -kInf;
  e_cursors(true);
  elo = extremum(cursors_, /*want_max=*/false, /*idle_gate=*/false, e_of, e_bound, budget, blown);
  if (!blown) {
    e_cursors(false);
    ehi = extremum(cursors_, /*want_max=*/true, /*idle_gate=*/false, e_of, e_bound, budget,
                   blown);
  }
  if (blown) {
    elo = kInf, ehi = -kInf;
    for (const Slot& s : slots_) {
      if (!s.in_trees || !eligible(s, /*idle_gate=*/false)) continue;
      const double e = e_of(s);
      if (e < elo) elo = e;
      if (e > ehi) ehi = e;
    }
  }

  // Evaluator span: the eval tree is keyed by the exact evaluator
  // cost, so the first/last non-excluded entries are the span.
  double vlo = 0.0;
  double vhi = 0.0;
  for (std::size_t i = 0; i < t_eval_.size(); ++i) {
    const auto entry = t_eval_.kth(i);
    ++pulls_;
    if (slots_[slot_of_.find(entry.peer)->second].excluded == select_epoch_) continue;
    vlo = entry.key;
    break;
  }
  for (std::size_t i = t_eval_.size(); i-- > 0;) {
    const auto entry = t_eval_.kth(i);
    ++pulls_;
    if (slots_[slot_of_.find(entry.peer)->second].excluded == select_epoch_) continue;
    vhi = entry.key;
    break;
  }

  const double alpha = hybrid_->alpha();
  const auto score_of = [&](const Slot& s) {
    const double e = e_of(s);
    const double v = s.key_eval;  // select-time exact: expiry re-dirties on window decay
    const double en = ehi > elo ? (e - elo) / (ehi - elo) : 0.0;
    const double vn = vhi > vlo ? (v - vlo) / (vhi - vlo) : 0.0;
    return alpha * en + (1.0 - alpha) * vn + penalty(s);
  };

  reset();
  add(ci_base, t_base_, false);
  if (has_work) add(ci_speed, t_speed_, true);
  if (has_payload) add(ci_rate, t_rate_, true);
  add(ci_resp, t_resp_, false);
  add(ci_price, t_price_, false);
  if (has_work) add(ci_cpu, t_cpu_, true);
  add(ci_eval, t_eval_, false);
  const auto score_bound = [&]() {
    const double e = e_chain(f(ci_base), has_work ? f(ci_speed) : 0.0,
                             has_payload ? f(ci_rate) : 0.0, f(ci_resp), f(ci_price),
                             has_work ? f(ci_cpu) : 0.0);
    const double v = f(ci_eval);
    const double en = ehi > elo ? (e - elo) / (ehi - elo) : 0.0;
    const double vn = vhi > vlo ? (v - vlo) / (vhi - vlo) : 0.0;
    return Scored{0, alpha * en + (1.0 - alpha) * vn, PeerId{}};  // zero-penalty bound
  };
  bool rank_blown = false;
  if (blown) {
    rank_blown = true;
  } else {
    top_k(cursors_, n_needed, /*idle_gate=*/false, score_of, score_bound, budget, rank_blown);
  }
  if (rank_blown) dense_top_k(n_needed, /*idle_gate=*/false, score_of);
  emit_scored(out);
}

// ---- entry point -------------------------------------------------------

bool CandidateIndex::walkable(const SelectionContext& context) const noexcept {
  if (kind_ == ModelKind::kNone) return false;
  // A negative penalty would lower costs below the walks' bounds.
  if (!(context.reputation_weight >= 0.0)) return false;
  if (kind_ == ModelKind::kBlind &&
      (!context.exclude.empty() || context.reputation_weight != 0.0)) {
    return false;
  }
  // Economically-constrained petitions (deadline, budget, or an explicit
  // objective) go through the broker's econ engine, which needs the full
  // model ranking — not just the top-k the threshold walk produces — to
  // run admission. The model pass serves them for every model.
  return !context.econ_constrained();
}

void CandidateIndex::rank_snapshots(const SelectionContext& context, Seconds sim_now,
                                    std::size_t k, std::vector<PeerId>& out) {
  for (std::size_t i = 0; i < snaps_.size(); ++i) stamp(slots_[i], snaps_[i], sim_now);
  model_->rank_into(snaps_, context, out);
  if (out.size() > k) out.resize(k);
}

bool CandidateIndex::select(const SelectionContext& context, Seconds sim_now, std::size_t k,
                            std::vector<PeerId>& out) {
  PEERLAB_CHECK_MSG(model_ != nullptr, "select() needs a bound model");
  if (!walkable(context)) {
    ++fallbacks_;
    if (m_.fallbacks != nullptr) m_.fallbacks->add(1);
    rank_snapshots(context, sim_now, k, out);
    return false;
  }

  drain_liveness(sim_now);
  drain_expiry(context.now);
  flush_dirty(context, sim_now);
  mark_excludes(context);
  weight_ = context.reputation_weight;

  const std::uint64_t pulls_before = pulls_;
  switch (kind_) {
    case ModelKind::kBlind:
      select_blind(k, out);
      break;
    case ModelKind::kUserPreference:
      // The model scales the penalty by its candidate count (rank-index
      // costs); the registry is exactly the tracked peers.
      select_tree(t_static_, &Slot::key_static, static_cast<double>(slots_.size()), k, out);
      break;
    case ModelKind::kEvaluator:
      select_tree(t_eval_, &Slot::key_eval, 1.0, k, out);
      break;
    case ModelKind::kEconomic:
      select_economic(context, k, out);
      break;
    case ModelKind::kHybrid:
      select_hybrid(context, k, out);
      break;
    case ModelKind::kNone:  // never walkable
      break;
  }
  ++fast_path_;
  if (m_.fast_path != nullptr) m_.fast_path->add(1);
  if (m_.pulls != nullptr) m_.pulls->add(pulls_ - pulls_before);
  return true;
}

}  // namespace peerlab::core

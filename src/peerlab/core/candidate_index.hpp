#pragma once

// CandidateIndex — the broker's one selection path for the five
// selection models (DESIGN.md §15).
//
// The index owns one PeerSnapshot per registered client, refreshed by
// every heartbeat / stats delta / history record, and keeps, per bound
// model, the order statistics that model ranks by — a peer-id tree for
// blind, the frozen preference rank for user-preference, the evaluator
// cost, and the six economic attributes (ready time, effective speed,
// transfer rate, response time, price, CPU). select() answers most
// petitions in O((k + pulls) log n) with a Fagin-style threshold walk
// and the rest with the model pass over the snapshots.
//
// The contract is *bit-identical selections*: select() returns exactly
// the bound model's ranking of the snapshots truncated to k (same
// peers, same order, down to floating-point ties). Exactness without
// epsilon margins works because IEEE round-to-nearest +, -, ×, / are
// weakly monotone in each operand: the threshold bounds mimic the
// model's expression shapes with per-attribute frontier values, so
// every unseen peer's true score provably cannot beat the bound, and
// the walk stops only when the k-th kept score is *strictly* better
// than the bound (ties force further pulls; a fully-tied registry
// degrades to a full walk). A single-tree walk is ordered by (key,
// peer), the model's own order, so its frontier entry is an exact
// (score, peer) bound and ties resolve without extra pulls.
//
// Reputation-weighted petitions ride the same walks. The models add
// `reputation_weight * (1 - score)` to each candidate's cost; with a
// non-negative weight and scores in [0, 1] that penalty is never
// negative, and round-to-nearest addition is monotone, so every walk
// keeps its zero-penalty bound and only the exact per-peer value adds
// the penalty, in the model's expression order. Scores come from the
// callable handed to set_reputation(), read at selection time.
//
// Model pass — the petitions no walk serves (see DESIGN.md §15):
//   * an unrecognised model subclass;
//   * a negative (or NaN) reputation_weight — the walks' bounds assume
//     the penalty never lowers a cost;
//   * blind with a non-empty exclude list or a reputation weight (the
//     rotation modulus / the rotated group would change under the
//     index's feet);
//   * any economically-constrained context — deadline, budget, or an
//     explicit EconObjective (the broker's econ engine needs the full
//     model ranking for admission, and for kEconomic the feasibility
//     filter changes the normalization span in ways cursors cannot
//     bound; see DESIGN.md §17).
// The pass stamps each snapshot's liveness and reputation at sim_now
// and ranks them all with the bound model's rank_into. It neither
// drains nor flushes the trees, so the walk counters (rekeys, pulls,
// sweeps, rebuilds) move only with the walks; it counts in
// scan_fallbacks().
//
// Time must be non-decreasing across select() calls (simulated
// time is), because windowed statistics evict destructively on read.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "peerlab/common/ids.hpp"
#include "peerlab/common/units.hpp"
#include "peerlab/core/ranked_tree.hpp"
#include "peerlab/core/snapshot.hpp"
#include "peerlab/obs/metrics.hpp"

namespace peerlab::core {

class SelectionModel;
class BlindModel;
class EconomicSchedulingModel;
class DataEvaluatorModel;
class UserPreferenceModel;
class HybridModel;

class CandidateIndex {
 public:
  struct Config {
    /// Liveness parameters — must match the owning broker's so the
    /// index agrees with BrokerPeer::online() bit for bit.
    Seconds heartbeat_interval = 30.0;
    double offline_after_missed = 3.5;
  };

  CandidateIndex() : CandidateIndex(Config{}) {}
  explicit CandidateIndex(Config config);

  /// Binds the model whose ranking the index answers with. The walks
  /// recognize the five concrete models; any other model is served by
  /// the model pass alone. Re-keys lazily on the next select().
  void bind_model(SelectionModel* model);

  /// The history store feeding the economic estimators (the broker's;
  /// one per index). May be null (models degrade gracefully).
  void set_history(const stats::HistoryStore* history);

  /// The reputation score in [0, 1] of a peer at selection time — the
  /// PeerSnapshot::reputation the model ranks by. Unset, every peer
  /// scores a neutral 1.0.
  using ReputationFn = std::function<double(PeerId)>;
  void set_reputation(ReputationFn score) { reputation_ = std::move(score); }

  /// Registers or refreshes a peer's snapshot from a heartbeat /
  /// adopted record.
  void upsert_peer(PeerId peer, GigaHertz cpu_ghz, double price_per_cpu_second,
                   const stats::PeerStatistics* statistics, Seconds last_seen, bool idle,
                   int queued_tasks, int active_transfers);

  /// Points the peer at its (possibly newly-created) statistics record
  /// and schedules a re-key — the broker calls this from
  /// statistics_for(), the funnel for every stats mutation.
  void note_statistics(PeerId peer, const stats::PeerStatistics* statistics);

  /// Schedules a re-key of one peer / of everyone (model rebind,
  /// session reset, adopted state). O(1); work happens lazily inside
  /// the next select().
  void mark_dirty(PeerId peer);
  void mark_all_dirty();

  /// Drops every peer (adopt_state rebuilds from the new registry).
  void clear();

  /// Fills `out` with the bound model's best min(k, eligible) peers
  /// over the registry's snapshots, best first: by a threshold walk, or
  /// by the model pass for the petitions listed above. Returns true
  /// when a walk answered. `sim_now` drives liveness, `context.now` the
  /// windowed statistics. A model must be bound.
  bool select(const SelectionContext& context, Seconds sim_now, std::size_t k,
              std::vector<PeerId>& out);

  /// The model pass alone: the same answer as select(), computed by
  /// the bound model over every snapshot stamped at `sim_now`. Moves
  /// no counter (the broker's sampled audit re-ranks with it).
  void rank_snapshots(const SelectionContext& context, Seconds sim_now, std::size_t k,
                      std::vector<PeerId>& out);

  /// Every registered peer's snapshot in registration order, with
  /// liveness and reputation as the last model pass stamped them.
  [[nodiscard]] std::span<const PeerSnapshot> snapshots() const noexcept { return snaps_; }

  /// One registered peer's snapshot stamped at `sim_now`; empty for a
  /// peer that never registered.
  [[nodiscard]] std::optional<PeerSnapshot> snapshot(PeerId peer, Seconds sim_now) const;

  /// Registers the selection.index.* counters (shared by name across
  /// brokers). Zero-cost when never called.
  void attach_metrics(obs::MetricRegistry& registry);

  [[nodiscard]] std::uint64_t fast_path_selections() const noexcept { return fast_path_; }
  [[nodiscard]] std::uint64_t scan_fallbacks() const noexcept { return fallbacks_; }
  [[nodiscard]] std::uint64_t rekeys() const noexcept { return rekeys_; }
  [[nodiscard]] std::uint64_t bound_pulls() const noexcept { return pulls_; }
  [[nodiscard]] std::uint64_t dense_sweeps() const noexcept { return dense_sweeps_; }
  [[nodiscard]] std::uint64_t rebuilds() const noexcept { return rebuilds_; }
  /// Tree entries (re)inserted: every tree of a slot entering the
  /// trees, then one per criterion tree whose key a refresh moved. Not
  /// exported as a metric; tests pin the work a heartbeat costs by it.
  [[nodiscard]] std::uint64_t tree_updates() const noexcept { return tree_updates_; }

  /// Test hook: an empty string when every indexed slot sits in each of
  /// its trees at its cached keys, every tree holds exactly the indexed
  /// slots, online_idle_ counts the indexed idle slots, and each clean
  /// slot's indexed idle flag is its snapshot's; otherwise the first
  /// fault found.
  [[nodiscard]] std::string check_consistency() const;

 private:
  enum class ModelKind : std::uint8_t {
    kNone,
    kBlind,
    kEconomic,
    kEvaluator,
    kUserPreference,
    kHybrid,
  };

  /// Walk state of one registered peer; its PeerSnapshot sits at the
  /// same position in snaps_, off the walks' cache lines.
  struct Slot {
    PeerId peer;
    Seconds last_seen = 0.0;
    bool in_trees = false;
    bool indexed_idle = false;  // the snapshot's idle at insertion time
    bool dirty = false;
    std::uint32_t live_stamp = 0;  // current liveness heap generation
    std::uint32_t exp_stamp = 0;   // current window-expiry generation
    std::uint64_t visited = 0;     // threshold-walk epoch marker
    std::uint64_t excluded = 0;    // per-select exclude marker
    // Cached tree keys (meaningful only while in_trees).
    double key_static = 0.0;
    double key_eval = 0.0;
    double key_base = 0.0;
    double key_speed = 0.0;
    double key_rate = 0.0;
    double key_resp = 0.0;
    double key_price = 0.0;
    double key_cpu = 0.0;
  };

  struct HeapEntry {
    double key = 0.0;
    std::uint32_t slot = 0;
    std::uint32_t stamp = 0;
  };

  struct Scored {
    std::uint32_t slot = 0;
    double value = 0.0;
    PeerId peer;
  };

  /// Cached instrument handles; all null while detached.
  struct Metrics {
    obs::Counter* fast_path = nullptr;
    obs::Counter* fallbacks = nullptr;
    obs::Counter* rekeys = nullptr;
    obs::Counter* pulls = nullptr;
    obs::Counter* dense_sweeps = nullptr;
    obs::Counter* rebuilds = nullptr;
  };

  /// One directional walk over a tree: kth(i) ascending or descending.
  struct Cursor {
    const RankedTree* tree = nullptr;
    bool desc = false;
    std::size_t i = 0;
    double frontier = 0.0;
    PeerId frontier_peer;
    [[nodiscard]] bool exhausted() const { return i >= tree->size(); }
    RankedTree::Entry step() {
      const auto e = desc ? tree->kth(tree->size() - 1 - i) : tree->kth(i);
      ++i;
      frontier = e.key;
      frontier_peer = e.peer;
      return e;
    }
  };

  [[nodiscard]] bool slot_online(const Slot& slot, Seconds sim_now) const noexcept {
    const Seconds silence = sim_now - slot.last_seen;
    return silence <= config_.heartbeat_interval * config_.offline_after_missed;
  }

  [[nodiscard]] Slot* find_slot(PeerId peer);
  /// True when a threshold walk can answer `context` under the bound
  /// model (false: the petition is on the model-pass list).
  [[nodiscard]] bool walkable(const SelectionContext& context) const noexcept;
  /// Stamps `slot`'s liveness and its peer's reputation at `sim_now`
  /// on `snap` (that slot's snapshot, or a copy of it).
  void stamp(const Slot& slot, PeerSnapshot& snap, Seconds sim_now) const;

  // ---- maintenance (all lazy, driven from select) ----
  void drain_liveness(Seconds sim_now);
  void drain_expiry(Seconds now);
  void flush_dirty(const SelectionContext& context, Seconds sim_now);
  void refresh_slot(std::uint32_t slot_index, const SelectionContext& context, Seconds sim_now);
  /// Re-keys an indexed slot that stays online, touching only the trees
  /// whose key moved and online_idle_ only when the idle flag flips.
  void rekey_in_place(Slot& slot, std::uint32_t slot_index, const SelectionContext& context);
  /// Calls f(tree, &Slot::key) for each criterion tree the bound model
  /// keys (ids_ excluded); `Self` is this index, const or not.
  template <typename Self, typename F>
  static void for_each_tree(Self& self, F&& f);
  void compute_keys(Slot& slot, std::uint32_t slot_index, const SelectionContext& context);
  void insert_into_trees(Slot& slot, bool idle);
  void remove_from_trees(Slot& slot);
  void push_live(std::uint32_t slot_index, double key);
  void push_expiry(std::uint32_t slot_index, double key);

  // ---- per-model fast paths ----
  void select_blind(std::size_t k, std::vector<PeerId>& out);
  /// Evaluator / user-preference: a walk over the one tree keyed by
  /// the model's zero-penalty cost, each peer scored `key + penalty ×
  /// scale` (scale 1, or the registry size for preference ranks).
  void select_tree(const RankedTree& tree, double Slot::*key, double scale, std::size_t k,
                   std::vector<PeerId>& out);
  void select_economic(const SelectionContext& context, std::size_t k, std::vector<PeerId>& out);
  void select_hybrid(const SelectionContext& context, std::size_t k, std::vector<PeerId>& out);

  // ---- threshold-walk plumbing ----
  void mark_excludes(const SelectionContext& context);
  [[nodiscard]] bool eligible(const Slot& slot, bool idle_gate) const noexcept;
  /// The models' reputation_penalty for `slot`'s peer under the current
  /// petition's weight: exactly 0.0 at weight 0, never negative.
  [[nodiscard]] double penalty(const Slot& slot) const;
  /// Offers `scored` to the k-capped best_heap_ ((value, peer) order).
  void keep(const Scored& scored, std::size_t k);
  /// Exact min (or max) of `value_of` over eligible indexed peers,
  /// using `cursors` and the matching monotone value bound `bound_of`:
  /// a top-1 walk, with top_k()'s budget/blown contract.
  template <typename ValueOf, typename BoundOf>
  double extremum(std::vector<Cursor>& cursors, bool want_max, bool idle_gate, ValueOf value_of,
                  BoundOf bound_of, std::size_t budget, bool& blown);
  /// Pulls until the k-th best exact (value, peer) pair is no worse
  /// than `bound_of`'s (value, peer) frontier bound — a pair every
  /// unseen peer's exact pair ranks strictly after; leaves the k best
  /// in best_heap_. Sets `blown` and returns early once
  /// the walk pulls more than `budget` entries — a degenerate
  /// (tie-heavy / uncorrelated) key distribution where the bound
  /// cannot converge; the caller finishes with a dense sweep.
  template <typename ValueOf, typename BoundOf>
  void top_k(std::vector<Cursor>& cursors, std::size_t k, bool idle_gate, ValueOf value_of,
             BoundOf bound_of, std::size_t budget, bool& blown);
  /// Budget-blown completion: evaluates every eligible indexed peer in
  /// slot order (no cursors, no bounds) into a k-capped heap. O(n)
  /// with a small constant — chains over flush-cached keys, no
  /// estimator or snapshot work — and exact by exhaustion.
  template <typename ValueOf>
  void dense_top_k(std::size_t k, bool idle_gate, ValueOf value_of);
  /// Writes best_heap_ to `out`, best first.
  void emit_scored(std::vector<PeerId>& out);
  /// Per-walk pull budget before a walk abandons threshold bounds.
  [[nodiscard]] std::size_t pull_budget(std::size_t n_eligible) const noexcept {
    return 64 + n_eligible / 16;
  }

  Config config_;
  Metrics m_;
  const stats::HistoryStore* history_ = nullptr;
  ReputationFn reputation_;

  SelectionModel* model_ = nullptr;
  ModelKind kind_ = ModelKind::kNone;
  BlindModel* blind_ = nullptr;
  EconomicSchedulingModel* economic_ = nullptr;
  DataEvaluatorModel* evaluator_ = nullptr;
  UserPreferenceModel* preference_ = nullptr;
  HybridModel* hybrid_ = nullptr;
  /// The evaluator whose cost keys t_eval_ (the evaluator model
  /// itself, or the hybrid's term); null when neither is bound.
  const DataEvaluatorModel* eval_term_ = nullptr;
  /// True when the bound evaluator weights the sliding message window
  /// (the only time-varying criterion) — arms the expiry heap.
  bool window_sensitive_ = false;

  std::vector<Slot> slots_;
  std::vector<PeerSnapshot> snaps_;  // snaps_[i] belongs to slots_[i]
  std::unordered_map<PeerId, std::uint32_t> slot_of_;
  std::vector<std::uint32_t> dirty_;
  bool all_dirty_ = false;

  // Order-statistics trees (distinct salts decorrelate treap shapes).
  RankedTree ids_{1};        // all online peers, keyed 0.0 → ordered by id
  RankedTree t_static_{2};   // user-preference base cost
  RankedTree t_eval_{3};     // data-evaluator cost
  RankedTree t_base_{4};     // economic ready time
  RankedTree t_speed_{5};    // historical effective speed (or cpu)
  RankedTree t_rate_{6};     // historical transfer rate (or default)
  RankedTree t_resp_{7};     // mean response time (or 0)
  RankedTree t_price_{8};    // advertised price
  RankedTree t_cpu_{9};      // advertised cpu
  std::size_t online_idle_ = 0;

  std::vector<HeapEntry> live_heap_;
  std::vector<HeapEntry> expiry_heap_;

  // Scratch (reused across selects).
  std::vector<Scored> best_heap_;
  std::vector<Cursor> cursors_;
  std::uint64_t walk_epoch_ = 0;
  std::uint64_t select_epoch_ = 0;
  double weight_ = 0.0;          // reputation_weight of the current petition
  std::size_t excl_online_ = 0;  // excluded ∩ online, set by mark_excludes
  std::size_t excl_idle_ = 0;    // excluded ∩ online ∩ idle

  std::uint64_t fast_path_ = 0;
  std::uint64_t fallbacks_ = 0;
  std::uint64_t rekeys_ = 0;
  std::uint64_t pulls_ = 0;
  std::uint64_t dense_sweeps_ = 0;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t tree_updates_ = 0;
};

}  // namespace peerlab::core

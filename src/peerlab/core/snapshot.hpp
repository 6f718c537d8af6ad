#pragma once

// PeerSnapshot: everything a selection model may know about a candidate
// peer at decision time. The broker's candidate index keeps one per
// registered client, fed from its registry, statistics and history;
// models stay decoupled from the overlay and are unit-testable on
// synthetic snapshots. Plain data, trivially copyable.

#include <algorithm>
#include <vector>

#include "peerlab/common/ids.hpp"
#include "peerlab/common/units.hpp"
#include "peerlab/obs/trace_context.hpp"
#include "peerlab/stats/history.hpp"
#include "peerlab/stats/peer_statistics.hpp"

namespace peerlab::core {

struct PeerSnapshot {
  PeerId peer;

  // Advertised/static properties.
  GigaHertz cpu_ghz = 1.0;
  double price_per_cpu_second = 1.0;

  // Broker-observed dynamic state.
  bool online = true;
  /// True when the peer is not executing anything right now.
  bool idle = true;
  /// Tasks queued (including running) at the peer.
  int queued_tasks = 0;
  /// File transfers currently inbound to the peer.
  int active_transfers = 0;

  /// Broker-observed outcome reputation in [0, 1]; 1 is a peer whose
  /// observed behaviour matches its advertisements, lower means
  /// attributed failures (aborted shares, unanswered petitions,
  /// throughput shortfall vs its own track record). Neutral (1.0) when
  /// reputation tracking is disabled, so models see no signal.
  double reputation = 1.0;

  // Read-only views of broker-kept data. May be null (models must
  // degrade gracefully — a brand-new peergroup has no history).
  const stats::PeerStatistics* statistics = nullptr;
  const stats::HistoryStore* history = nullptr;
};

/// DBC-style objective for economically-constrained petitions, after
/// Buyya et al.'s deadline/budget-constrained scheduling (see
/// peerlab::econ and DESIGN.md §17). A petition that carries an
/// explicit objective overrides the broker's configured default;
/// kBrokerDefault defers to it.
enum class EconObjective : std::uint8_t {
  kBrokerDefault = 0,
  /// Cheapest candidate that still meets the deadline.
  kCostOptimise,
  /// Fastest candidate that still fits the budget.
  kTimeOptimise,
  /// Cost-optimise with completion time breaking cost ties (Buyya's
  /// cost-time algorithm).
  kCostTime,
  /// Dubey–Tokekar real-time efficiency score (latency + capability +
  /// availability), highest first.
  kEfficiency,
};

[[nodiscard]] const char* to_string(EconObjective objective) noexcept;

/// What the requester is about to do with the selected peer; models
/// weigh signals differently for a 100 MB file push than for a task.
struct SelectionContext {
  enum class Purpose : std::uint8_t { kFileTransfer, kTaskExecution, kGeneric };

  Seconds now = 0.0;
  Purpose purpose = Purpose::kGeneric;
  /// File size for transfers (0 when not applicable).
  Bytes payload_size = 0;
  /// Compute work for task execution (0 when not applicable).
  GigaCycles work = 0.0;
  /// Economic model inputs: absolute completion deadline and maximum
  /// budget; 0 disables the respective constraint.
  Seconds deadline = 0.0;
  double budget = 0.0;
  /// Ranking objective for constrained petitions (see peerlab::econ).
  /// Rides the petition wire format with the rest of the context — the
  /// client parks the whole SelectionContext and the broker peeks it.
  EconObjective objective = EconObjective::kBrokerDefault;
  /// Peers every model must skip regardless of score — the requester
  /// itself, or peers that already failed this workload (failover
  /// re-petitions exclude the peer whose share just died).
  std::vector<PeerId> exclude;
  /// Strength of the reputation penalty every model adds to its cost:
  /// `reputation_weight * (1 - snapshot.reputation)`. 0 (the default)
  /// disables the term exactly — the multiplication yields 0.0 for any
  /// finite reputation, so rankings are bit-identical to a build that
  /// never heard of reputation.
  double reputation_weight = 0.0;
  /// Causal chain of the distribution/petition this selection serves
  /// (inactive = untraced). Models never read it; the broker stamps
  /// ranking events with it.
  obs::trace::TraceContext trace;

  [[nodiscard]] bool excluded(PeerId peer) const noexcept {
    return std::find(exclude.begin(), exclude.end(), peer) != exclude.end();
  }

  /// True when the petition carries an economic constraint or an
  /// explicit objective — the only petitions the broker's econ engine
  /// (and the economic model's feasibility filter) ever act on. A
  /// zero-budget / zero-deadline / default-objective context takes the
  /// pristine selection path bit for bit.
  [[nodiscard]] bool econ_constrained() const noexcept {
    return deadline > 0.0 || budget > 0.0 || objective != EconObjective::kBrokerDefault;
  }

  /// The additive cost penalty for a candidate's reputation; exactly
  /// 0.0 when reputation_weight is 0 (defenses off / idle subsystem).
  [[nodiscard]] double reputation_penalty(const PeerSnapshot& c) const noexcept {
    return reputation_weight * (1.0 - c.reputation);
  }
};

[[nodiscard]] const char* to_string(SelectionContext::Purpose purpose) noexcept;

}  // namespace peerlab::core

#pragma once

// SelectionModel: the interface the paper's three peer-selection models
// implement (plus the blind baseline). A model ranks candidate peers
// best-first; select() returns the winner. Models must be deterministic
// functions of (candidates, context) and their own configuration — all
// stochastic behaviour lives in the network, never in the policy.
//
// The ranking hook is rank_into(): implementations write the result
// into a caller-provided vector and build every intermediate on the
// model's arena (see peerlab::mem::Arena), so a warmed model answers
// petitions with zero steady-state heap allocations — the petition
// path is the simulator's hottest selection loop (DESIGN.md §13).
// select() is a non-virtual convenience on top.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "peerlab/core/snapshot.hpp"
#include "peerlab/mem/arena.hpp"

namespace peerlab::core {

class SelectionModel {
 public:
  SelectionModel() = default;
  // Movable (factory helpers return models by value); the arena moves
  // with the model, copies make no sense for stateful policies.
  SelectionModel(SelectionModel&&) = default;
  SelectionModel& operator=(SelectionModel&&) = default;
  virtual ~SelectionModel() = default;

  /// Human-readable model name ("economic", "data-evaluator", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Ranks eligible candidates best-first into `out` (cleared first).
  /// Offline peers are never returned; an empty result means no
  /// eligible candidate. Implementations reset and reuse arena() for
  /// every intermediate, so a warmed call does not touch the heap
  /// beyond `out`'s own (reused) capacity.
  virtual void rank_into(std::span<const PeerSnapshot> candidates,
                         const SelectionContext& context, std::vector<PeerId>& out) = 0;

  /// The best candidate, or an invalid id when none is eligible.
  /// Ranks into a reused member buffer: allocation-free once warmed.
  [[nodiscard]] PeerId select(std::span<const PeerSnapshot> candidates,
                              const SelectionContext& context);

 protected:
  /// Per-model scratch arena for rank_into() intermediates. Contents
  /// live only for the duration of one call.
  [[nodiscard]] mem::Arena& arena() noexcept { return arena_; }

 private:
  mem::Arena arena_;
  std::vector<PeerId> ranking_;  // reused by select()
};

/// Scored ranking helper shared by the models: orders by ascending cost
/// with peer id as the deterministic tiebreak.
struct ScoredPeer {
  PeerId peer;
  double cost = 0.0;
};

/// Sorts `scored` in place by (cost, peer) and appends the peers to
/// `out`. Uses std::sort — peers are distinct per call, so the
/// comparator is a total order and the sorted permutation is unique;
/// stability adds nothing but an allocation.
void append_ranked(std::span<ScoredPeer> scored, std::vector<PeerId>& out);

}  // namespace peerlab::core

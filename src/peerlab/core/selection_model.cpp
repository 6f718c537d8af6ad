#include "peerlab/core/selection_model.hpp"

#include <algorithm>

namespace peerlab::core {

PeerId SelectionModel::select(std::span<const PeerSnapshot> candidates,
                              const SelectionContext& context) {
  rank_into(candidates, context, ranking_);
  return ranking_.empty() ? PeerId{} : ranking_.front();
}

void append_ranked(std::span<ScoredPeer> scored, std::vector<PeerId>& out) {
  std::sort(scored.begin(), scored.end(), [](const ScoredPeer& a, const ScoredPeer& b) {
    if (a.cost != b.cost) return a.cost < b.cost;
    return a.peer < b.peer;
  });
  for (const auto& s : scored) out.push_back(s.peer);
}

}  // namespace peerlab::core

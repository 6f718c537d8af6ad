#pragma once

// ranked(): a selection model's full ranking as a fresh vector, through
// the model's one ranking hook, rank_into().

#include <span>
#include <vector>

#include "peerlab/core/selection_model.hpp"

namespace peerlab::testing {

inline std::vector<PeerId> ranked(core::SelectionModel& model,
                                  std::span<const core::PeerSnapshot> candidates,
                                  const core::SelectionContext& context) {
  std::vector<PeerId> out;
  model.rank_into(candidates, context, out);
  return out;
}

}  // namespace peerlab::testing

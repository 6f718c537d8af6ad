#pragma once

// Shared in-process registries for one overlay deployment: the
// ticket stores that carry structured payloads (stats deltas,
// selection contexts and result lists) across the payload-free control
// plane (see common/ticket_store.hpp), plus the per-subsystem
// directories the lower layers already use.

#include <vector>

#include "peerlab/common/ticket_store.hpp"
#include "peerlab/core/snapshot.hpp"
#include "peerlab/jxta/discovery.hpp"
#include "peerlab/stats/history.hpp"
#include "peerlab/transport/file_transfer.hpp"

namespace peerlab::overlay {

/// Batched observations a client reports to its broker. `subject` is
/// the peer the observations are about (often not the reporter: the
/// file sender observed the *receiver's* behaviour).
struct StatsDelta {
  PeerId subject;
  int msg_ok = 0;
  int msg_fail = 0;
  int task_accept = 0;
  int task_reject = 0;
  int exec_ok = 0;
  int exec_fail = 0;
  int file_done = 0;
  int file_cancel = 0;
  int file_fail = 0;
  std::vector<Seconds> response_times;
  std::vector<stats::TaskRecord> task_records;
  std::vector<stats::TransferRecord> transfer_records;
  /// Self-reported queue samples; negative = not sampled.
  double outbox_sample = -1.0;
  double inbox_sample = -1.0;
  int pending_transfers = -1;
  /// Causal chain of the workload these observations came from
  /// (inactive = untraced); stamps the broker's kStatsApply event.
  obs::trace::TraceContext trace;
};

struct OverlayDirectories {
  transport::FileTransferDirectory transfers;
  jxta::RendezvousDirectory rendezvous;
  TicketStore<StatsDelta> stats_reports;
  TicketStore<std::vector<PeerId>> selections;
  TicketStore<core::SelectionContext> selection_contexts;
};

/// peerlab convention: exactly one overlay peer per node, with the
/// peer id numerically equal to its node id. Keeps addressing
/// deterministic without a resolution protocol in every code path.
[[nodiscard]] constexpr PeerId peer_of(NodeId node) noexcept { return PeerId(node.value()); }
[[nodiscard]] constexpr NodeId node_of(PeerId peer) noexcept { return NodeId(peer.value()); }

}  // namespace peerlab::overlay

#pragma once

// Scoped timers feeding obs::Histogram.
//
// ScopedSpan measures elapsed *virtual* time — the quantity the paper
// reports (petition latency, transfer time). WallSpan measures
// wall-clock time with steady_clock for profiling engine hot paths
// (FlowScheduler re-levels run within a single sim instant, so their
// virtual elapsed is always zero). Both are zero-cost when detached:
// constructed with a null histogram they read no clock and record
// nothing, mirroring the null-handle idiom of metric attachment.
//
// The event loop itself cannot be instrumented from inside sim (obs
// sits above sim in the layer graph), so run_profiled() drives a
// simulator externally in wall-timed batches.

#include <chrono>

#include "peerlab/common/units.hpp"
#include "peerlab/obs/metrics.hpp"
#include "peerlab/sim/simulator.hpp"

namespace peerlab::obs {

/// RAII timer over virtual time: records now() − start into the
/// histogram at destruction. Null histogram → no-op.
class ScopedSpan {
 public:
  ScopedSpan(Histogram* hist, const sim::Simulator& sim) noexcept
      : hist_(hist), sim_(&sim), begin_(hist != nullptr ? sim.now() : 0.0) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (hist_ != nullptr) hist_->record(sim_->now() - begin_);
  }

  /// Records now and disarms, for spans that end before scope exit.
  void finish() noexcept {
    if (hist_ != nullptr) hist_->record(sim_->now() - begin_);
    hist_ = nullptr;
  }

  /// Disarms without recording (e.g. the measured operation failed and
  /// its latency should not pollute the success distribution).
  void cancel() noexcept { hist_ = nullptr; }

 private:
  Histogram* hist_;
  const sim::Simulator* sim_;
  Seconds begin_;
};

/// RAII timer over wall-clock time (seconds), for profiling engine
/// internals. Null histogram → the clock is never read.
class WallSpan {
 public:
  explicit WallSpan(Histogram* hist) noexcept : hist_(hist) {
    if (hist_ != nullptr) begin_ = std::chrono::steady_clock::now();
  }

  WallSpan(const WallSpan&) = delete;
  WallSpan& operator=(const WallSpan&) = delete;

  ~WallSpan() {
    if (hist_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - begin_;
      hist_->record(std::chrono::duration<double>(elapsed).count());
    }
  }

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point begin_;
};

/// Runs the simulator to completion, recording wall-clock seconds per
/// `batch` executed events into `hist` (null → plain sim.run()).
/// Returns total events executed. This is the EventQueue hot-path
/// profiler: batching keeps the clock reads off the per-event path.
inline std::uint64_t run_profiled(sim::Simulator& sim, Histogram* hist,
                                  std::uint64_t batch = 1024) {
  if (hist == nullptr) return sim.run();
  std::uint64_t total = 0;
  // step() fires daemon events too, so the loop must use run()'s exit
  // condition (non-daemon work remains), not queue emptiness —
  // heartbeat daemons reschedule themselves forever.
  while (sim.has_pending_work()) {
    std::uint64_t executed = 0;
    {
      WallSpan span(hist);
      executed = sim.step(batch);
    }
    total += executed;
    if (executed == 0) break;
  }
  return total;
}

}  // namespace peerlab::obs

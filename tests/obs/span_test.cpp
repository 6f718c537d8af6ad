#include "peerlab/obs/span.hpp"

#include <gtest/gtest.h>

#include "peerlab/obs/metrics.hpp"
#include "peerlab/sim/simulator.hpp"

namespace peerlab::obs {
namespace {

TEST(ScopedSpan, RecordsVirtualElapsed) {
  sim::Simulator sim;
  Histogram h;
  sim.schedule(1.0, [&] {
    auto* span = new ScopedSpan(&h, sim);
    sim.schedule(2.5, [span] { delete span; });
  });
  sim.run();
  ASSERT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 2.5);
}

TEST(ScopedSpan, NullHistogramIsNoop) {
  sim::Simulator sim;
  ScopedSpan span(nullptr, sim);
  span.finish();  // must not crash
}

TEST(ScopedSpan, CancelSuppressesRecording) {
  sim::Simulator sim;
  Histogram h;
  {
    ScopedSpan span(&h, sim);
    span.cancel();
  }
  EXPECT_EQ(h.count(), 0u);
}

TEST(ScopedSpan, FinishRecordsOnceOnly) {
  sim::Simulator sim;
  Histogram h;
  {
    ScopedSpan span(&h, sim);
    span.finish();
  }  // destructor must not double-record
  EXPECT_EQ(h.count(), 1u);
}

TEST(WallSpan, RecordsNonNegativeWallTime) {
  Histogram h;
  { WallSpan span(&h); }
  ASSERT_EQ(h.count(), 1u);
  EXPECT_GE(h.min(), 0.0);
}

TEST(RunProfiled, MatchesPlainRunAndTerminatesWithDaemons) {
  sim::Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(i * 0.1, [&] { ++fired; });
  }
  // A self-rescheduling daemon must not keep the profiler spinning.
  std::function<void()> heartbeat = [&] { sim.schedule_daemon(0.05, heartbeat); };
  sim.schedule_daemon(0.05, heartbeat);

  Histogram h;
  const std::uint64_t executed = run_profiled(sim, &h, /*batch=*/4);
  EXPECT_EQ(fired, 10);
  EXPECT_GE(executed, 10u);
  EXPECT_GE(h.count(), 1u);
}

}  // namespace
}  // namespace peerlab::obs

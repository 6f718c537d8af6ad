// Churn properties: under randomized stop/start schedules the overlay
// must keep its books straight — liveness converges to the true peer
// state, selection only offers online peers, and work submitted to the
// survivors still completes.

#include <gtest/gtest.h>

#include <set>

#include "peerlab/core/economic.hpp"
#include "peerlab/planetlab/deployment.hpp"

namespace peerlab::overlay {
namespace {

struct ChurnPlan {
  std::uint64_t seed;
  int crash_count;    // peers taken down mid-run
  bool recover;       // whether they come back
};

std::string plan_name(const ChurnPlan& p) {
  return "s" + std::to_string(p.seed) + "_c" + std::to_string(p.crash_count) +
         (p.recover ? "_rec" : "_norec");
}

// ctest lists each case as "<name> # GetParam() = <printed param>";
// without this overload the param prints as raw bytes (padding
// included), so the names could differ between builds.
void PrintTo(const ChurnPlan& p, std::ostream* os) { *os << plan_name(p); }

class ChurnTest : public ::testing::TestWithParam<ChurnPlan> {};

TEST_P(ChurnTest, LivenessConvergesAndSurvivorsServe) {
  const auto plan = GetParam();
  sim::Simulator sim(plan.seed);
  planetlab::DeploymentOptions opts;
  opts.client.heartbeat_interval = 10.0;
  planetlab::Deployment dep(sim, opts);
  dep.boot();
  dep.broker().set_selection_model(std::make_unique<core::EconomicSchedulingModel>());

  // Pick distinct victims deterministically from the seed.
  sim::Rng rng(plan.seed * 7 + 3);
  std::set<int> victims;
  while (static_cast<int>(victims.size()) < plan.crash_count) {
    victims.insert(1 + static_cast<int>(rng.uniform_int(0, 7)));
  }

  sim.schedule(50.0, [&] {
    for (const int v : victims) dep.sc(v).stop();
  });
  if (plan.recover) {
    sim.schedule(600.0, [&] {
      for (const int v : victims) dep.sc(v).start();
    });
  }

  // Phase 1: after the crash settles, liveness matches reality and
  // selection only offers the survivors.
  sim.run_until(250.0);
  for (int i = 1; i <= 8; ++i) {
    EXPECT_EQ(dep.broker().online(dep.sc_peer(i)), victims.count(i) == 0) << "SC" << i;
  }
  core::SelectionContext ctx;
  ctx.now = sim.now();
  const auto offered = dep.broker().select_peers(ctx, 99);
  EXPECT_EQ(offered.size(), 8u - victims.size());
  for (const auto peer : offered) {
    bool is_victim = false;
    for (const int v : victims) is_victim |= (peer == dep.sc_peer(v));
    EXPECT_FALSE(is_victim) << "selection offered a dead peer";
  }

  // Phase 2: work routed through the broker completes on survivors.
  Primitives api(dep.control());
  int done = 0, failed = 0;
  for (int j = 0; j < 6; ++j) {
    api.submit_task_auto(30.0, 0, [&](const TaskOutcome& o) {
      (o.accepted && o.ok ? done : failed)++;
    });
  }
  sim.run();
  EXPECT_EQ(done, 6);
  EXPECT_EQ(failed, 0);

  // Phase 3: recovery restores the full group.
  if (plan.recover) {
    sim.run_until(std::max(sim.now(), 700.0));
    for (int i = 1; i <= 8; ++i) {
      EXPECT_TRUE(dep.broker().online(dep.sc_peer(i))) << "SC" << i << " after recovery";
    }
    EXPECT_EQ(dep.broker().select_peers(ctx, 99).size(), 8u);
  }
}

INSTANTIATE_TEST_SUITE_P(Plans, ChurnTest,
                         ::testing::Values(ChurnPlan{1, 1, true}, ChurnPlan{2, 2, true},
                                           ChurnPlan{3, 3, false}, ChurnPlan{4, 4, true},
                                           ChurnPlan{5, 2, false}, ChurnPlan{6, 5, true}),
                         [](const ::testing::TestParamInfo<ChurnPlan>& info) {
                           return plan_name(info.param);
                         });

}  // namespace
}  // namespace peerlab::overlay

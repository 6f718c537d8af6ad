// Adversarial distribution properties: scatter a file over a testbed
// where a seeded mix of leeches (refuse + fabricate praise), flappers
// (accept-then-abort) and honest churn is active, with the broker's
// defenses off and on. Whatever the hostile mix, the run must resolve
// (no hangs), fire its completion callback exactly once, keep the
// share bookkeeping attributed and byte-exact, and replay bit-for-bit
// from the same seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "peerlab/adversary/behavior_plan.hpp"
#include "peerlab/common/check.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/net/fault_plan.hpp"
#include "peerlab/planetlab/deployment.hpp"

namespace peerlab::overlay {
namespace {

struct HostilePlan {
  std::uint64_t seed;
  int leeches;    // compound free-rider + stats-liar adversaries
  int flappers;   // accept-then-abort adversaries
  bool churn;     // one honest peer also crashes mid-run (and returns)
  bool defended;  // broker reputation defenses
};

std::string plan_name(const HostilePlan& p) {
  return "s" + std::to_string(p.seed) + "_l" + std::to_string(p.leeches) + "_f" +
         std::to_string(p.flappers) + (p.churn ? "_churn" : "") +
         (p.defended ? "_def" : "_off");
}

// ctest lists each case as "<name> # GetParam() = <printed param>";
// without this overload the param prints as raw bytes (padding
// included), so the names could differ between builds.
void PrintTo(const HostilePlan& p, std::ostream* os) { *os << plan_name(p); }

struct HostileOutcome {
  FileService::DistributionResult result;
  Seconds resolved_at = 0.0;
  int callbacks = 0;
  std::uint64_t refusals = 0;
  std::uint64_t aborts = 0;
  std::uint64_t lies = 0;
  PeerId control;
};

HostileOutcome run_hostile(const HostilePlan& plan) {
  sim::Simulator sim(plan.seed);
  planetlab::DeploymentOptions opts;
  opts.client.heartbeat_interval = 10.0;
  if (plan.defended) {
    opts.broker.reputation.enabled = true;
    opts.broker.reputation.quarantine_duration = 600.0;
  }
  planetlab::Deployment dep(sim, opts);

  // Adversaries drawn from a seeded shuffle of SC1..SC8; the last pool
  // entry stays honest and doubles as the churn victim so the two fault
  // populations never overlap.
  std::vector<PeerId> pool;
  for (int i = 1; i <= 8; ++i) pool.push_back(dep.sc_peer(i));
  sim::Rng pick = sim.rng().fork(0xADull);
  pick.shuffle(pool);
  PEERLAB_CHECK(plan.leeches + plan.flappers < 8);
  adversary::BehaviorPlan hostile;
  std::size_t next = 0;
  for (int i = 0; i < plan.leeches; ++i, ++next) {
    hostile.free_rider(pool[next]);
    hostile.stats_liar(pool[next]);
  }
  for (int i = 0; i < plan.flappers; ++i, ++next) hostile.flapper(pool[next], 1);
  dep.install_adversaries(std::move(hostile));
  dep.boot();
  dep.broker().set_selection_model(std::make_unique<core::EconomicSchedulingModel>());

  if (plan.churn) {
    net::FaultPlan faults;
    faults.crash(sim.now() + 15.0, node_of(pool.back()), 120.0);
    dep.install_faults(std::move(faults));
  }

  transport::FileTransferConfig cfg;
  cfg.petition_retry.initial_timeout = 5.0;
  cfg.petition_retry.backoff = 1.5;
  cfg.petition_retry.max_attempts = 3;
  cfg.confirm_timeout = 15.0;
  cfg.max_confirm_queries = 3;
  cfg.max_part_attempts = 3;

  DistributionOptions dopts;
  dopts.max_failovers_per_share = 4;
  dopts.backoff_initial = 5.0;
  dopts.backoff_factor = 2.0;
  dopts.backoff_cap = 60.0;

  core::SelectionContext ctx;
  ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
  ctx.now = sim.now();
  const auto targets = dep.broker().select_peers(ctx, 3);
  PEERLAB_CHECK_MSG(!targets.empty(), "selection offered nobody");

  HostileOutcome out;
  dep.control().files().distribute(megabytes(12.0), 6, targets, cfg,
                                   [&](const FileService::DistributionResult& r) {
                                     out.result = r;
                                     out.resolved_at = sim.now();
                                     ++out.callbacks;
                                   },
                                   dopts);
  sim.run();

  out.control = dep.control().id();
  out.refusals = dep.adversaries()->refusals_decided();
  out.aborts = dep.adversaries()->aborts_decided();
  out.lies = dep.broker().reputation().lies_recorded();
  return out;
}

class AdversarialDistributionTest : public ::testing::TestWithParam<HostilePlan> {};

TEST_P(AdversarialDistributionTest, ResolvesWithAttributedBookkeeping) {
  const HostilePlan plan = GetParam();
  const HostileOutcome out = run_hostile(plan);

  // No hang, no double-completion: sim.run() returned and the
  // distribution callback fired exactly once.
  ASSERT_EQ(out.callbacks, 1);
  const auto& result = out.result;

  // Byte-exact bookkeeping: every part of the file is accounted to a
  // share, every share to a real SC peer (never the control sender).
  Bytes total = 0;
  int parts = 0;
  int incomplete = 0;
  int share_failovers = 0;
  for (const auto& share : result.shares) {
    total += share.bytes;
    parts += share.parts;
    share_failovers += share.failovers;
    incomplete += share.complete ? 0 : 1;
    EXPECT_TRUE(share.peer.valid());
    EXPECT_TRUE(share.original.valid());
    EXPECT_NE(share.peer, out.control);
    EXPECT_LE(share.failovers, 4);
    if (share.failovers == 0) {
      EXPECT_EQ(share.peer, share.original);
    }
  }
  EXPECT_EQ(total, megabytes(12.0));
  EXPECT_EQ(parts, 6);
  EXPECT_EQ(result.complete, incomplete == 0);
  EXPECT_EQ(result.failovers, share_failovers);
  EXPECT_GE(result.finished, result.started);

  // Attributed adversarial acts: a hostile mix that touched the run
  // shows up in the engine's decision counters, and a defended broker
  // catches the liars' heartbeat praise.
  if (plan.defended && plan.leeches > 0) {
    EXPECT_GT(out.lies, 0u);
  }
  if (!plan.defended) {
    EXPECT_EQ(out.lies, 0u);  // book never consulted nor fed
  }
}

TEST_P(AdversarialDistributionTest, ReplaysBitForBitFromTheSameSeed) {
  const HostilePlan plan = GetParam();
  const HostileOutcome a = run_hostile(plan);
  const HostileOutcome b = run_hostile(plan);
  EXPECT_DOUBLE_EQ(a.resolved_at, b.resolved_at);
  EXPECT_DOUBLE_EQ(a.result.makespan(), b.result.makespan());
  EXPECT_EQ(a.result.complete, b.result.complete);
  EXPECT_EQ(a.result.failovers, b.result.failovers);
  EXPECT_EQ(a.refusals, b.refusals);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_EQ(a.lies, b.lies);
  ASSERT_EQ(a.result.shares.size(), b.result.shares.size());
  for (std::size_t i = 0; i < a.result.shares.size(); ++i) {
    EXPECT_EQ(a.result.shares[i].peer, b.result.shares[i].peer);
    EXPECT_EQ(a.result.shares[i].complete, b.result.shares[i].complete);
    EXPECT_EQ(a.result.shares[i].failovers, b.result.shares[i].failovers);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Plans, AdversarialDistributionTest,
    ::testing::Values(HostilePlan{21, 0, 0, false, false},  // clean control
                      HostilePlan{22, 2, 0, false, false},  // undefended leeches
                      HostilePlan{23, 2, 0, false, true},   // defended leeches
                      HostilePlan{24, 1, 2, true, true},    // mixed + churn, defended
                      HostilePlan{25, 3, 1, true, false},   // heavy mix, undefended
                      HostilePlan{26, 2, 2, false, true}),  // mixed, defended
    [](const ::testing::TestParamInfo<HostilePlan>& info) { return plan_name(info.param); });

}  // namespace
}  // namespace peerlab::overlay

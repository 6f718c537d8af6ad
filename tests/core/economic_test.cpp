#include "peerlab/core/economic.hpp"

#include <gtest/gtest.h>

#include "peerlab/common/check.hpp"
#include "support/ranking.hpp"

namespace peerlab::core {
namespace {

using peerlab::testing::ranked;

PeerSnapshot peer(std::uint64_t id, bool idle = true, int queued = 0) {
  PeerSnapshot p;
  p.peer = PeerId(id);
  p.cpu_ghz = 1.0;
  p.price_per_cpu_second = 1.0;
  p.idle = idle;
  p.queued_tasks = queued;
  return p;
}

SelectionContext task_ctx(GigaCycles work = 60.0) {
  SelectionContext ctx;
  ctx.purpose = SelectionContext::Purpose::kTaskExecution;
  ctx.work = work;
  return ctx;
}

TEST(Economic, PrefersIdlePeersOverBusyOnes) {
  EconomicSchedulingModel model;
  std::vector<PeerSnapshot> peers{peer(1, /*idle=*/false, /*queued=*/3), peer(2, true, 0)};
  const auto ranking = ranked(model, peers, task_ctx());
  ASSERT_FALSE(ranking.empty());
  EXPECT_EQ(ranking.front(), PeerId(2));
  // With prefer_idle, the busy peer is excluded entirely.
  EXPECT_EQ(ranking.size(), 1u);
}

TEST(Economic, FallsBackToBusyPeersWhenNoneIdle) {
  EconomicSchedulingModel model;
  std::vector<PeerSnapshot> peers{peer(1, false, 5), peer(2, false, 1)};
  const auto ranking = ranked(model, peers, task_ctx());
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(ranking.front(), PeerId(2));  // shorter backlog wins
}

TEST(Economic, PreferIdleDisabledRanksEveryone) {
  EconomicConfig cfg;
  cfg.prefer_idle = false;
  EconomicSchedulingModel model(cfg);
  std::vector<PeerSnapshot> peers{peer(1, false, 3), peer(2, true, 0)};
  EXPECT_EQ(ranked(model, peers, task_ctx()).size(), 2u);
}

TEST(Economic, OfflinePeersAreNeverRanked) {
  EconomicSchedulingModel model;
  auto offline = peer(1);
  offline.online = false;
  std::vector<PeerSnapshot> peers{offline, peer(2)};
  const auto ranking = ranked(model, peers, task_ctx());
  ASSERT_EQ(ranking.size(), 1u);
  EXPECT_EQ(ranking[0], PeerId(2));
}

TEST(Economic, ReadyTimeGrowsWithBacklogUsingHistory) {
  stats::HistoryStore history;
  stats::TaskRecord rec;
  rec.task = TaskId(1);
  rec.peer = PeerId(1);
  rec.submitted = 0.0;
  rec.started = 0.0;
  rec.finished = 10.0;  // tasks take 10 s on this peer
  rec.ok = true;
  rec.work = 10.0;
  history.record_task(rec);

  EconomicSchedulingModel model;
  auto busy = peer(1, /*idle=*/false, /*queued=*/2);
  busy.history = &history;
  // 2 queued + 0.5 in-flight, 10 s each.
  EXPECT_NEAR(model.estimate_ready_time(busy), 25.0, 1e-9);
  auto idle = peer(1, true, 0);
  idle.history = &history;
  EXPECT_DOUBLE_EQ(model.estimate_ready_time(idle), 0.0);
}

TEST(Economic, ReadyTimeUsesFallbackWithoutHistory) {
  EconomicConfig cfg;
  cfg.default_execution_estimate = 30.0;
  EconomicSchedulingModel model(cfg);
  auto busy = peer(1, false, 1);
  EXPECT_NEAR(model.estimate_ready_time(busy), 1.5 * 30.0, 1e-9);
}

TEST(Economic, ServiceTimeUsesHistoricalSpeed) {
  stats::HistoryStore history;
  stats::TaskRecord rec;
  rec.task = TaskId(1);
  rec.peer = PeerId(1);
  rec.started = 0.0;
  rec.finished = 30.0;
  rec.ok = true;
  rec.work = 60.0;  // 2 GHz effective
  history.record_task(rec);

  EconomicSchedulingModel model;
  auto p = peer(1);
  p.cpu_ghz = 1.0;  // advertised slower than observed
  p.history = &history;
  // 120 Gcycles at 2 GHz = 60 s.
  EXPECT_NEAR(model.estimate_service_time(p, task_ctx(120.0)), 60.0, 1e-9);
}

TEST(Economic, ServiceTimeIncludesTransferForPayloads) {
  EconomicConfig cfg;
  cfg.default_rate_estimate = 8.0;
  EconomicSchedulingModel model(cfg);
  SelectionContext ctx;
  ctx.purpose = SelectionContext::Purpose::kFileTransfer;
  ctx.payload_size = megabytes(1.0);  // 1 s at 8 Mbit/s
  EXPECT_NEAR(model.estimate_service_time(peer(1), ctx), 1.0, 1e-9);
}

TEST(Economic, FasterCpuBreaksTies) {
  EconomicSchedulingModel model;
  auto slow = peer(1);
  auto fast = peer(2);
  fast.cpu_ghz = 3.0;
  // Same price, no history, no work => identical completion and cost.
  std::vector<PeerSnapshot> peers{slow, fast};
  SelectionContext ctx;
  const auto ranking = ranked(model, peers, ctx);
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(ranking.front(), PeerId(2));
}

TEST(Economic, CheaperPeerWinsWhenCostDominates) {
  EconomicConfig cfg;
  cfg.time_weight = 0.0;
  cfg.cost_weight = 1.0;
  EconomicSchedulingModel model(cfg);
  auto pricey = peer(1);
  pricey.price_per_cpu_second = 10.0;
  auto cheap = peer(2);
  cheap.price_per_cpu_second = 1.0;
  std::vector<PeerSnapshot> peers{pricey, cheap};
  EXPECT_EQ(ranked(model, peers, task_ctx()).front(), PeerId(2));
}

TEST(Economic, FasterPeerWinsWhenTimeDominates) {
  EconomicConfig cfg;
  cfg.time_weight = 1.0;
  cfg.cost_weight = 0.0;
  EconomicSchedulingModel model(cfg);
  auto slow_cheap = peer(1);
  slow_cheap.cpu_ghz = 0.5;
  slow_cheap.price_per_cpu_second = 0.1;
  auto fast_pricey = peer(2);
  fast_pricey.cpu_ghz = 3.0;
  fast_pricey.price_per_cpu_second = 10.0;
  std::vector<PeerSnapshot> peers{slow_cheap, fast_pricey};
  EXPECT_EQ(ranked(model, peers, task_ctx()).front(), PeerId(2));
}

TEST(Economic, BudgetFiltersExpensivePeers) {
  EconomicSchedulingModel model;
  auto pricey = peer(1);
  pricey.price_per_cpu_second = 100.0;
  auto cheap = peer(2);
  std::vector<PeerSnapshot> peers{pricey, cheap};
  auto ctx = task_ctx(60.0);  // 60 s of CPU at 1 GHz
  ctx.budget = 100.0;         // pricey peer would cost 6000
  const auto ranking = ranked(model, peers, ctx);
  ASSERT_EQ(ranking.size(), 1u);
  EXPECT_EQ(ranking[0], PeerId(2));
}

TEST(Economic, DeadlineFiltersSlowPeers) {
  EconomicSchedulingModel model;
  auto slow = peer(1);
  slow.cpu_ghz = 0.1;  // 600 s for the work
  auto fast = peer(2);
  fast.cpu_ghz = 2.0;  // 30 s
  std::vector<PeerSnapshot> peers{slow, fast};
  auto ctx = task_ctx(60.0);
  ctx.now = 0.0;
  ctx.deadline = 100.0;
  const auto ranking = ranked(model, peers, ctx);
  ASSERT_EQ(ranking.size(), 1u);
  EXPECT_EQ(ranking[0], PeerId(2));
}

TEST(Economic, AllInfeasibleStillOffersLeastBad) {
  EconomicSchedulingModel model;
  auto a = peer(1);
  a.cpu_ghz = 0.1;
  auto b = peer(2);
  b.cpu_ghz = 0.2;
  std::vector<PeerSnapshot> peers{a, b};
  auto ctx = task_ctx(600.0);
  ctx.deadline = 1.0;  // nobody makes it
  const auto ranking = ranked(model, peers, ctx);
  ASSERT_EQ(ranking.size(), 2u);  // broker never refuses service
  EXPECT_EQ(ranking.front(), PeerId(2));
}

TEST(Economic, RejectsDegenerateConfigs) {
  EconomicConfig bad;
  bad.time_weight = 0.0;
  bad.cost_weight = 0.0;
  EXPECT_THROW(EconomicSchedulingModel{bad}, InvariantError);
  bad = EconomicConfig{};
  bad.history_depth = 0;
  EXPECT_THROW(EconomicSchedulingModel{bad}, InvariantError);
  bad = EconomicConfig{};
  bad.default_rate_estimate = 0.0;
  EXPECT_THROW(EconomicSchedulingModel{bad}, InvariantError);
}

TEST(Economic, NameIsStable) {
  EXPECT_EQ(EconomicSchedulingModel{}.name(), "economic");
}

}  // namespace
}  // namespace peerlab::core

// Cross-model selection invariants, checked over randomized candidate
// populations:
//   (S1) determinism — same inputs, same ranking;
//   (S2) permutation invariance — candidate order must not matter
//        (stateless models; blind round-robin is exempt by design);
//   (S3) liveness filter — offline peers never appear;
//   (S4) completeness — every online peer appears exactly once;
//   (S5) economic dominance — strictly worsening one peer's load can
//        never move it up the economic ranking;
//   (S6) data-evaluator dominance — strictly improving one criterion
//        can never worsen the peer's cost.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "peerlab/core/blind.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/user_preference.hpp"
#include "peerlab/sim/rng.hpp"
#include "support/test_seed.hpp"
#include "support/ranking.hpp"

namespace peerlab::core {
namespace {

using peerlab::testing::ranked;

struct Population {
  std::deque<stats::PeerStatistics> statistics;
  stats::HistoryStore history;
  std::vector<PeerSnapshot> snapshots;
  std::vector<PeerId> ids;
};

Population random_population(std::uint64_t seed, int n) {
  Population pop;
  sim::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const PeerId peer(static_cast<std::uint64_t>(i + 1));
    auto& s = pop.statistics.emplace_back(3600.0);
    const int events = static_cast<int>(rng.uniform_int(0, 20));
    for (int e = 0; e < events; ++e) {
      s.record_message(static_cast<double>(e), rng.bernoulli(0.8));
      if (rng.bernoulli(0.3)) s.record_task_accept(rng.bernoulli(0.9));
      if (rng.bernoulli(0.3)) s.record_task_execution(rng.bernoulli(0.85));
      if (rng.bernoulli(0.2)) {
        s.record_file(rng.bernoulli(0.8) ? stats::FileOutcome::kCompleted
                                         : stats::FileOutcome::kFailed);
      }
    }
    s.sample_outbox(rng.uniform(0.0, 5.0));
    s.sample_inbox(rng.uniform(0.0, 5.0));
    s.set_pending_transfers(static_cast<int>(rng.uniform_int(0, 4)));
    if (rng.bernoulli(0.7)) {
      stats::TaskRecord record;
      record.task = TaskId(static_cast<std::uint64_t>(i + 1));
      record.peer = peer;
      record.submitted = 0.0;
      record.started = 1.0;
      record.finished = 1.0 + rng.uniform(5.0, 120.0);
      record.ok = true;
      record.work = rng.uniform(10.0, 100.0);
      pop.history.record_task(record);
      pop.history.record_response_time(peer, rng.uniform(0.02, 20.0));
    }

    PeerSnapshot snap;
    snap.peer = peer;
    snap.cpu_ghz = rng.uniform(0.8, 3.0);
    snap.price_per_cpu_second = rng.uniform(0.5, 3.0);
    snap.online = rng.bernoulli(0.85);
    snap.idle = rng.bernoulli(0.6);
    snap.queued_tasks = static_cast<int>(rng.uniform_int(0, 5));
    snap.active_transfers = static_cast<int>(rng.uniform_int(0, 3));
    snap.statistics = &pop.statistics.back();
    snap.history = &pop.history;
    pop.snapshots.push_back(std::move(snap));
    pop.ids.push_back(peer);
  }
  return pop;
}

SelectionContext random_context(std::uint64_t seed) {
  sim::Rng rng(seed * 3 + 5);
  SelectionContext ctx;
  ctx.now = 100.0;
  ctx.purpose = rng.bernoulli(0.5) ? SelectionContext::Purpose::kTaskExecution
                                   : SelectionContext::Purpose::kFileTransfer;
  ctx.work = rng.uniform(10.0, 200.0);
  ctx.payload_size = megabytes(rng.uniform(1.0, 100.0));
  return ctx;
}

std::vector<std::unique_ptr<SelectionModel>> stateless_models(const Population& pop) {
  std::vector<std::unique_ptr<SelectionModel>> models;
  models.push_back(std::make_unique<EconomicSchedulingModel>());
  models.push_back(std::make_unique<DataEvaluatorModel>(DataEvaluatorModel::same_priority()));
  models.push_back(std::make_unique<UserPreferenceModel>(
      UserPreferenceModel::quick_peer(pop.history, pop.ids)));
  return models;
}

class SelectionInvariantsTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectionInvariantsTest, DeterministicAndPermutationInvariant) {
  const auto seed = GetParam();
  auto pop = random_population(seed, 20);
  const auto ctx = random_context(seed);

  for (auto& model : stateless_models(pop)) {
    const auto first = ranked(*model, pop.snapshots, ctx);
    const auto second = ranked(*model, pop.snapshots, ctx);
    EXPECT_EQ(first, second) << model->name() << " is nondeterministic";  // (S1)

    auto shuffled = pop.snapshots;
    sim::Rng rng(seed + 1);
    rng.shuffle(shuffled);
    const auto third = ranked(*model, shuffled, ctx);
    EXPECT_EQ(first, third) << model->name() << " depends on candidate order";  // (S2)
  }
}

TEST_P(SelectionInvariantsTest, RankingsAreExactlyTheOnlinePeers) {
  const auto seed = GetParam();
  auto pop = random_population(seed, 20);
  const auto ctx = random_context(seed);

  std::vector<PeerId> online;
  for (const auto& s : pop.snapshots) {
    if (s.online) online.push_back(s.peer);
  }
  std::sort(online.begin(), online.end());

  for (auto& model : stateless_models(pop)) {
    auto ranking = ranked(*model, pop.snapshots, ctx);
    // (S3)+(S4): possibly filtered further (economic prefer-idle), but
    // never duplicated, never offline, never unknown.
    auto sorted = ranking;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
        << model->name() << " duplicated a peer";
    for (const auto peer : ranking) {
      EXPECT_TRUE(std::binary_search(online.begin(), online.end(), peer))
          << model->name() << " ranked an offline peer";
    }
  }
  // Data evaluator and user preference rank *all* online peers.
  DataEvaluatorModel evaluator = DataEvaluatorModel::same_priority();
  EXPECT_EQ(ranked(evaluator, pop.snapshots, ctx).size(), online.size());
  UserPreferenceModel preference({});
  EXPECT_EQ(ranked(preference, pop.snapshots, ctx).size(), online.size());
}

TEST_P(SelectionInvariantsTest, EconomicLoadDominance) {
  const auto seed = GetParam();
  auto pop = random_population(seed, 12);
  auto ctx = random_context(seed);
  ctx.deadline = 0.0;
  ctx.budget = 0.0;
  EconomicConfig cfg;
  cfg.prefer_idle = false;  // keep every candidate comparable
  EconomicSchedulingModel model(cfg);

  const auto before = ranked(model, pop.snapshots, ctx);
  if (before.size() < 2) return;
  // Worsen the top peer's load drastically: it must not stay strictly
  // ahead of everyone (S5) — its rank can only degrade or stay equal,
  // never improve.
  const PeerId victim = before.front();
  for (auto& snap : pop.snapshots) {
    if (snap.peer == victim) {
      snap.queued_tasks += 50;
      snap.idle = false;
      snap.active_transfers += 10;
    }
  }
  const auto after = ranked(model, pop.snapshots, ctx);
  const auto pos_before =
      std::find(before.begin(), before.end(), victim) - before.begin();
  const auto pos_after = std::find(after.begin(), after.end(), victim) - after.begin();
  EXPECT_GE(pos_after, pos_before) << "more load improved the economic rank";
}

TEST_P(SelectionInvariantsTest, DataEvaluatorCriterionDominance) {
  const auto seed = GetParam();
  sim::Rng rng(seed);
  DataEvaluatorModel model = DataEvaluatorModel::same_priority();
  SelectionContext ctx;
  ctx.now = 50.0;

  // Two peers identical except one extra success for peer A: A's cost
  // must be <= B's. Repeat over several criterion kinds.
  for (int trial = 0; trial < 8; ++trial) {
    stats::PeerStatistics a(3600.0), b(3600.0);
    const int base = static_cast<int>(rng.uniform_int(1, 10));
    for (int i = 0; i < base; ++i) {
      const bool ok = rng.bernoulli(0.5);
      a.record_message(static_cast<double>(i), ok);
      b.record_message(static_cast<double>(i), ok);
    }
    a.record_message(static_cast<double>(base), true);
    b.record_message(static_cast<double>(base), false);

    PeerSnapshot pa, pb;
    pa.peer = PeerId(1);
    pa.statistics = &a;
    pb.peer = PeerId(2);
    pb.statistics = &b;
    EXPECT_LE(model.cost(pa, ctx), model.cost(pb, ctx));
  }
}

// Ten seeds derived from the repo-wide base (PEERLAB_TEST_SEED); the
// failing seed is part of the parameterized test's name, so a red run
// is replayable with PEERLAB_TEST_SEED=<that seed>.
INSTANTIATE_TEST_SUITE_P(Seeds, SelectionInvariantsTest,
                         ::testing::Range(peerlab::testing::test_seed(),
                                          peerlab::testing::test_seed() + 10));

}  // namespace
}  // namespace peerlab::core

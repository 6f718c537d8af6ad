// Broker-level selection equivalence under churn and adversarial
// stats interleavings, plus the failover-rebuild pin: a broker whose
// candidate index answered from incremental state must return exactly
// what the frozen scan reference computes from the reference snapshots
// (tests/support/reference_snapshots.hpp, built from the broker's
// registry without the index), for all five models, across ≥ 24 seeds
// — and an index rebuilt from adopted (replicated) state must keep
// that property. Defended arms turn the broker's reputation defenses
// on: the reference then applies the broker's overlay itself (penalty
// weight, quarantine excludes, the lift when they empty the set) and
// the index must still walk every non-blind petition. Econ arms turn
// the econ engine on and send constrained petitions, which the index's
// model pass answers with the full ranking that admission re-ranks:
// the reference's full ranking followed by a twin engine's
// admit_and_rank over the reference snapshots. After every petition the
// index must also pass check_consistency(): each indexed peer in each
// of its trees at its cached keys, and the idle count exact.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "core/selection_reference.hpp"
#include "overlay/overlay_world.hpp"
#include "peerlab/core/blind.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/hybrid.hpp"
#include "peerlab/core/user_preference.hpp"
#include "peerlab/obs/trace.hpp"
#include "peerlab/obs/watchdog.hpp"
#include "support/test_seed.hpp"

namespace peerlab::overlay {
namespace {

using testing::OverlayWorld;
using testing::WorldOptions;

constexpr int kSeeds = 24;
constexpr int kClients = 8;

enum class ModelChoice { kBlind, kEconomic, kEvaluator, kUserPreference, kHybrid };

struct RefSet {
  std::unique_ptr<peerlab::testing::ReferenceBlind> blind;
  std::unique_ptr<peerlab::testing::ReferenceEconomic> economic;
  std::unique_ptr<peerlab::testing::ReferenceEvaluator> evaluator;
  std::unique_ptr<peerlab::testing::ReferenceUserPreference> preference;
  std::unique_ptr<peerlab::testing::ReferenceHybrid> hybrid;
};

void install(ModelChoice choice, BrokerPeer& broker, RefSet& refs) {
  switch (choice) {
    case ModelChoice::kBlind:
      broker.set_selection_model(std::make_unique<core::BlindModel>());
      refs.blind = std::make_unique<peerlab::testing::ReferenceBlind>();
      break;
    case ModelChoice::kEconomic:
      broker.set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
      refs.economic = std::make_unique<peerlab::testing::ReferenceEconomic>();
      break;
    case ModelChoice::kEvaluator:
      broker.set_selection_model(
          std::make_unique<core::DataEvaluatorModel>(core::DataEvaluatorModel::same_priority()));
      refs.evaluator = std::make_unique<peerlab::testing::ReferenceEvaluator>(
          peerlab::testing::ReferenceEvaluator::same_priority());
      break;
    case ModelChoice::kUserPreference: {
      std::vector<PeerId> order;
      for (int i = kClients; i >= 1; --i) order.push_back(peer_of(NodeId(i + 1)));
      broker.set_selection_model(std::make_unique<core::UserPreferenceModel>(order));
      refs.preference = std::make_unique<peerlab::testing::ReferenceUserPreference>(order);
      break;
    }
    case ModelChoice::kHybrid:
      broker.set_selection_model(std::make_unique<core::HybridModel>());
      refs.hybrid = std::make_unique<peerlab::testing::ReferenceHybrid>();
      break;
  }
}

std::vector<PeerId> reference_select(ModelChoice choice, RefSet& refs,
                                     std::span<const core::PeerSnapshot> snaps,
                                     const core::SelectionContext& ctx, std::size_t k) {
  switch (choice) {
    case ModelChoice::kBlind:
      return peerlab::testing::ref_select_k(*refs.blind, snaps, ctx, k);
    case ModelChoice::kEconomic:
      return peerlab::testing::ref_select_k(*refs.economic, snaps, ctx, k);
    case ModelChoice::kEvaluator:
      return peerlab::testing::ref_select_k(*refs.evaluator, snaps, ctx, k);
    case ModelChoice::kUserPreference:
      return peerlab::testing::ref_select_k(*refs.preference, snaps, ctx, k);
    default:
      return peerlab::testing::ref_select_k(*refs.hybrid, snaps, ctx, k);
  }
}

/// Adversary-flavoured delta: failures, self-praise-looking bursts,
/// zero-work tasks, queue-sample spoofing. With defenses off the
/// broker applies it wholesale — the index must track it all the same.
StatsDelta fuzz_delta(std::mt19937_64& rng, PeerId subject, Seconds now) {
  StatsDelta delta;
  delta.subject = subject;
  delta.msg_ok = static_cast<int>(rng() % 4);
  delta.msg_fail = static_cast<int>(rng() % 3);
  delta.exec_ok = static_cast<int>(rng() % 3);
  delta.exec_fail = static_cast<int>(rng() % 2);
  delta.file_done = static_cast<int>(rng() % 2);
  delta.file_fail = static_cast<int>(rng() % 2);
  if (rng() % 2 == 0) delta.outbox_sample = static_cast<double>(rng() % 30);
  if (rng() % 2 == 0) delta.inbox_sample = static_cast<double>(rng() % 30);
  if (rng() % 2 == 0) delta.pending_transfers = static_cast<int>(rng() % 5);
  if (rng() % 3 == 0) {
    delta.response_times.push_back(0.01 + 0.005 * static_cast<double>(rng() % 200));
  }
  if (rng() % 3 == 0) {
    stats::TaskRecord record;
    record.task = TaskId(rng() % 512 + 1);
    record.peer = subject;
    record.submitted = now;
    record.started = now + 0.5;
    record.finished = now + 0.5 + 0.25 * static_cast<double>(rng() % 60 + 1);
    record.ok = (rng() % 3) != 0;
    record.work = 0.25 * static_cast<double>(rng() % 30 + 1);
    delta.task_records.push_back(record);
  }
  if (rng() % 3 == 0) {
    stats::TransferRecord record;
    record.transfer = TransferId(rng() % 512 + 1);
    record.peer = subject;
    record.size = static_cast<Bytes>(rng() % 2048 + 32) * 1024;
    record.duration = 0.25 + 0.05 * static_cast<double>(rng() % 200);
    record.petition_time = now;
    record.ok = (rng() % 4) != 0;
    delta.transfer_records.push_back(record);
  }
  return delta;
}

core::SelectionContext fuzz_context(std::mt19937_64& rng, Seconds now, bool allow_excludes,
                                    bool long_excludes = false) {
  core::SelectionContext ctx;
  ctx.now = now;
  if (rng() % 2 == 0) ctx.work = 0.5 * static_cast<double>(rng() % 30);
  if (rng() % 2 == 0) ctx.payload_size = static_cast<Bytes>(rng() % 4096) * 1024;
  if (allow_excludes && rng() % 3 == 0) {
    const int n = static_cast<int>(rng() % 4);
    for (int i = 0; i < n; ++i) {
      ctx.exclude.push_back(peer_of(NodeId(static_cast<std::uint64_t>(rng() % kClients) + 2)));
    }
  }
  if (long_excludes && rng() % 4 == 0) {
    // Past 64 entries, mostly peers this broker never registered.
    const int n = 65 + static_cast<int>(rng() % 20);
    for (int i = 0; i < n; ++i) ctx.exclude.push_back(PeerId(1000 + rng() % 100));
  }
  return ctx;
}

/// Makes `ctx` an econ-constrained petition: some mix of deadline,
/// budget (tight enough that admission rejects some candidates) and an
/// explicit objective, never none of them.
void constrain(std::mt19937_64& rng, core::SelectionContext& ctx) {
  if (rng() % 2 == 0) ctx.deadline = ctx.now + 5.0 + static_cast<double>(rng() % 600);
  if (rng() % 2 == 0) ctx.budget = 0.05 * static_cast<double>(rng() % 400 + 1);
  ctx.objective = static_cast<core::EconObjective>(rng() % 5);
  if (!ctx.econ_constrained()) ctx.budget = 1e9;
}

/// The broker's reputation overlay, replayed on the reference: the
/// penalty weight, the quarantined peers appended to the exclude list,
/// and the quarantine lifted when it leaves no candidate.
std::vector<PeerId> defended_reference(ModelChoice choice, RefSet& refs, const BrokerPeer& broker,
                                       std::span<const core::PeerSnapshot> snaps,
                                       core::SelectionContext ctx, std::size_t k) {
  ctx.reputation_weight = broker.reputation().config().rank_penalty_weight;
  const std::size_t base = ctx.exclude.size();
  broker.reputation().append_quarantined(broker.now(), ctx.exclude);
  auto picked = reference_select(choice, refs, snaps, ctx, k);
  if (picked.empty() && ctx.exclude.size() > base) {
    ctx.exclude.resize(base);
    picked = reference_select(choice, refs, snaps, ctx, k);
  }
  return picked;
}

void run_world(ModelChoice choice, std::uint64_t seed, bool defended, bool econ) {
  WorldOptions options;
  options.clients = kClients;
  options.seed = seed;
  options.broker_config.reputation.enabled = defended;
  options.broker_config.econ.enabled = econ;
  OverlayWorld world(options);
  world.boot(2.0);
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);

  RefSet refs;
  install(choice, *world.broker, refs);
  // The admission twin: same config, fed the same assignment hints.
  econ::EconEngine engine(options.broker_config.econ);

  // Plain blind petitions walk the id tree, whose rotation cannot skip
  // excluded peers; every other arm draws exclude lists.
  const bool allow_excludes = choice != ModelChoice::kBlind || defended || econ;
  // Constrained petitions and blind defended ones (a weight) all take
  // the model pass; the rest must all be walked.
  const bool model_pass = econ || (choice == ModelChoice::kBlind && defended);
  int compared = 0;
  Seconds t = world.sim.now();
  for (int step = 0; step < 120; ++step) {
    // Churn: stop/start a client so heartbeats lapse and peers fall
    // off the liveness horizon mid-run.
    if (rng() % 10 == 0) {
      auto& client = world.client(rng() % kClients);
      if (rng() % 2 == 0) {
        client.stop();
      } else {
        client.start();
      }
    }
    if (rng() % 2 == 0) {
      const PeerId subject = peer_of(NodeId(static_cast<std::uint64_t>(rng() % kClients) + 2));
      world.broker->apply_stats(fuzz_delta(rng, subject, world.sim.now()));
    }
    t += 5.0 + static_cast<double>(rng() % 40);
    world.sim.run_until(t);
    if (rng() % 2 == 0) {
      auto ctx = fuzz_context(rng, world.sim.now(), allow_excludes, defended);
      if (econ) constrain(rng, ctx);
      const std::size_t k = rng() % 4 + 1;
      const auto snaps = world.reference_snapshots();
      // Admission needs the full ranking; without it, the top k.
      const std::size_t depth = econ ? std::numeric_limits<std::size_t>::max() : k;
      auto want = defended
                      ? defended_reference(choice, refs, *world.broker, snaps, ctx, depth)
                      : reference_select(choice, refs, snaps, ctx, depth);
      if (econ) {
        (void)engine.admit_and_rank(snaps, ctx, want);
        if (want.size() > k) want.resize(k);
        for (const PeerId peer : want) engine.note_assignment(peer, world.sim.now());
      }
      const auto got = world.broker->select_peers(ctx, k);
      ASSERT_EQ(world.broker->candidate_index().check_consistency(), "")
          << "seed=" << seed << " step=" << step;
      ASSERT_EQ(got, want) << "seed=" << seed << " step=" << step
                           << " model=" << static_cast<int>(choice)
                           << " defended=" << defended << " econ=" << econ;
      ++compared;
    }
  }
  ASSERT_GT(compared, 10) << "seed=" << seed;
  const auto& index = world.broker->candidate_index();
  if (model_pass) {
    EXPECT_EQ(index.fast_path_selections(), 0u) << "seed=" << seed;
    EXPECT_GE(index.scan_fallbacks(), static_cast<std::uint64_t>(compared)) << "seed=" << seed;
  } else {
    // The petitions above must have been walked, not sent to the
    // model pass.
    EXPECT_GT(index.fast_path_selections(), 0u) << "seed=" << seed;
    EXPECT_EQ(index.scan_fallbacks(), 0u) << "seed=" << seed;
  }
  const auto& engine_seen = world.broker->econ_engine();
  EXPECT_EQ(engine_seen.petitions(), econ ? static_cast<std::uint64_t>(compared) : 0u)
      << "seed=" << seed;
  if (econ) {
    // Admission both admitted and rejected candidates, so the arm
    // exercises both halves of its partition.
    EXPECT_GT(engine_seen.admitted(), 0u) << "seed=" << seed;
    EXPECT_GT(engine_seen.rejected(), 0u) << "seed=" << seed;
  }
}

void run_model(ModelChoice choice, bool defended = false, bool econ = false) {
  const std::uint64_t base = peerlab::testing::test_seed();
  for (int i = 0; i < kSeeds; ++i) {
    run_world(choice, base + static_cast<std::uint64_t>(i), defended, econ);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Both defense settings under the econ engine.
void run_econ_model(ModelChoice choice) {
  for (const bool defended : {false, true}) {
    run_model(choice, defended, /*econ=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SelectionDifferential, BlindUnderChurn) { run_model(ModelChoice::kBlind); }
TEST(SelectionDifferential, EconomicUnderChurn) { run_model(ModelChoice::kEconomic); }
TEST(SelectionDifferential, EvaluatorUnderChurn) { run_model(ModelChoice::kEvaluator); }
TEST(SelectionDifferential, UserPreferenceUnderChurn) {
  run_model(ModelChoice::kUserPreference);
}
TEST(SelectionDifferential, HybridUnderChurn) { run_model(ModelChoice::kHybrid); }

TEST(SelectionDifferential, DefendedEconomicUnderChurn) {
  run_model(ModelChoice::kEconomic, /*defended=*/true);
}
TEST(SelectionDifferential, DefendedEvaluatorUnderChurn) {
  run_model(ModelChoice::kEvaluator, /*defended=*/true);
}
TEST(SelectionDifferential, DefendedUserPreferenceUnderChurn) {
  run_model(ModelChoice::kUserPreference, /*defended=*/true);
}
TEST(SelectionDifferential, DefendedHybridUnderChurn) {
  run_model(ModelChoice::kHybrid, /*defended=*/true);
}
/// A defended blind broker weights every petition, so the model pass
/// answers it, excludes included.
TEST(SelectionDifferential, DefendedBlindUnderChurn) {
  run_model(ModelChoice::kBlind, /*defended=*/true);
}

TEST(SelectionDifferential, EconConstrainedBlindUnderChurn) {
  run_econ_model(ModelChoice::kBlind);
}
TEST(SelectionDifferential, EconConstrainedEconomicUnderChurn) {
  run_econ_model(ModelChoice::kEconomic);
}
TEST(SelectionDifferential, EconConstrainedEvaluatorUnderChurn) {
  run_econ_model(ModelChoice::kEvaluator);
}
TEST(SelectionDifferential, EconConstrainedUserPreferenceUnderChurn) {
  run_econ_model(ModelChoice::kUserPreference);
}
TEST(SelectionDifferential, EconConstrainedHybridUnderChurn) {
  run_econ_model(ModelChoice::kHybrid);
}

/// The online audit re-ranks sampled walk-served selections with the
/// model pass under the same effective context, so a defended broker's
/// penalized, quarantine-excluding selections are audited too — and
/// must agree.
TEST(SelectionDifferential, DefendedSelectionsPassTheOnlineAudit) {
  WorldOptions options;
  options.clients = kClients;
  options.broker_config.reputation.enabled = true;
  OverlayWorld world(options);
  world.boot(2.0);
  world.broker->set_selection_model(std::make_unique<core::HybridModel>());
  const Seconds now = world.sim.now();
  for (int i = 0; i < kClients; ++i) {
    const PeerId peer = peer_of(NodeId(static_cast<std::uint64_t>(i) + 2));
    for (int hit = 0; hit < i % 5; ++hit) world.broker->reputation().record_failure(peer, now);
  }
  ASSERT_TRUE(world.broker->reputation().quarantined(peer_of(NodeId(6)), now));

  obs::trace::TraceRecorder recorder(world.sim);
  obs::Watchdog watchdog(recorder);
  world.broker->attach_trace(&recorder);
  std::mt19937_64 rng(peerlab::testing::test_seed());
  for (int petition = 0; petition < 64; ++petition) {
    core::SelectionContext ctx = fuzz_context(rng, world.sim.now(), true, true);
    ctx.trace = recorder.root();
    (void)world.broker->select_peers(ctx, rng() % 4 + 1);
  }
  world.broker->attach_trace(nullptr);

  int audits = 0;
  for (const auto& record : recorder.events()) {
    if (record.kind != obs::trace::TraceKind::kIndexAudit) continue;
    ++audits;
    EXPECT_EQ(record.b, 1u) << "audit seq " << record.seq;
  }
  EXPECT_EQ(audits, 4);
  EXPECT_TRUE(watchdog.violations().empty());
  EXPECT_EQ(world.broker->candidate_index().scan_fallbacks(), 0u);
}

/// Failover pin: a broker that adopts replicated state (fresh client
/// registry, statistics map and history store — every cached pointer
/// invalidated) rebuilds its index and keeps answering bit-identically.
TEST(SelectionDifferential, IndexSurvivesAdoptedState) {
  const std::uint64_t base = peerlab::testing::test_seed();
  for (const auto choice :
       {ModelChoice::kEconomic, ModelChoice::kEvaluator, ModelChoice::kHybrid}) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(choice) * 131;
    WorldOptions options;
    options.clients = kClients;
    options.seed = seed;
    OverlayWorld primary(options);
    primary.boot(2.0);
    std::mt19937_64 rng(seed);
    RefSet primary_refs;
    install(choice, *primary.broker, primary_refs);

    Seconds t = primary.sim.now();
    for (int step = 0; step < 40; ++step) {
      const PeerId subject = peer_of(NodeId(static_cast<std::uint64_t>(rng() % kClients) + 2));
      primary.broker->apply_stats(fuzz_delta(rng, subject, primary.sim.now()));
      t += 10.0;
      primary.sim.run_until(t);
      if (step % 4 == 0) {
        // Exercise the primary's index so the exported state reflects
        // post-selection (window-evicted) statistics.
        const auto ctx = fuzz_context(rng, primary.sim.now(), true);
        (void)primary.broker->select_peers(ctx, 2);
      }
    }

    // Standby world: identical topology, its own broker, no booted
    // clients — everything it knows arrives via adopt_state.
    OverlayWorld standby(options);
    RefSet standby_refs;
    install(choice, *standby.broker, standby_refs);
    standby.broker->adopt_state(primary.broker->export_state());

    const auto snaps = standby.reference_snapshots();
    ASSERT_FALSE(snaps.empty());
    for (int petition = 0; petition < 20; ++petition) {
      core::SelectionContext ctx = fuzz_context(rng, standby.sim.now(), true);
      const std::size_t k = rng() % 4 + 1;
      const auto got = standby.broker->select_peers(ctx, k);
      const auto want = reference_select(choice, standby_refs, snaps, ctx, k);
      ASSERT_EQ(got, want) << "seed=" << seed << " petition=" << petition
                           << " model=" << static_cast<int>(choice);
    }
    // The first post-adoption petition flushed a full rebuild, and the
    // answers above came from the rebuilt index.
    EXPECT_GE(standby.broker->candidate_index().rebuilds(), 1u);
    EXPECT_GT(standby.broker->candidate_index().fast_path_selections(), 0u);
  }
}

}  // namespace
}  // namespace peerlab::overlay

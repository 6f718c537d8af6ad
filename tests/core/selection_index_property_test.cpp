// Differential selection-equivalence harness: CandidateIndex's
// threshold walks and its model pass against the extracted scan-based
// reference rankers (selection_reference.hpp), asserting
// *bit-identical* selected-peer sequences.
//
// Each scenario is a fresh index driven by a seeded interleaving of
// heartbeats (register / re-register, field churn, liveness decay),
// statistics mutations, history records, time advances and petitions;
// after every petition the index's answer must equal the reference
// ranking of a broker-style snapshot mirror, element for element, and
// the index must pass check_consistency(). 200
// scenarios per model × 5 models = 1000 scenarios, plus defended arms
// for the four index-served defended models: reputation weights 0 and
// 2.0, per-peer scores drawn to hit exactly 0 and 1 and to tie, and
// exclude lists longer than 64 — and a blind arm whose excludes and
// weights send petitions to the model pass. Seeds derive from testing::test_seed()
// (export PEERLAB_TEST_SEED to replay a failure).

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/selection_reference.hpp"
#include "peerlab/core/blind.hpp"
#include "peerlab/core/candidate_index.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/hybrid.hpp"
#include "peerlab/core/user_preference.hpp"
#include "peerlab/stats/history.hpp"
#include "peerlab/stats/peer_statistics.hpp"
#include "support/test_seed.hpp"

namespace peerlab::core {
namespace {

constexpr Seconds kInterval = 30.0;
constexpr double kMissed = 3.5;
/// Short stats window so sliding-window evictions actually happen
/// inside a scenario's few simulated hours.
constexpr Seconds kWindow = 600.0;
constexpr int kScenariosPerModel = 200;

struct FuzzPeer {
  PeerId peer;
  double cpu_ghz = 1.0;
  double price = 1.0;
  bool idle = true;
  int queued = 0;
  int transfers = 0;
  Seconds last_seen = 0.0;
};

/// Broker twin: registry + statistics + history + index, with the same
/// feed hooks BrokerPeer installs, minus the wire.
class Harness {
 public:
  Harness() : index_(CandidateIndex::Config{kInterval, kMissed}) {
    index_.set_history(&history_);
    history_.set_observer([this](PeerId peer) { index_.mark_dirty(peer); });
    index_.set_reputation([this](PeerId peer) { return score_of(peer); });
  }

  void bind(SelectionModel* model) { index_.bind_model(model); }

  void heartbeat(std::mt19937_64& rng) {
    const PeerId peer = pick_or_new(rng);
    auto [it, inserted] = peers_.try_emplace(peer);
    FuzzPeer& p = it->second;
    if (inserted) {
      p.peer = peer;
      p.cpu_ghz = 0.5 + 0.25 * static_cast<double>(rng() % 16);
      p.price = 0.25 + 0.25 * static_cast<double>(rng() % 8);
    }
    p.idle = (rng() % 3) != 0;
    p.queued = static_cast<int>(rng() % 5);
    p.transfers = static_cast<int>(rng() % 3);
    p.last_seen = now_;
    index_.upsert_peer(p.peer, p.cpu_ghz, p.price, find_stats(peer), p.last_seen, p.idle,
                       p.queued, p.transfers);
  }

  void mutate_stats(std::mt19937_64& rng) {
    if (peers_.empty()) return;
    const PeerId peer = pick_existing(rng);
    stats::PeerStatistics& s = stats_for(peer);
    switch (rng() % 7) {
      case 0:
        s.record_message(now_, (rng() % 4) != 0);
        break;
      case 1:
        s.sample_outbox(static_cast<double>(rng() % 20));
        break;
      case 2:
        s.sample_inbox(static_cast<double>(rng() % 20));
        break;
      case 3:
        s.set_pending_transfers(static_cast<int>(rng() % 6));
        break;
      case 4:
        s.record_task_accept((rng() % 3) != 0);
        break;
      case 5:
        s.record_task_execution((rng() % 3) != 0);
        break;
      default:
        s.record_file(static_cast<stats::FileOutcome::Value>(rng() % 3));
        break;
    }
  }

  void mutate_history(std::mt19937_64& rng) {
    if (peers_.empty()) return;
    const PeerId peer = pick_existing(rng);
    switch (rng() % 3) {
      case 0:
        history_.record_response_time(peer, 0.01 + 0.01 * static_cast<double>(rng() % 100));
        break;
      case 1: {
        stats::TaskRecord record;
        record.task = TaskId(rng() % 1000 + 1);
        record.peer = peer;
        record.submitted = now_;
        record.started = now_ + 1.0;
        record.finished = now_ + 1.0 + 0.5 * static_cast<double>(rng() % 40 + 1);
        record.ok = (rng() % 4) != 0;
        record.work = 0.5 * static_cast<double>(rng() % 20 + 1);
        history_.record_task(record);
        break;
      }
      default: {
        stats::TransferRecord record;
        record.transfer = TransferId(rng() % 1000 + 1);
        record.peer = peer;
        // Positive sizes and durations: a zero-rate transfer gives an
        // infinite wire-time estimate, which the scan propagates into
        // NaN normalization — undefined in scan and index alike.
        record.size = static_cast<Bytes>(rng() % 4096 + 64) * 1024;
        record.duration = 0.5 + 0.1 * static_cast<double>(rng() % 100);
        record.petition_time = now_;
        record.ok = (rng() % 5) != 0;
        history_.record_transfer(record);
        break;
      }
    }
  }

  /// Re-scores one peer, the way decay and attributed outcomes move a
  /// broker's reputation book between petitions. Half the draws land
  /// on a handful of exact values (0, 1, ties); the rest are arbitrary.
  void rescore(std::mt19937_64& rng) {
    if (peers_.empty()) return;
    const PeerId peer = pick_existing(rng);
    constexpr double kExact[] = {0.0, 1.0, 0.5, 0.25};
    scores_[peer] = rng() % 2 == 0 ? kExact[rng() % 4]
                                   : static_cast<double>(rng() % 1'000'001) / 1'000'000.0;
  }

  void advance(std::mt19937_64& rng) {
    // Mostly small steps, occasionally a jump past the liveness
    // threshold (105 s) or the stats window so peers fall offline and
    // window events expire mid-scenario.
    switch (rng() % 8) {
      case 0:
        now_ += 120.0 + static_cast<double>(rng() % 120);
        break;
      case 1:
        now_ += kWindow * (0.5 + 0.001 * static_cast<double>(rng() % 1000));
        break;
      default:
        now_ += 0.5 + 0.25 * static_cast<double>(rng() % 60);
        break;
    }
  }

  /// The registry's snapshots at the current time, built beside the
  /// index (the reference rankers' input).
  [[nodiscard]] std::vector<PeerSnapshot> snapshots() {
    std::vector<PeerSnapshot> out;
    out.reserve(peers_.size());
    for (auto& [peer, p] : peers_) {
      PeerSnapshot snap;
      snap.peer = p.peer;
      snap.cpu_ghz = p.cpu_ghz;
      snap.price_per_cpu_second = p.price;
      snap.online = (now_ - p.last_seen) <= kInterval * kMissed;
      snap.idle = p.idle;
      snap.queued_tasks = p.queued;
      snap.active_transfers = p.transfers;
      snap.statistics = find_stats(peer);
      snap.history = &history_;
      snap.reputation = score_of(peer);
      out.push_back(snap);
    }
    return out;
  }

  [[nodiscard]] SelectionContext make_context(std::mt19937_64& rng, bool allow_excludes,
                                              bool defended) {
    SelectionContext ctx;
    ctx.now = now_;
    if (rng() % 2 == 0) ctx.work = 0.5 * static_cast<double>(rng() % 40);
    if (rng() % 2 == 0) ctx.payload_size = static_cast<Bytes>(rng() % 8192) * 1024;
    if (allow_excludes && !peers_.empty() && rng() % 3 == 0) {
      const std::size_t n = rng() % (peers_.size() + 1);
      for (std::size_t i = 0; i < n; ++i) ctx.exclude.push_back(pick_existing(rng));
    }
    if (defended) {
      ctx.reputation_weight = rng() % 4 == 0 ? 0.0 : 2.0;
      if (rng() % 4 == 0) {
        // A quarantine-sized list: 65+ entries, mostly peers this
        // registry never saw, some of them repeated.
        const std::size_t n = 65 + rng() % 40;
        for (std::size_t i = 0; i < n; ++i) ctx.exclude.push_back(PeerId(rng() % 200 + 1));
      }
    }
    return ctx;
  }

  CandidateIndex& index() { return index_; }
  [[nodiscard]] Seconds now() const { return now_; }
  [[nodiscard]] bool empty() const { return peers_.empty(); }

 private:
  PeerId pick_or_new(std::mt19937_64& rng) {
    if (!peers_.empty() && rng() % 3 != 0) return pick_existing(rng);
    return PeerId(rng() % 24 + 1);
  }

  PeerId pick_existing(std::mt19937_64& rng) {
    auto it = peers_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng() % peers_.size()));
    return it->first;
  }

  [[nodiscard]] double score_of(PeerId peer) const {
    const auto it = scores_.find(peer);
    return it == scores_.end() ? 1.0 : it->second;
  }

  const stats::PeerStatistics* find_stats(PeerId peer) const {
    const auto it = statistics_.find(peer);
    return it == statistics_.end() ? nullptr : &it->second;
  }

  stats::PeerStatistics& stats_for(PeerId peer) {
    auto it = statistics_.find(peer);
    if (it == statistics_.end()) {
      it = statistics_.emplace(peer, stats::PeerStatistics(kWindow)).first;
    }
    index_.note_statistics(peer, &it->second);
    return it->second;
  }

  std::map<PeerId, FuzzPeer> peers_;
  std::map<PeerId, stats::PeerStatistics> statistics_;
  std::map<PeerId, double> scores_;
  stats::HistoryStore history_{64};
  CandidateIndex index_;
  Seconds now_ = 1.0;
};

std::string describe(std::uint64_t seed, int scenario, int petition,
                     const std::vector<PeerId>& got, const std::vector<PeerId>& want) {
  std::ostringstream os;
  os << "seed=" << seed << " scenario=" << scenario << " petition=" << petition << "\n  index:";
  for (const auto p : got) os << ' ' << p.value();
  os << "\n  scan: ";
  for (const auto p : want) os << ' ' << p.value();
  return os.str();
}

/// Runs kScenariosPerModel fuzz scenarios. `make_model` builds the
/// production model, `make_ref` its frozen reference twin.
/// `allow_excludes` draws exclude lists; `defended` adds reputation
/// weights, re-scoring and long exclude lists. Every petition must be
/// walked except blind ones with excludes or a weight, which the model
/// pass answers.
template <typename MakeModel, typename MakeRef>
void run_scenarios(MakeModel make_model, MakeRef make_ref, bool allow_excludes,
                   bool defended = false) {
  const std::uint64_t base = testing::test_seed();
  for (int scenario = 0; scenario < kScenariosPerModel; ++scenario) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(scenario) * 7919;
    std::mt19937_64 rng(seed);
    Harness harness;
    // Identically-seeded config streams: the model factory and its
    // reference twin must draw the same randomized config.
    std::mt19937_64 model_rng(seed ^ 0x5bf0363546174861ull);
    std::mt19937_64 ref_rng(seed ^ 0x5bf0363546174861ull);
    auto model = make_model(model_rng);
    auto ref = make_ref(ref_rng);
    const bool blind = dynamic_cast<BlindModel*>(model.get()) != nullptr;
    harness.bind(model.get());
    const int ops = 40 + static_cast<int>(rng() % 40);
    int petition = 0;
    const auto issue_petition = [&] {
      const auto ctx = harness.make_context(rng, allow_excludes, defended);
      const std::size_t k = rng() % 5 + 1;
      const auto snaps = harness.snapshots();
      std::vector<PeerId> got;
      const bool walk = !blind || (ctx.exclude.empty() && ctx.reputation_weight == 0.0);
      ASSERT_EQ(harness.index().select(ctx, harness.now(), k, got), walk)
          << "unexpected path, seed=" << seed << " scenario=" << scenario;
      ASSERT_EQ(harness.index().check_consistency(), "")
          << "seed=" << seed << " scenario=" << scenario << " petition=" << petition;
      const auto want = peerlab::testing::ref_select_k(*ref, snaps, ctx, k);
      ASSERT_EQ(got, want) << describe(seed, scenario, petition, got, want);
      ++petition;
    };
    for (int op = 0; op < ops; ++op) {
      if (defended && rng() % 3 == 0) harness.rescore(rng);
      switch (rng() % 6) {
        case 0:
        case 1:
          harness.heartbeat(rng);
          break;
        case 2:
          harness.mutate_stats(rng);
          break;
        case 3:
          harness.mutate_history(rng);
          break;
        case 4:
          harness.advance(rng);
          break;
        default:
          issue_petition();
          if (::testing::Test::HasFatalFailure()) return;
          break;
      }
    }
    // A scenario whose draws held no petition still ends on one, after
    // its own draws, so every other scenario's stream is unchanged.
    if (petition == 0) {
      issue_petition();
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_GT(petition, 0) << "scenario produced no petitions, seed=" << seed;
  }
}

TEST(SelectionIndexEquivalence, Blind) {
  run_scenarios(
      [](std::mt19937_64&) { return std::make_unique<BlindModel>(); },
      [](std::mt19937_64&) { return std::make_unique<peerlab::testing::ReferenceBlind>(); },
      /*allow_excludes=*/false);
}

TEST(SelectionIndexEquivalence, BlindFirstAvailable) {
  run_scenarios(
      [](std::mt19937_64&) {
        return std::make_unique<BlindModel>(BlindModel::Mode::kFirstAvailable);
      },
      [](std::mt19937_64&) {
        return std::make_unique<peerlab::testing::ReferenceBlind>(
            BlindModel::Mode::kFirstAvailable);
      },
      /*allow_excludes=*/false);
}

TEST(SelectionIndexEquivalence, Economic) {
  run_scenarios(
      [](std::mt19937_64& rng) {
        EconomicConfig cfg;
        cfg.prefer_idle = (rng() % 2) == 0;
        return std::make_unique<EconomicSchedulingModel>(cfg);
      },
      [](std::mt19937_64& rng) {
        EconomicConfig cfg;
        cfg.prefer_idle = (rng() % 2) == 0;
        return std::make_unique<peerlab::testing::ReferenceEconomic>(cfg);
      },
      /*allow_excludes=*/true);
}

TEST(SelectionIndexEquivalence, DataEvaluator) {
  run_scenarios(
      [](std::mt19937_64&) {
        return std::make_unique<DataEvaluatorModel>(DataEvaluatorModel::same_priority());
      },
      [](std::mt19937_64&) {
        return std::make_unique<peerlab::testing::ReferenceEvaluator>(
            peerlab::testing::ReferenceEvaluator::same_priority());
      },
      /*allow_excludes=*/true);
}

TEST(SelectionIndexEquivalence, UserPreference) {
  const auto draw_order = [](std::mt19937_64& rng) {
    std::vector<PeerId> order;
    const std::size_t n = rng() % 16;
    for (std::size_t i = 0; i < n; ++i) order.push_back(PeerId(rng() % 24 + 1));
    return order;
  };
  run_scenarios(
      [&](std::mt19937_64& rng) {
        return std::make_unique<UserPreferenceModel>(draw_order(rng));
      },
      [&](std::mt19937_64& rng) {
        return std::make_unique<peerlab::testing::ReferenceUserPreference>(draw_order(rng));
      },
      /*allow_excludes=*/true);
}

TEST(SelectionIndexEquivalence, Hybrid) {
  run_scenarios(
      [](std::mt19937_64& rng) {
        HybridConfig cfg;
        cfg.alpha = 0.1 * static_cast<double>(rng() % 11);
        return std::make_unique<HybridModel>(cfg);
      },
      [](std::mt19937_64& rng) {
        HybridConfig cfg;
        cfg.alpha = 0.1 * static_cast<double>(rng() % 11);
        return std::make_unique<peerlab::testing::ReferenceHybrid>(cfg);
      },
      /*allow_excludes=*/true);
}

TEST(SelectionIndexEquivalence, EconomicDefended) {
  run_scenarios(
      [](std::mt19937_64& rng) {
        EconomicConfig cfg;
        cfg.prefer_idle = (rng() % 2) == 0;
        return std::make_unique<EconomicSchedulingModel>(cfg);
      },
      [](std::mt19937_64& rng) {
        EconomicConfig cfg;
        cfg.prefer_idle = (rng() % 2) == 0;
        return std::make_unique<peerlab::testing::ReferenceEconomic>(cfg);
      },
      /*allow_excludes=*/true, /*defended=*/true);
}

TEST(SelectionIndexEquivalence, DataEvaluatorDefended) {
  run_scenarios(
      [](std::mt19937_64&) {
        return std::make_unique<DataEvaluatorModel>(DataEvaluatorModel::same_priority());
      },
      [](std::mt19937_64&) {
        return std::make_unique<peerlab::testing::ReferenceEvaluator>(
            peerlab::testing::ReferenceEvaluator::same_priority());
      },
      /*allow_excludes=*/true, /*defended=*/true);
}

TEST(SelectionIndexEquivalence, UserPreferenceDefended) {
  const auto draw_order = [](std::mt19937_64& rng) {
    std::vector<PeerId> order;
    const std::size_t n = rng() % 16;
    for (std::size_t i = 0; i < n; ++i) order.push_back(PeerId(rng() % 24 + 1));
    return order;
  };
  run_scenarios(
      [&](std::mt19937_64& rng) {
        return std::make_unique<UserPreferenceModel>(draw_order(rng));
      },
      [&](std::mt19937_64& rng) {
        return std::make_unique<peerlab::testing::ReferenceUserPreference>(draw_order(rng));
      },
      /*allow_excludes=*/true, /*defended=*/true);
}

TEST(SelectionIndexEquivalence, HybridDefended) {
  run_scenarios(
      [](std::mt19937_64& rng) {
        HybridConfig cfg;
        cfg.alpha = 0.1 * static_cast<double>(rng() % 11);
        return std::make_unique<HybridModel>(cfg);
      },
      [](std::mt19937_64& rng) {
        HybridConfig cfg;
        cfg.alpha = 0.1 * static_cast<double>(rng() % 11);
        return std::make_unique<peerlab::testing::ReferenceHybrid>(cfg);
      },
      /*allow_excludes=*/true, /*defended=*/true);
}

/// Blind petitions with excludes or a reputation weight (a defended
/// broker's) cannot ride the id tree's rotation: the model pass must
/// answer them exactly as the reference ranks, rotation cursor
/// included, under the same liveness and statistics churn.
TEST(SelectionIndexEquivalence, BlindModelPass) {
  run_scenarios(
      [](std::mt19937_64&) { return std::make_unique<BlindModel>(); },
      [](std::mt19937_64&) { return std::make_unique<peerlab::testing::ReferenceBlind>(); },
      /*allow_excludes=*/true, /*defended=*/true);
}

/// The walks' bounds assume a penalty never lowers a cost: a negative
/// (or NaN) weight goes to the model pass, as does blind with any
/// weight, and the pass answers what the reference ranks.
TEST(SelectionIndexEquivalence, RefusesNegativeReputationWeight) {
  Harness harness;
  DataEvaluatorModel model = DataEvaluatorModel::same_priority();
  harness.bind(&model);
  peerlab::testing::ReferenceEvaluator reference =
      peerlab::testing::ReferenceEvaluator::same_priority();
  std::mt19937_64 rng(testing::test_seed());
  for (int i = 0; i < 6; ++i) harness.heartbeat(rng);
  SelectionContext ctx;
  ctx.now = harness.now();
  std::vector<PeerId> out{PeerId(99)};
  for (const double weight : {-1.0, -1e-300, std::nan("")}) {
    ctx.reputation_weight = weight;
    EXPECT_FALSE(harness.index().select(ctx, harness.now(), 2, out)) << weight;
    // A NaN penalty leaves the models' order undefined; compare the rest.
    if (std::isnan(weight)) continue;
    EXPECT_EQ(out, peerlab::testing::ref_select_k(reference, harness.snapshots(), ctx, 2))
        << weight;
  }
  EXPECT_EQ(harness.index().scan_fallbacks(), 3u);
  ctx.reputation_weight = 0.0;
  EXPECT_TRUE(harness.index().select(ctx, harness.now(), 2, out));
  ctx.reputation_weight = 2.0;
  EXPECT_TRUE(harness.index().select(ctx, harness.now(), 2, out));
  // k = 0 answers empty, like the model's ranking truncated to nothing.
  EXPECT_TRUE(harness.index().select(ctx, harness.now(), 0, out));
  EXPECT_TRUE(out.empty());

  BlindModel blind;
  peerlab::testing::ReferenceBlind blind_reference;
  harness.bind(&blind);
  EXPECT_FALSE(harness.index().select(ctx, harness.now(), 2, out));
  EXPECT_EQ(out, peerlab::testing::ref_select_k(blind_reference, harness.snapshots(), ctx, 2));
  ctx.reputation_weight = 0.0;
  EXPECT_TRUE(harness.index().select(ctx, harness.now(), 2, out));
  EXPECT_EQ(harness.index().scan_fallbacks(), 4u);
}

}  // namespace
}  // namespace peerlab::core

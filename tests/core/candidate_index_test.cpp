// CandidateIndex re-key cost and tree consistency: a heartbeat that
// changes nothing moves no tree entry, one that changes a single key
// moves exactly that key's tree, and idle flips keep the idle-gated
// economic answer equal to the frozen reference scan
// (selection_reference.hpp). check_consistency() runs after every
// petition.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/selection_reference.hpp"
#include "peerlab/core/candidate_index.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/stats/history.hpp"

namespace peerlab::core {
namespace {

constexpr Seconds kInterval = 30.0;
constexpr double kMissed = 3.5;

struct Peer {
  PeerId peer;
  double cpu_ghz = 1.0;
  double price = 1.0;
  bool idle = true;
  int queued = 0;
  int transfers = 0;
};

/// An economic index over a small registry with some task and
/// response-time history, plus the snapshot mirror the reference ranks.
class EconomicIndex {
 public:
  EconomicIndex() : index_(CandidateIndex::Config{kInterval, kMissed}) {
    index_.set_history(&history_);
    index_.bind_model(&model_);
    for (int i = 0; i < 6; ++i) {
      Peer p;
      p.peer = PeerId(static_cast<std::uint64_t>(i) + 10);
      p.cpu_ghz = 1.0 + 0.5 * static_cast<double>(i % 3);
      p.price = 0.5 + 0.25 * static_cast<double>(i);
      p.idle = i % 2 == 0;
      p.queued = i % 3;
      peers_.push_back(p);
      if (i % 2 == 1) {
        stats::TaskRecord record;
        record.task = TaskId(static_cast<std::uint64_t>(i) + 1);
        record.peer = p.peer;
        record.started = 1.0;
        record.finished = 4.0 + static_cast<double>(i);
        record.ok = true;
        record.work = 6.0;
        history_.record_task(record);
        history_.record_response_time(p.peer, 0.05 * static_cast<double>(i));
      }
      heartbeat(p);
    }
  }

  /// One heartbeat carrying `p`'s state at the current time.
  void heartbeat(const Peer& p) {
    index_.upsert_peer(p.peer, p.cpu_ghz, p.price, nullptr, now_, p.idle, p.queued,
                       p.transfers);
  }

  void advance(Seconds dt) { now_ += dt; }

  /// Selects `k` with the index and with the reference scan; both must
  /// agree and the trees must be consistent afterwards.
  void expect_reference_answer(const SelectionContext& base, std::size_t k) {
    SelectionContext context = base;
    context.now = now_;
    std::vector<PeerId> got;
    ASSERT_TRUE(index_.select(context, now_, k, got));
    std::vector<PeerSnapshot> snaps;
    for (const Peer& p : peers_) {
      PeerSnapshot s;
      s.peer = p.peer;
      s.cpu_ghz = p.cpu_ghz;
      s.price_per_cpu_second = p.price;
      s.idle = p.idle;
      s.queued_tasks = p.queued;
      s.active_transfers = p.transfers;
      s.history = &history_;
      snaps.push_back(s);
    }
    testing::ReferenceEconomic reference;
    EXPECT_EQ(got, testing::ref_select_k(reference, snaps, context, k));
    EXPECT_EQ(index_.check_consistency(), "");
  }

  CandidateIndex& index() { return index_; }
  Peer& peer(std::size_t i) { return peers_[i]; }
  [[nodiscard]] std::size_t size() const { return peers_.size(); }

 private:
  stats::HistoryStore history_{64};
  EconomicSchedulingModel model_;
  CandidateIndex index_;
  std::vector<Peer> peers_;
  Seconds now_ = 1.0;
};

SelectionContext work_and_payload() {
  SelectionContext context;
  context.work = 4.0;
  context.payload_size = 512 * 1024;
  return context;
}

TEST(CandidateIndex, UnchangedHeartbeatsRekeyWithoutMovingATree) {
  EconomicIndex world;
  world.expect_reference_answer(work_and_payload(), 3);
  // The first flush inserts every peer into the id tree and the six
  // economic trees.
  EXPECT_EQ(world.index().tree_updates(), 7 * world.size());
  const auto rekeys = world.index().rekeys();
  const auto updates = world.index().tree_updates();

  // Every peer heartbeats once a period, so none falls offline.
  constexpr int kPeriods = 8;
  for (int period = 0; period < kPeriods; ++period) {
    world.advance(kInterval);
    for (std::size_t i = 0; i < world.size(); ++i) world.heartbeat(world.peer(i));
    world.expect_reference_answer(work_and_payload(), 3);
  }
  EXPECT_EQ(world.index().rekeys(), rekeys + kPeriods * world.size());
  EXPECT_EQ(world.index().tree_updates(), updates);
}

TEST(CandidateIndex, QueueChangeMovesOnlyTheReadyTimeTree) {
  EconomicIndex world;
  world.expect_reference_answer(work_and_payload(), 3);
  const auto rekeys = world.index().rekeys();
  const auto updates = world.index().tree_updates();

  // A busy peer's backlog feeds only its ready time; check_consistency
  // then proves the one moved entry was the ready-time tree's.
  Peer& busy = world.peer(1);
  ASSERT_FALSE(busy.idle);
  busy.queued += 3;
  world.advance(1.0);
  world.heartbeat(busy);
  world.expect_reference_answer(work_and_payload(), 3);
  EXPECT_EQ(world.index().rekeys(), rekeys + 1);
  EXPECT_EQ(world.index().tree_updates(), updates + 1);
}

TEST(CandidateIndex, OneUlpCpuChangeMovesItsTrees) {
  EconomicIndex world;
  world.expect_reference_answer(work_and_payload(), 3);
  const auto updates = world.index().tree_updates();

  // No task history: the peer's speed key is its advertised cpu, so
  // the cpu and speed trees move, however small the change.
  Peer& fresh = world.peer(0);
  fresh.cpu_ghz = std::nextafter(fresh.cpu_ghz, 10.0);
  world.advance(1.0);
  world.heartbeat(fresh);
  world.expect_reference_answer(work_and_payload(), 3);
  EXPECT_EQ(world.index().tree_updates(), updates + 2);
}

TEST(CandidateIndex, IdleFlipsKeepTheIdleGatedAnswerExact) {
  EconomicIndex world;
  const SelectionContext context = work_and_payload();
  world.expect_reference_answer(context, 2);

  // Idle peers turn busy one by one until none is left (the idle gate
  // opens to everyone), then turn idle again in another order.
  for (std::size_t i = 0; i < world.size(); ++i) {
    Peer& p = world.peer(i);
    if (!p.idle) continue;
    p.idle = false;
    world.advance(1.0);
    world.heartbeat(p);
    world.expect_reference_answer(context, 2);
  }
  for (std::size_t i = world.size(); i-- > 0;) {
    Peer& p = world.peer(i);
    p.idle = true;
    p.queued = 0;
    world.advance(1.0);
    world.heartbeat(p);
    world.expect_reference_answer(context, 2);
  }
}

}  // namespace
}  // namespace peerlab::core

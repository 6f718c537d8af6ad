// Zero-steady-state-allocation guarantees, enforced by instrumenting
// the global allocator.
//
// The event queue and the flow scheduler both promise that once warmed
// to a workload's high-water mark, their hot paths (push/cancel/pop,
// start/cancel/recompute/complete) never touch the heap: scratch
// buffers are reused, free lists are pre-reserved on the growth path,
// and actions live in pooled slots. This test replaces global
// operator new/delete with counting versions and asserts an exact
// zero allocation count across the steady-state phases.
//
// Counting is toggled around the measured region only, so gtest's own
// bookkeeping stays out of the numbers. The whole binary is
// single-threaded; plain counters are fine.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "peerlab/core/blind.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/hybrid.hpp"
#include "peerlab/core/user_preference.hpp"
#include "peerlab/net/flow_scheduler.hpp"
#include "peerlab/net/topology.hpp"
#include "peerlab/sim/simulator.hpp"

namespace {

std::size_t g_allocations = 0;
bool g_tracking = false;

void* counted_alloc(std::size_t size) {
  if (g_tracking) ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  if (g_tracking) ++g_allocations;
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace peerlab {
namespace {

class AllocationGuard {
 public:
  AllocationGuard() {
    g_allocations = 0;
    g_tracking = true;
  }
  ~AllocationGuard() { g_tracking = false; }
  [[nodiscard]] std::size_t count() const { return g_allocations; }
};

TEST(AllocationGuard, EventQueueSteadyStateIsAllocationFree) {
  sim::EventQueue queue;
  std::uint64_t fired = 0;

  // Warm to the high-water mark: more concurrent events, and a bigger
  // unsorted backlog, than the measured phase ever reaches.
  for (int wave = 0; wave < 4; ++wave) {
    std::vector<sim::EventHandle> handles;
    for (int i = 0; i < 2048; ++i) {
      handles.push_back(
          queue.push(static_cast<double>((i * 7919) % 257), [&fired] { ++fired; }));
    }
    for (int i = 0; i < 2048; i += 3) handles[static_cast<std::size_t>(i)].cancel();
    while (!queue.empty()) queue.pop().action();
  }

  AllocationGuard guard;
  // Bulk cycle: batch push (radix refill path), scattered cancels,
  // full drain — twice.
  for (int wave = 0; wave < 2; ++wave) {
    sim::EventHandle cancelled[64];
    for (int i = 0; i < 1024; ++i) {
      auto handle = queue.push(static_cast<double>((i * 31) % 97), [&fired] { ++fired; });
      if (i % 16 == 0) cancelled[i / 16] = std::move(handle);
    }
    for (auto& handle : cancelled) handle.cancel();
    while (!queue.empty()) queue.pop().action();
  }
  // Chain cycle: the pop-one/push-one cadence of timers.
  double t = 1000.0;
  queue.push(t, [&fired] { ++fired; });
  for (int i = 0; i < 4096; ++i) {
    queue.pop().action();
    t += 0.25;
    queue.push(t, [&fired] { ++fired; });
  }
  queue.pop().action();
  const std::size_t allocations = guard.count();
  EXPECT_EQ(0u, allocations) << "EventQueue steady state allocated";
  EXPECT_GT(fired, 0u);
}

TEST(AllocationGuard, FlowSchedulerSteadyStateIsAllocationFree) {
  sim::Simulator sim(1);
  net::Topology topo(sim::Rng(1));
  std::vector<NodeId> nodes;
  for (int i = 0; i < 24; ++i) {
    net::NodeProfile profile;
    profile.hostname = "n" + std::to_string(i);
    profile.uplink_mbps = 4.0 + i % 5;
    profile.downlink_mbps = 8.0 + i % 7;
    nodes.push_back(topo.add_node(profile));
  }
  net::FlowScheduler scheduler(sim, topo);
  std::uint64_t completed = 0;

  const auto spawn = [&](int i, Bytes size) {
    net::FlowSpec spec;
    spec.src = nodes[static_cast<std::size_t>(i) % nodes.size()];
    spec.dst = nodes[static_cast<std::size_t>(i * 7 + 1) % nodes.size()];
    if (spec.src == spec.dst) spec.dst = nodes[(static_cast<std::size_t>(i) + 1) % nodes.size()];
    spec.size = size;
    spec.rate_cap = i % 3 == 0 ? 2.5 : 0.0;
    spec.on_complete = [&completed](Seconds) { ++completed; };
    return scheduler.start(std::move(spec));
  };

  // Warm: more concurrent flows than the measured phase uses, with
  // cancels and completions, so every slot vector, scratch buffer,
  // index table and the simulator's event pool reach their high-water
  // marks.
  const auto measured_round = [&](int round) {
    FlowId ids[48];
    for (int i = 0; i < 48; ++i) ids[i] = spawn(i + round, kilobytes(64.0));
    for (int i = 0; i < 48; i += 3) scheduler.cancel(ids[i]);
    sim.run();  // drive every remaining flow to completion
  };
  {
    std::vector<FlowId> warm;
    for (int i = 0; i < 96; ++i) warm.push_back(spawn(i, megabytes(1.0)));
    for (int i = 0; i < 96; i += 2) scheduler.cancel(warm[static_cast<std::size_t>(i)]);
    sim.run();
    ASSERT_EQ(0u, scheduler.active_flows());
    // One measured-shape round too: completion batching (the `done_`
    // staging buffer) depends on how many same-instant completions a
    // round produces, so warm with the exact shape being measured.
    measured_round(0);
  }

  AllocationGuard guard;
  for (int round = 0; round < 8; ++round) measured_round(round);
  const std::size_t allocations = guard.count();
  EXPECT_EQ(0u, allocations) << "FlowScheduler steady state allocated";
  EXPECT_GT(completed, 0u);
  EXPECT_EQ(0u, scheduler.active_flows());
}

TEST(AllocationGuard, SelectionModelsPetitionPathIsAllocationFree) {
  // Synthetic candidate pool; everything that allocates (the snapshot
  // vector itself) is built before the guard arms.
  std::vector<core::PeerSnapshot> pool;
  std::vector<PeerId> preference;
  for (int i = 0; i < 16; ++i) {
    core::PeerSnapshot s;
    s.peer = PeerId(static_cast<std::uint64_t>(i + 1));
    s.cpu_ghz = 1.0 + (i % 5) * 0.6;
    s.price_per_cpu_second = 0.5 + (i % 3) * 0.25;
    s.idle = i % 4 != 0;
    s.queued_tasks = i % 3;
    s.active_transfers = i % 2;
    pool.push_back(s);
    preference.push_back(PeerId(static_cast<std::uint64_t>(i + 1)));
  }

  // All five models behind the common interface; each keeps its own
  // arena and ranking buffer, so each must be warmed and soaked.
  core::BlindModel blind;
  core::EconomicSchedulingModel economic;
  core::DataEvaluatorModel evaluator = core::DataEvaluatorModel::same_priority();
  core::HybridModel hybrid;
  core::UserPreferenceModel user_pref(preference);
  core::SelectionModel* models[] = {&blind, &economic, &evaluator, &hybrid, &user_pref};

  core::SelectionContext ctx;
  ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
  ctx.payload_size = megabytes(10.0);
  ctx.exclude.reserve(4);

  std::vector<PeerId> out;
  std::uint64_t picks = 0;
  const auto petition = [&](core::SelectionModel& model, int i) {
    ctx.now = static_cast<Seconds>(i);
    ctx.purpose = i % 2 == 0 ? core::SelectionContext::Purpose::kFileTransfer
                             : core::SelectionContext::Purpose::kTaskExecution;
    ctx.work = i % 2 == 0 ? 0.0 : 40.0;
    ctx.exclude.clear();
    ctx.exclude.push_back(pool[static_cast<std::size_t>(i) % pool.size()].peer);
    model.rank_into(pool, ctx, out);
    // select() exercises the internal ranking buffer too. Both calls
    // count as petitions (the blind model's round-robin cursor moves
    // per call, so their winners are not compared).
    picks += model.select(pool, ctx).value();
    picks += out.size();
  };

  // Warm: arenas grow to the petition's high-water mark, `out` and the
  // models' internal ranking buffers reach capacity.
  for (auto* model : models) {
    for (int i = 0; i < 8; ++i) petition(*model, i);
  }

  AllocationGuard guard;
  for (auto* model : models) {
    for (int i = 0; i < 1000; ++i) petition(*model, i);
  }
  const std::size_t allocations = guard.count();
  EXPECT_EQ(0u, allocations) << "selection petition path allocated";
  EXPECT_GT(picks, 0u);
}

}  // namespace
}  // namespace peerlab

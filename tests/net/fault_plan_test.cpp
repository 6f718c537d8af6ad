#include "peerlab/net/fault_plan.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "peerlab/common/check.hpp"
#include "peerlab/obs/trace.hpp"
#include "peerlab/sim/simulator.hpp"

namespace peerlab::net {
namespace {

NodeProfile host(const std::string& name, MbitPerSec up = 8.0, MbitPerSec down = 8.0) {
  NodeProfile p;
  p.hostname = name;
  p.uplink_mbps = up;
  p.downlink_mbps = down;
  p.control_delay_mean = 0.05;
  p.control_delay_sigma = 0.0;
  p.loss_per_megabyte = 0.0;
  return p;
}

Network make_network(sim::Simulator& sim, int nodes) {
  Topology topo(sim.rng().fork(1));
  for (int i = 0; i < nodes; ++i) topo.add_node(host("h" + std::to_string(i)));
  NetworkConfig cfg;
  cfg.datagram_loss = 0.0;
  return Network(sim, std::move(topo), cfg);
}

// ---- FaultPlan (pure data) ----

TEST(FaultPlan, CrashEmitsPairedRestart) {
  FaultPlan plan;
  plan.crash(10.0, NodeId(1), 30.0);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kRestart);
  EXPECT_DOUBLE_EQ(plan.events()[1].at, 40.0);
}

TEST(FaultPlan, ValidatesArguments) {
  FaultPlan plan;
  EXPECT_THROW(plan.crash(10.0, NodeId(1), 0.0), InvariantError);
  EXPECT_THROW(plan.crash(-1.0, NodeId(1), 5.0), InvariantError);
  EXPECT_THROW(plan.crash(10.0, NodeId(), 5.0), InvariantError);
  EXPECT_THROW(plan.brownout(0.0, NodeId(1), 0.0, 5.0), InvariantError);
  EXPECT_THROW(plan.brownout(0.0, NodeId(1), 1.0, 5.0), InvariantError);
  EXPECT_THROW(plan.partition(0.0, NodeId(1), NodeId(2), 0.0), InvariantError);
}

TEST(FaultPlan, RandomChurnIsDeterministicPerSeed) {
  const std::vector<NodeId> nodes = {NodeId(1), NodeId(2), NodeId(3)};
  sim::Rng a(42), b(42), c(43);
  const FaultPlan pa = FaultPlan::random_churn(a, nodes, 300.0, 60.0, 0.0, 5000.0);
  const FaultPlan pb = FaultPlan::random_churn(b, nodes, 300.0, 60.0, 0.0, 5000.0);
  const FaultPlan pc = FaultPlan::random_churn(c, nodes, 300.0, 60.0, 0.0, 5000.0);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_DOUBLE_EQ(pa.events()[i].at, pb.events()[i].at);
    EXPECT_EQ(pa.events()[i].kind, pb.events()[i].kind);
    EXPECT_EQ(pa.events()[i].node, pb.events()[i].node);
  }
  // A different seed produces a different schedule.
  bool differs = pa.size() != pc.size();
  for (std::size_t i = 0; !differs && i < pa.size(); ++i) {
    differs = pa.events()[i].at != pc.events()[i].at;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, RandomChurnCrashesAreAlwaysRepaired) {
  const std::vector<NodeId> nodes = {NodeId(1), NodeId(2)};
  sim::Rng rng(7);
  const FaultPlan plan = FaultPlan::random_churn(rng, nodes, 200.0, 50.0, 100.0, 3000.0);
  int balance = 0;
  for (const auto& event : plan.events()) {
    EXPECT_GE(event.at, 100.0);
    if (event.kind == FaultKind::kCrash) {
      EXPECT_LT(event.at, 3000.0);
      ++balance;
    }
    if (event.kind == FaultKind::kRestart) --balance;
  }
  EXPECT_EQ(balance, 0);  // every crash has its restart
}

// ---- FaultInjector against a Network ----

TEST(FaultInjector, CrashAndRestartToggleNodeState) {
  sim::Simulator sim(1);
  auto net = make_network(sim, 2);
  FaultPlan plan;
  plan.crash(10.0, NodeId(2), 20.0);
  std::vector<std::pair<Seconds, bool>> hook_log;  // (when, up?)
  FaultInjector::Hooks hooks;
  hooks.on_crash = [&](NodeId) { hook_log.emplace_back(sim.now(), false); };
  hooks.on_restart = [&](NodeId) { hook_log.emplace_back(sim.now(), true); };
  FaultInjector injector(net, plan, std::move(hooks));

  EXPECT_TRUE(net.node_up(NodeId(2)));
  sim.run_until(15.0);
  EXPECT_FALSE(net.node_up(NodeId(2)));
  EXPECT_FALSE(net.reachable(NodeId(1), NodeId(2)));
  sim.run_until(35.0);
  EXPECT_TRUE(net.node_up(NodeId(2)));
  EXPECT_EQ(injector.crashes_applied(), 1u);
  EXPECT_EQ(injector.restarts_applied(), 1u);
  ASSERT_EQ(hook_log.size(), 2u);
  EXPECT_DOUBLE_EQ(hook_log[0].first, 10.0);
  EXPECT_FALSE(hook_log[0].second);
  EXPECT_DOUBLE_EQ(hook_log[1].first, 30.0);
  EXPECT_TRUE(hook_log[1].second);
}

TEST(FaultInjector, EventsAreDaemonsAndDoNotKeepTheRunAlive) {
  sim::Simulator sim(1);
  auto net = make_network(sim, 2);
  FaultPlan plan;
  plan.crash(1000.0, NodeId(2), 50.0);
  FaultInjector injector(net, plan);
  sim.run();  // no regular events: returns immediately at t=0
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(injector.crashes_applied(), 0u);
}

TEST(Network, CrashAbortsInFlightMessagesAtTheCrashInstant) {
  sim::Simulator sim(1);
  auto net = make_network(sim, 3);
  std::optional<Seconds> when;
  std::optional<bool> ok;
  // 8 Mbit/s both ways, 4 MB => 4 s unfaulted.
  net.start_message(NodeId(1), NodeId(2), megabytes(4.0), [&](bool o, Seconds) {
    ok = o;
    when = sim.now();
  });
  bool bystander_done = false;
  net.start_message(NodeId(3), NodeId(1), megabytes(1.0),
                    [&](bool o, Seconds) { bystander_done = o; });
  sim.schedule(1.5, [&] { net.crash_node(NodeId(2)); });
  sim.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(*ok);
  EXPECT_NEAR(*when, 1.5, 1e-9);
  EXPECT_EQ(net.messages_aborted(), 1u);
  EXPECT_TRUE(bystander_done);  // unrelated flow survives the crash
}

TEST(Network, SendToDownNodeFailsAfterFaultStall) {
  sim::Simulator sim(1);
  auto net = make_network(sim, 2);
  net.crash_node(NodeId(2));
  std::optional<Seconds> elapsed;
  std::optional<bool> ok;
  const FlowId id =
      net.start_message(NodeId(1), NodeId(2), megabytes(1.0), [&](bool o, Seconds e) {
        ok = o;
        elapsed = e;
      });
  EXPECT_FALSE(id.valid());
  sim.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(*ok);
  EXPECT_NEAR(*elapsed, net.config().fault_stall, 1e-9);
  EXPECT_EQ(net.messages_blocked(), 1u);
}

TEST(Network, DatagramsToAndFromDownNodesAreDropped) {
  sim::Simulator sim(1);
  auto net = make_network(sim, 2);
  net.crash_node(NodeId(1));
  int delivered = 0;
  net.send_datagram(NodeId(1), NodeId(2), kilobytes(1.0), [&] { ++delivered; });
  net.send_datagram(NodeId(2), NodeId(1), kilobytes(1.0), [&] { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.datagrams_blocked(), 2u);
}

TEST(Network, CrashBetweenSendAndArrivalKillsTheDatagram) {
  sim::Simulator sim(1);
  auto net = make_network(sim, 2);
  int delivered = 0;
  net.send_datagram(NodeId(1), NodeId(2), kilobytes(1.0), [&] { ++delivered; });
  // Control delay is ~51 ms; crash the destination while in flight.
  sim.schedule(0.01, [&] { net.crash_node(NodeId(2)); });
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.datagrams_blocked(), 1u);
}

TEST(Network, RestoredNodeCarriesTrafficAgain) {
  sim::Simulator sim(1);
  auto net = make_network(sim, 2);
  net.crash_node(NodeId(2));
  net.restore_node(NodeId(2));
  std::optional<bool> ok;
  net.start_message(NodeId(1), NodeId(2), megabytes(1.0),
                    [&](bool o, Seconds) { ok = o; });
  sim.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(*ok);
}

TEST(Network, PartitionBlocksOnlyThatPair) {
  sim::Simulator sim(1);
  auto net = make_network(sim, 3);
  net.partition(NodeId(1), NodeId(2));
  EXPECT_TRUE(net.partitioned(NodeId(2), NodeId(1)));  // symmetric
  EXPECT_FALSE(net.reachable(NodeId(1), NodeId(2)));
  EXPECT_TRUE(net.reachable(NodeId(1), NodeId(3)));
  int delivered = 0;
  net.send_datagram(NodeId(1), NodeId(2), kilobytes(1.0), [&] { ++delivered; });
  net.send_datagram(NodeId(1), NodeId(3), kilobytes(1.0), [&] { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, 1);
  net.heal(NodeId(1), NodeId(2));
  EXPECT_TRUE(net.reachable(NodeId(1), NodeId(2)));
}

TEST(Network, PartitionAbortsInFlightMessagesBetweenThePair) {
  sim::Simulator sim(1);
  auto net = make_network(sim, 3);
  std::optional<bool> cut_ok;
  bool other_ok = false;
  net.start_message(NodeId(1), NodeId(2), megabytes(4.0),
                    [&](bool o, Seconds) { cut_ok = o; });
  net.start_message(NodeId(3), NodeId(2), megabytes(1.0),
                    [&](bool o, Seconds) { other_ok = o; });
  sim.schedule(1.0, [&] { net.partition(NodeId(1), NodeId(2)); });
  sim.run();
  ASSERT_TRUE(cut_ok.has_value());
  EXPECT_FALSE(*cut_ok);
  EXPECT_TRUE(other_ok);
  EXPECT_EQ(net.messages_aborted(), 1u);
}

TEST(FaultInjector, BrownoutScalesCapacityAndRestores) {
  sim::Simulator sim(1);
  auto net = make_network(sim, 2);
  FaultPlan plan;
  plan.brownout(0.0, NodeId(2), 0.5, 100.0);
  FaultInjector injector(net, plan);
  std::optional<Seconds> elapsed;
  sim.schedule(0.0, [&] {
    // 1 MB at 8 Mbit/s would be 1 s; at half capacity it takes 2 s.
    net.start_message(NodeId(1), NodeId(2), megabytes(1.0),
                      [&](bool ok, Seconds e) {
                        ASSERT_TRUE(ok);
                        elapsed = e;
                      });
  });
  sim.run();
  ASSERT_TRUE(elapsed.has_value());
  EXPECT_NEAR(*elapsed, 2.0, 0.05);
  EXPECT_EQ(injector.brownouts_applied(), 1u);
  EXPECT_NEAR(net.flows().capacity_factor(NodeId(2)), 0.5, 1e-12);
  sim.run_until(150.0);  // the restoring event is a daemon: advance past it
  EXPECT_NEAR(net.flows().capacity_factor(NodeId(2)), 1.0, 1e-12);
}

TEST(FaultInjector, BrownoutLeavesOneAmbientTraceRecordPerFactorChange) {
  sim::Simulator sim(1);
  auto net = make_network(sim, 2);
  obs::trace::TraceRecorder recorder(sim);
  FaultPlan plan;
  plan.brownout(10.0, NodeId(2), 0.375, 100.0);
  FaultInjector injector(net, plan);
  injector.set_trace(&recorder);
  const auto brownouts = [&] {
    std::vector<obs::trace::TraceRecord> found;
    for (const auto& record : recorder.events()) {
      if (record.kind == obs::trace::TraceKind::kBrownout) found.push_back(record);
    }
    return found;
  };

  sim.run_until(50.0);  // the brownout began; its restore is still pending
  auto records = brownouts();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_DOUBLE_EQ(records[0].time, 10.0);
  EXPECT_EQ(records[0].node, NodeId(2));
  EXPECT_EQ(records[0].trace, 0u);  // ambient: outside any causal chain
  EXPECT_EQ(records[0].a, 375u);    // the factor, per mille

  sim.run_until(150.0);
  records = brownouts();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[1].time, 110.0);
  EXPECT_EQ(records[1].a, 1000u);  // back to nominal
}

}  // namespace
}  // namespace peerlab::net

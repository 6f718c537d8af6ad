// Property tests for the fluid max-min bandwidth allocator. For random
// topologies and flow sets we verify the allocation against the
// definition of max-min fairness rather than against hand-computed
// examples:
//   (P1) feasibility — no node capacity is exceeded, no flow exceeds
//        its rate cap, no rate is negative;
//   (P2) saturation — every flow is limited by *something*: its cap or
//        a saturated resource on its path;
//   (P3) max-min — a flow's rate can only be below another's if the
//        smaller flow is pinned by its cap or shares a saturated
//        resource with flows of no larger rate;
//   (P4) work conservation at the single shared bottleneck.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "peerlab/net/flow_scheduler.hpp"

namespace peerlab::net {
namespace {

struct Scenario {
  int nodes;
  int flows;
  std::uint64_t seed;
};

std::string scenario_name(const Scenario& s) {
  return "n" + std::to_string(s.nodes) + "_f" + std::to_string(s.flows) + "_s" +
         std::to_string(s.seed);
}

// ctest lists each case as "<name> # GetParam() = <printed param>";
// without this overload the param prints as raw bytes (padding
// included), so the names could differ between builds.
void PrintTo(const Scenario& s, std::ostream* os) { *os << scenario_name(s); }

class FlowFairnessTest : public ::testing::TestWithParam<Scenario> {};

constexpr double kEps = 1e-6;

TEST_P(FlowFairnessTest, MaxMinInvariantsHold) {
  const auto param = GetParam();
  sim::Simulator sim(param.seed);
  sim::Rng rng(param.seed * 77 + 1);

  net::Topology topo(sim.rng().fork(1));
  std::vector<NodeId> nodes;
  for (int i = 0; i < param.nodes; ++i) {
    NodeProfile p;
    p.hostname = "n" + std::to_string(i);
    p.uplink_mbps = rng.uniform(2.0, 50.0);
    p.downlink_mbps = rng.uniform(2.0, 50.0);
    nodes.push_back(topo.add_node(p));
  }
  FlowScheduler scheduler(sim, topo);

  struct FlowInfo {
    FlowId id;
    NodeId src, dst;
    double cap;
  };
  std::vector<FlowInfo> flows;
  for (int f = 0; f < param.flows; ++f) {
    const auto src = nodes[static_cast<std::size_t>(
        rng.uniform_int(0, param.nodes - 1))];
    NodeId dst = src;
    while (dst == src) {
      dst = nodes[static_cast<std::size_t>(rng.uniform_int(0, param.nodes - 1))];
    }
    FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.size = megabytes(100.0);  // long-lived: rates stay put
    const bool capped = rng.bernoulli(0.4);
    const double cap = capped ? rng.uniform(0.5, 10.0) : 0.0;
    spec.rate_cap = cap;
    spec.on_complete = [](Seconds) {};
    const FlowId id = scheduler.start(std::move(spec));
    flows.push_back(FlowInfo{id, src, dst, cap});
  }

  // Collect rates and per-resource usage.
  std::map<std::uint64_t, double> used;     // resource key -> rate sum
  std::map<std::uint64_t, double> capacity; // resource key -> capacity
  auto up_key = [](NodeId n) { return n.value() * 2; };
  auto down_key = [](NodeId n) { return n.value() * 2 + 1; };
  for (const auto& f : flows) {
    const double rate = scheduler.current_rate(f.id);
    // (P1) non-negative, cap respected.
    ASSERT_GE(rate, 0.0);
    if (f.cap > 0.0) {
      EXPECT_LE(rate, f.cap + kEps);
    }
    used[up_key(f.src)] += rate;
    used[down_key(f.dst)] += rate;
    capacity[up_key(f.src)] = topo.node(f.src).profile().uplink_mbps;
    capacity[down_key(f.dst)] = topo.node(f.dst).profile().downlink_mbps;
  }
  // (P1) feasibility per resource.
  for (const auto& [key, sum] : used) {
    EXPECT_LE(sum, capacity[key] + kEps) << "resource " << key << " oversubscribed";
  }

  auto saturated = [&](std::uint64_t key) {
    return used[key] >= capacity[key] - kEps;
  };

  // (P2) every flow is limited by its cap or by a saturated resource.
  for (const auto& f : flows) {
    const double rate = scheduler.current_rate(f.id);
    const bool at_cap = f.cap > 0.0 && rate >= f.cap - kEps;
    const bool at_bottleneck = saturated(up_key(f.src)) || saturated(down_key(f.dst));
    EXPECT_TRUE(at_cap || at_bottleneck)
        << "flow " << to_string(f.id) << " has slack everywhere (rate " << rate << ")";
  }

  // (P3) bottleneck condition (Bertsekas & Gallager): every flow not
  // pinned by its own cap must have a resource on its path that is
  // saturated and on which no other flow gets a strictly larger rate.
  auto max_rate_on = [&](std::uint64_t key) {
    double best = 0.0;
    for (const auto& f : flows) {
      if (up_key(f.src) == key || down_key(f.dst) == key) {
        best = std::max(best, scheduler.current_rate(f.id));
      }
    }
    return best;
  };
  for (const auto& a : flows) {
    const double ra = scheduler.current_rate(a.id);
    if (a.cap > 0.0 && ra >= a.cap - kEps) continue;  // pinned by cap
    bool has_bottleneck = false;
    for (const std::uint64_t key : {up_key(a.src), down_key(a.dst)}) {
      if (saturated(key) && ra >= max_rate_on(key) - kEps) {
        has_bottleneck = true;
        break;
      }
    }
    EXPECT_TRUE(has_bottleneck)
        << "max-min violated: " << to_string(a.id) << " (rate " << ra
        << ") has no bottleneck resource where it is among the fastest";
  }
  sim.clear();
}

INSTANTIATE_TEST_SUITE_P(
    RandomScenarios, FlowFairnessTest,
    ::testing::Values(Scenario{2, 2, 11}, Scenario{3, 4, 12}, Scenario{4, 8, 13},
                      Scenario{5, 12, 14}, Scenario{6, 16, 15}, Scenario{8, 24, 16},
                      Scenario{10, 32, 17}, Scenario{12, 48, 18}, Scenario{16, 64, 19},
                      Scenario{4, 20, 20}, Scenario{3, 30, 21}, Scenario{20, 40, 22}),
    [](const ::testing::TestParamInfo<Scenario>& info) { return scenario_name(info.param); });

TEST(FlowConservation, SingleBottleneckIsFullyUsed) {
  // 10 flows through one 10 Mbit/s uplink with ample downlinks: rates
  // must sum to exactly the bottleneck capacity.
  sim::Simulator sim(1);
  net::Topology topo(sim.rng().fork(1));
  NodeProfile src;
  src.hostname = "src";
  src.uplink_mbps = 10.0;
  src.downlink_mbps = 10.0;
  const NodeId s = topo.add_node(src);
  std::vector<NodeId> sinks;
  for (int i = 0; i < 10; ++i) {
    NodeProfile p;
    p.hostname = "sink" + std::to_string(i);
    p.uplink_mbps = 100.0;
    p.downlink_mbps = 100.0;
    sinks.push_back(topo.add_node(p));
  }
  FlowScheduler scheduler(sim, topo);
  std::vector<FlowId> ids;
  for (const auto d : sinks) {
    FlowSpec spec;
    spec.src = s;
    spec.dst = d;
    spec.size = megabytes(10.0);
    spec.on_complete = [](Seconds) {};
    ids.push_back(scheduler.start(std::move(spec)));
  }
  double total = 0.0;
  for (const auto id : ids) total += scheduler.current_rate(id);
  EXPECT_NEAR(total, 10.0, 1e-9);
  sim.clear();
}

}  // namespace
}  // namespace peerlab::net

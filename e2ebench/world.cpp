// e2e_world — peerlab's whole-stack benchmark program.
//
// Builds one world per repetition from the same public
// constructors planetlab::Deployment uses (Topology, Network,
// TransportFabric, BrokerPeer, ClientPeer, ReplicaSet, FaultInjector,
// BehaviorEngine), boots it, drives an open loop of petitions over a
// fixed simulated horizon in fixed simulated-time windows, drains the
// outstanding work for a bounded time and checks the outcome. Every
// input (profiles, requesters, arrival times, sizes, contracts, churn,
// adversaries) is generated from --seed before the first world is
// built; the worlds only consume those inputs.
//
//   e2e_world --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--layers <file>]
//
// --trace 0 cycles untraced repetitions through the seed's four worlds
// until --seconds of wall time are used and prints the end-to-end
// metrics, with wall times divided by the host's measured speed (see
// HostProbe). --trace 1 alternates untraced and traced repetitions of the
// first world (registry, WallProfiler sites and the benchmark's own
// per-event spans attached) and prints the per-layer metrics and the
// layer self-time table (also written to --layers). --tiny shrinks
// every workload for smoke tests. The last stdout line is one JSON
// object; a "detail" JSON line with digests and counts goes to stderr.
// Exit code 1 means a correctness check failed, 2 a usage error.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "peerlab/adversary/behavior_plan.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/net/fault_plan.hpp"
#include "peerlab/obs/metrics.hpp"
#include "peerlab/obs/profile.hpp"
#include "peerlab/overlay/broker.hpp"
#include "peerlab/overlay/client.hpp"
#include "peerlab/overlay/replica_set.hpp"
#include "peerlab/planetlab/catalog.hpp"
#include "peerlab/planetlab/profiles.hpp"

namespace {

using namespace peerlab;
using Clock = std::chrono::steady_clock;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Host-speed probe
//
// Runs of the same code on a shared host swing by up to half in wall
// time, between runs and inside one run, while CPU time stays equal to
// wall time: the host's speed changes, not the work. The probe is a
// fixed slice of simulator-shaped work that uses no peerlab code: an
// event heap driving hash-map lookups over a few MB of scattered nodes
// with small allocations (the event loop's pattern), then O(n) scoring
// passes over scattered records with a top-k pick (the selection
// scan's pattern). A slice runs after every window and every set-up
// build, so the probe sees the host the world saw a moment earlier. A
// window's wall time is divided by the mean slice time around it over
// kProbeReferenceS, a set-up's by that of the set-up builds in its
// cycle. A change to the program does not change the probe's work, so
// it moves the divided figures in full.

/// A slice's wall time on the reference host: the 4-core Xeon (KVM,
/// Release build) the benchmark was written on, in a quiet hour.
constexpr double kProbeReferenceS = 3.0e-3;

class HostProbe {
 public:
  HostProbe() {
    for (std::uint64_t k = 0; k < kNodes; ++k) nodes_.emplace(key(k), Node(8, 1.0));
    for (std::uint64_t i = 0; i < kNodes / 2; ++i) heap_.push({uniform(100.0), next() % kNodes});
    // Records allocated between filler blocks and visited in shuffled
    // order, so a scoring pass misses the cache the way a registry scan
    // does.
    std::vector<std::unique_ptr<char[]>> filler;
    for (int i = 0; i < kRecords; ++i) {
      auto& r = records_.emplace_back(std::make_unique<Record>());
      for (double& d : *r) d = uniform(1.0);
      filler.push_back(std::make_unique<char[]>(200));
    }
    for (std::size_t i = records_.size() - 1; i > 0; --i) {
      std::swap(records_[i], records_[next() % (i + 1)]);
    }
  }

  /// Runs one slice and returns its wall time in seconds.
  double slice() {
    const auto start = Clock::now();
    for (int i = 0; i < kSteps; ++i) {
      const Event e = heap_.top();
      heap_.pop();
      auto it = nodes_.find(key(e.node));
      double acc = 0.0;
      for (double& d : it->second) {
        d = d * 0.999 + e.at * 1e-6;
        acc += d;
      }
      if (i % 16 == 0) {  // re-insert as a fresh copy: an allocation and a rehash probe
        Node copy(it->second.begin(), it->second.end());
        nodes_.erase(it);
        nodes_.emplace(key(e.node), std::move(copy));
      }
      const std::function<double(double)> later = [acc](double t) { return t + acc * 1e-9; };
      heap_.push({later(e.at) + 1e-3 + uniform(1.0), next() % kNodes});
      sink_ += acc;
    }
    for (int pass = 0; pass < kPasses; ++pass) {
      scores_.clear();
      for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record& r = *records_[i];
        double v = 0.0;
        for (std::size_t j = 0; j < r.size(); j += 4) {
          v += r[j] * static_cast<double>(j + 1) / (r[j + 1] + 0.5) + r[j + 2] * r[j + 3];
        }
        scores_.emplace_back(v, i);
      }
      std::nth_element(scores_.begin(), scores_.begin() + 8, scores_.end());
      (*records_[scores_.front().second])[static_cast<std::size_t>(pass) % 32] += 1e-6;
      sink_ += scores_[8].first;
    }
    PEERLAB_CHECK_MSG(std::isfinite(sink_), "host probe diverged");
    return seconds_since(start);
  }

 private:
  using Node = std::vector<double>;
  using Record = std::array<double, 32>;
  struct Event {
    double at;
    std::uint64_t node;
    bool operator>(const Event& o) const { return at > o.at; }
  };
  static constexpr std::uint64_t kNodes = 65536;
  static constexpr int kSteps = 3000;
  static constexpr int kRecords = 1024;
  static constexpr int kPasses = 40;

  static std::uint64_t key(std::uint64_t k) { return k * 2654435761ULL; }
  std::uint64_t next() {  // xorshift64: fixed work, no peerlab RNG
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }
  double uniform(double hi) { return static_cast<double>(next() % 1000000) * hi * 1e-6; }

  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  std::unordered_map<std::uint64_t, Node> nodes_;
  std::vector<std::unique_ptr<Record>> records_;
  std::vector<std::pair<double, std::size_t>> scores_;
  std::uint64_t x_ = 88172645463325252ULL;
  double sink_ = 0.0;
};

/// Host-speed factor of each window: the mean of the probe slices
/// within kFactorReach windows of it, over the reference slice time.
constexpr std::size_t kFactorReach = 4;

std::vector<double> window_factors(const std::vector<double>& slices) {
  std::vector<double> out;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const std::size_t lo = i >= kFactorReach ? i - kFactorReach : 0;
    const std::size_t hi = std::min(slices.size(), i + kFactorReach + 1);
    double sum = 0.0;
    for (std::size_t j = lo; j < hi; ++j) sum += slices[j];
    out.push_back(sum / static_cast<double>(hi - lo) / kProbeReferenceS);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workloads

struct Spec {
  std::string name;
  int clients = 0;
  /// Open-loop petition rate (Poisson arrivals per simulated second).
  double rate = 0.0;
  /// true: the control peer issues every petition; false: a uniformly
  /// drawn client does.
  bool control_requester = true;
  double size_mb_lo = 1.0;
  double size_mb_hi = 1.0;
  int parts_lo = 4;
  int parts_hi = 4;
  /// Share of petitions that carry a deadline/budget contract.
  double contract_share = 0.0;
  bool defended = false;
  /// MTTF/MTTR client churn (0 = none) and one mid-run primary crash.
  Seconds mttf = 0.0;
  Seconds mttr = 0.0;
  bool broker_crash = false;
  /// Stats liars and flappers, each this share of the non-SC clients;
  /// any non-zero value also adds kFreeRiderShare free-riders per
  /// bandwidth stratum.
  double adversary_fraction = 0.0;
  Seconds horizon = 3600.0;
  Seconds window = 15.0;
};

/// Bounded drain after the horizon; ops still open then count failed.
constexpr Seconds kDrain = 900.0;

Spec make_spec(std::string_view name, bool tiny) {
  Spec s;
  s.name = std::string(name);
  if (name == "heartbeat-registry") {
    s.clients = 1000;
    s.rate = 0.5;
    s.size_mb_lo = 1.0;
    s.size_mb_hi = 4.0;
    s.parts_lo = 8;
    s.parts_hi = 16;
    s.horizon = 3600.0;
    s.window = 30.0;
  } else if (name == "flow-scatter") {
    s.clients = 200;
    s.rate = 2.5;
    s.control_requester = false;
    s.size_mb_lo = 4.0;
    s.size_mb_hi = 4.0;
    s.horizon = 3600.0;
    s.window = 30.0;
  } else if (name == "defended-churn") {
    s.clients = 1000;
    s.rate = 1.5;
    s.size_mb_lo = 1.0;
    s.size_mb_hi = 4.0;
    s.parts_lo = 2;
    s.parts_hi = 4;
    s.contract_share = 0.3;
    s.defended = true;
    s.mttf = 4.0 * 3600.0;
    s.mttr = 600.0;
    s.broker_crash = true;
    s.adversary_fraction = 0.01;
    s.horizon = 1800.0;
    s.window = 15.0;
  } else {
    s.clients = 0;
    return s;
  }
  if (tiny) {
    s.clients = std::max(25, s.clients / 20);
    s.rate /= 10.0;
    if (s.adversary_fraction > 0.0) s.adversary_fraction = 0.05;
    s.horizon = 600.0;
    s.window = 10.0;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Generated inputs (a pure function of the workload and the seed)

struct Op {
  Seconds at = 0.0;  // due time, relative to the start of the timed region
  int requester = -1;  // client index, -1 = the control peer
  Bytes size = 0;
  int parts = 1;
  bool contract = false;
  Seconds deadline_slack = 0.0;
  double budget = 0.0;
};

struct Crash {
  int client = 0;
  Seconds at = 0.0;  // relative to the start of the timed region
  Seconds downtime = 0.0;
};

struct Inputs {
  std::uint64_t sim_seed = 1;
  std::vector<net::NodeProfile> profiles;
  std::vector<Op> ops;
  std::vector<Crash> churn;
  Seconds broker_crash_at = -1.0;  // relative; < 0 = none
  adversary::BehaviorPlan adversaries;
};

// Node ids are handed out in add_node order, starting at 1: primary,
// standby, control, then the clients. Inputs name clients by index;
// the adversary plan needs their PeerIds up front.
constexpr std::uint64_t kFirstClientNode = 4;
/// slice_node_profile cycles its parameters with the ordinal modulo 20.
constexpr int kProfileClasses = 20;
/// Slice-node bandwidths are scaled by one of this many fixed factors.
constexpr int kBandwidthSteps = 7;
/// Share of each bandwidth stratum that free-rides: one peer in each
/// of the 28 strata of a 1,000-client world, so every seed's economic
/// model runs into some and sim_makespan_s.p99 does not flip between
/// modes from seed to seed.
constexpr double kFreeRiderShare = 0.03;

NodeId client_node(int index) { return NodeId(kFirstClientNode + static_cast<std::uint64_t>(index)); }

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

std::uint64_t bits(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

Inputs generate(const Spec& spec, std::uint64_t seed) {
  Inputs in;
  sim::Rng root(mix(seed, 0xE2EB0001ULL));
  in.sim_seed = mix(seed, 0x5151ULL) | 1ULL;

  // A fixed population: SC1..SC8 as calibrated, then slice-node
  // profiles cycling through the catalogue, the 20 profile classes of
  // slice_node_profile and a fixed bandwidth spread. The seed shuffles
  // which client holds which profile, so every seed builds the same mix
  // of fast and slow peers and the workloads cost the same per seed.
  for (int i = 0; i < std::min(8, spec.clients); ++i) {
    in.profiles.push_back(planetlab::simple_client_profile(i + 1));
  }
  const auto& table = planetlab::table1();
  std::vector<int> stratum;  // bandwidth stratum of clients 8, 9, ...
  std::vector<int> slots;
  for (int k = 0; k + 8 < spec.clients; ++k) slots.push_back(k);
  sim::Rng prof = root.fork(1);
  prof.shuffle(slots);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const int k = slots[i];
    const auto& entry = table[static_cast<std::size_t>(k) % table.size()];
    net::NodeProfile p = planetlab::slice_node_profile(entry, k % kProfileClasses);
    const int step = (k / kProfileClasses) % kBandwidthSteps;
    const double bw = 0.85 + 0.05 * static_cast<double>(step);
    p.uplink_mbps *= bw;
    p.downlink_mbps *= bw;
    p.hostname = "c" + std::to_string(i + 8) + "." + entry.hostname;
    in.profiles.push_back(std::move(p));
    // slice_node_profile's bandwidth cycles with the ordinal modulo 4.
    stratum.push_back((k % 4) * kBandwidthSteps + step);
  }

  sim::Rng arrivals = root.fork(2);
  for (Seconds t = arrivals.exponential(1.0 / spec.rate); t < spec.horizon;
       t += arrivals.exponential(1.0 / spec.rate)) {
    Op op;
    op.at = t;
    op.requester = spec.control_requester
                       ? -1
                       : static_cast<int>(arrivals.uniform_int(0, spec.clients - 1));
    const double mb = std::round(arrivals.uniform(spec.size_mb_lo, spec.size_mb_hi) * 10.0) / 10.0;
    op.size = megabytes(mb);
    op.parts = static_cast<int>(arrivals.uniform_int(spec.parts_lo, spec.parts_hi));
    if (spec.contract_share > 0.0 && arrivals.bernoulli(spec.contract_share)) {
      op.contract = true;
      op.parts = 2;
      op.deadline_slack = arrivals.uniform(45.0, 240.0);
      op.budget = arrivals.uniform(20.0, 120.0);
    }
    in.ops.push_back(op);
  }

  if (spec.mttf > 0.0) {
    sim::Rng churn = root.fork(3);
    // SC1..SC8 stay up: they are the peers every model favours, and a
    // seed that happened to crash one would cost more than the rest.
    for (int i = 8; i < spec.clients; ++i) {
      for (Seconds t = churn.exponential(spec.mttf); t < spec.horizon;) {
        const Seconds down = churn.exponential(spec.mttr);
        in.churn.push_back({i, t, down});
        t += down + churn.exponential(spec.mttf);
      }
    }
  }
  if (spec.broker_crash) {
    sim::Rng crash = root.fork(4);
    in.broker_crash_at = spec.horizon * crash.uniform(0.25, 0.35);
  }
  if (spec.adversary_fraction > 0.0) {
    // Free-riders are drawn per bandwidth stratum, so every seed puts
    // some among the fastest peers (the ones the economic model loads);
    // stats liars and flappers are drawn from the whole population.
    // SC1..SC8 stay honest so the calibrated testbed keeps its shape.
    sim::Rng adv = root.fork(5);
    std::vector<PeerId> everyone;
    std::vector<std::vector<PeerId>> strata(4 * kBandwidthSteps);
    for (std::size_t i = 0; i < stratum.size(); ++i) {
      const PeerId peer = overlay::peer_of(client_node(static_cast<int>(i) + 8));
      everyone.push_back(peer);
      strata[static_cast<std::size_t>(stratum[i])].push_back(peer);
    }
    for (const auto& peers : strata) {
      in.adversaries.merge(adversary::BehaviorPlan::random_adversaries(
          adv, peers, kFreeRiderShare,
          adversary::BehaviorKind::kFreeRider));
    }
    for (const auto kind : {adversary::BehaviorKind::kStatsLiar, adversary::BehaviorKind::kFlapper}) {
      in.adversaries.merge(adversary::BehaviorPlan::random_adversaries(
          adv, everyone, spec.adversary_fraction, kind));
    }
  }
  return in;
}

std::uint64_t inputs_digest(const Inputs& in) {
  std::uint64_t h = mix(0, in.sim_seed);
  for (const auto& p : in.profiles) {
    h = mix(h, bits(p.uplink_mbps));
    h = mix(h, bits(p.control_delay_mean));
    h = mix(h, std::hash<std::string>{}(p.hostname));
  }
  for (const auto& op : in.ops) {
    h = mix(h, bits(op.at));
    h = mix(h, static_cast<std::uint64_t>(op.requester + 1));
    h = mix(h, static_cast<std::uint64_t>(op.size));
    h = mix(h, static_cast<std::uint64_t>(op.parts) * 2 + (op.contract ? 1 : 0));
  }
  for (const auto& c : in.churn) h = mix(mix(h, bits(c.at)), static_cast<std::uint64_t>(c.client));
  h = mix(h, bits(in.broker_crash_at));
  for (const auto& a : in.adversaries.specs()) h = mix(h, a.peer.value() * 8 + static_cast<std::uint64_t>(a.kind));
  return h;
}

// ---------------------------------------------------------------------------
// The world

transport::FileTransferConfig churn_transfer() {
  // Same tuning as the churn bench: a dead peer triggers failover after
  // about a minute instead of a quarter hour of retries.
  transport::FileTransferConfig cfg;
  cfg.petition_retry.initial_timeout = 15.0;
  cfg.petition_retry.backoff = 1.5;
  cfg.petition_retry.max_attempts = 4;
  cfg.confirm_timeout = 30.0;
  cfg.max_confirm_queries = 6;
  cfg.max_part_attempts = 6;
  return cfg;
}

overlay::DistributionOptions churn_failover() {
  overlay::DistributionOptions options;
  options.max_failovers_per_share = 6;
  return options;
}

/// Instruments of a traced repetition.
struct Tracing {
  obs::MetricRegistry registry;
  obs::WallProfiler profiler{registry};
  obs::WallProfiler::Site* issue_site = nullptr;
};

struct OpOutcome {
  bool done = false;
  bool ok = false;
  Seconds finished = 0.0;
};

class World {
 public:
  World(const Spec& spec, const Inputs& in)
      : spec_(spec), in_(in), sim_(in.sim_seed), outcomes_(in.ops.size()) {
    overlay::ClientConfig client_cfg;
    overlay::BrokerConfig broker_cfg;
    broker_cfg.heartbeat_interval = client_cfg.heartbeat_interval;
    broker_cfg.reputation.enabled = spec.defended;
    broker_cfg.econ.enabled = spec.contract_share > 0.0;

    net::Topology topo(sim_.rng().fork(0x9EE20FABull));
    const NodeId primary_node = topo.add_node(planetlab::broker_profile());
    net::NodeProfile standby_profile = planetlab::broker_profile();
    standby_profile.hostname = "nozomi-s1.lsi.upc.edu";
    const NodeId standby_node = topo.add_node(standby_profile);
    net::NodeProfile control_profile = planetlab::broker_profile();
    control_profile.hostname = "nozomi-c1.lsi.upc.edu";
    const NodeId control_node = topo.add_node(control_profile);
    for (int i = 0; i < spec.clients; ++i) {
      const NodeId node = topo.add_node(in.profiles[static_cast<std::size_t>(i)]);
      PEERLAB_CHECK_MSG(node == client_node(i), "client node ids must follow input order");
    }

    network_.emplace(sim_, std::move(topo));
    fabric_.emplace(*network_);
    primary_ = std::make_unique<overlay::BrokerPeer>(*fabric_, primary_node, directories_,
                                                     broker_cfg);
    active_ = primary_.get();
    if (spec.broker_crash) {
      standby_ = std::make_unique<overlay::BrokerPeer>(*fabric_, standby_node, directories_,
                                                       broker_cfg);
      replicas_ = std::make_unique<overlay::ReplicaSet>(*fabric_);
      replicas_->add_primary(*primary_);
      replicas_->add_standby(*standby_);
      replicas_->set_failover_callback(
          [this](const overlay::ReplicaSet::FailoverEvent& event) { on_failover(event); });
      replicas_->start();
    }
    for (overlay::BrokerPeer* broker : {primary_.get(), standby_.get()}) {
      if (broker != nullptr) {
        broker->set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
      }
    }
    control_ = std::make_unique<overlay::ClientPeer>(*fabric_, control_node, primary_node,
                                                     directories_, client_cfg);
    clients_.reserve(static_cast<std::size_t>(spec.clients));
    for (int i = 0; i < spec.clients; ++i) {
      clients_.push_back(std::make_unique<overlay::ClientPeer>(
          *fabric_, client_node(i), primary_node, directories_, client_cfg));
    }
  }

  /// Attaches the registry and the WallProfiler sites through the
  /// components' public attach calls; call before arm() so the fault
  /// injector and the adversaries attach too.
  void attach(Tracing& tracing) {
    tracing_ = &tracing;
    auto& reg = tracing.registry;
    network_->attach_metrics(reg, true, &tracing.profiler);
    primary_->attach_metrics(reg, &tracing.profiler);
    if (standby_) standby_->attach_metrics(reg, &tracing.profiler);
    if (replicas_) replicas_->attach_metrics(reg);
    control_->attach_metrics(reg);
    for (auto& c : clients_) c->attach_metrics(reg);
    tracing.issue_site = &tracing.profiler.site("bench.issue");
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Starts every client and runs until all have registered (bounded).
  bool boot() {
    for (auto& c : clients_) c->start();
    const Seconds deadline = sim_.now() + 1200.0;
    sim_.run_until(sim_.now() + 60.0);
    while (primary_->registered_clients().size() < clients_.size() && sim_.now() < deadline) {
      sim_.run_until(sim_.now() + 60.0);
    }
    return primary_->registered_clients().size() == clients_.size();
  }

  /// Arms churn, the broker crash and the adversaries relative to `t0`.
  void arm(Seconds t0) {
    net::FaultPlan plan;
    for (const auto& c : in_.churn) plan.crash(t0 + c.at, client_node(c.client), c.downtime);
    if (in_.broker_crash_at >= 0.0) plan.crash_forever(t0 + in_.broker_crash_at, primary_->node());
    if (!plan.empty()) {
      net::FaultInjector::Hooks hooks;
      // The same co-simulation as Deployment::install_faults.
      hooks.on_crash = [this](NodeId node) {
        if (auto* c = client_by_node(node)) c->stop();
        if (replicas_ != nullptr && replicas_->is_member(node)) replicas_->notify_crash(node);
      };
      hooks.on_restart = [this](NodeId node) {
        if (auto* c = client_by_node(node)) c->start();
        if (replicas_ != nullptr && replicas_->is_member(node)) replicas_->notify_restart(node);
      };
      injector_ = std::make_unique<net::FaultInjector>(*network_, std::move(plan), std::move(hooks));
      if (tracing_ != nullptr) injector_->attach_metrics(tracing_->registry);
    }
    if (!in_.adversaries.empty()) {
      behaviors_ = std::make_unique<adversary::BehaviorEngine>(sim_, in_.adversaries,
                                                               sim_.rng().fork(0xADBEA7ull));
      if (tracing_ != nullptr) behaviors_->attach_metrics(tracing_->registry);
      for (auto& c : clients_) behaviors_->bind(*c);
    }
  }

  /// Schedules op `index` at its due time (absolute `t0 + op.at`).
  void schedule_op(std::size_t index, Seconds t0) {
    sim_.schedule_at(t0 + in_.ops[index].at, [this, index] { issue(index); });
  }

  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] std::size_t issued() const noexcept { return issued_; }
  [[nodiscard]] std::size_t resolved() const noexcept { return resolved_; }
  [[nodiscard]] bool violated() const noexcept { return violated_; }
  [[nodiscard]] const std::vector<OpOutcome>& outcomes() const noexcept { return outcomes_; }
  [[nodiscard]] std::uint64_t elections() const { return replicas_ ? replicas_->elections() : 0; }

  /// Digest of everything simulated: op outcomes, the clock, and the
  /// program's own always-on counters (no registry needed).
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = mix(0, bits(sim_.now()));
    for (const auto& o : outcomes_) {
      h = mix(h, (o.done ? 2u : 0u) + (o.ok ? 1u : 0u));
      h = mix(h, bits(o.finished));
    }
    for (const auto* b : {primary_.get(), standby_.get()}) {
      if (b == nullptr) continue;
      h = mix(h, b->heartbeats_received());
      h = mix(h, b->selections_served());
      h = mix(h, b->reports_applied());
      h = mix(h, b->candidate_index().fast_path_selections());
      h = mix(h, b->candidate_index().rekeys());
      h = mix(h, b->candidate_index().bound_pulls());
    }
    h = mix(h, network_->datagrams_sent());
    h = mix(h, network_->datagrams_lost());
    h = mix(h, network_->messages_started());
    std::uint64_t transfers = control_->files().transfers_completed();
    std::uint64_t reissues = control_->selection_reissues();
    for (const auto& c : clients_) {
      transfers += c->files().transfers_completed();
      reissues += c->selection_reissues();
    }
    h = mix(h, transfers);
    h = mix(h, reissues);
    h = mix(h, injector_ ? injector_->crashes_applied() : 0);
    h = mix(h, elections());
    return h;
  }

  /// Timed direct selections on the live registry, at the same k as
  /// the workload's uncontracted petitions (traced runs only). Nothing
  /// arrives between probes, so only the first finds dirty index slots.
  std::vector<double> probe_selections(int count, std::uint64_t* dense_sweeps) {
    std::vector<double> us;
    us.reserve(static_cast<std::size_t>(count));
    core::SelectionContext ctx;
    ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
    ctx.now = sim_.now();
    const std::uint64_t sweeps_before = active_->candidate_index().dense_sweeps();
    std::uint64_t sink = 0;
    for (int i = 0; i < count; ++i) {
      ctx.payload_size = megabytes(1.0 + static_cast<double>(i % 16));
      const auto k = static_cast<std::size_t>(spec_.parts_lo + i % (spec_.parts_hi - spec_.parts_lo + 1));
      const auto start = Clock::now();
      const std::vector<PeerId> picks = active_->select_peers(ctx, k);
      us.push_back(seconds_since(start) * 1e6);
      sink += picks.empty() ? 0 : picks.front().value();
    }
    PEERLAB_CHECK_MSG(sink != 0, "probe selections returned no peer");
    *dense_sweeps = active_->candidate_index().dense_sweeps() - sweeps_before;
    return us;
  }

 private:
  overlay::ClientPeer* client_by_node(NodeId node) {
    if (node.value() < kFirstClientNode) return nullptr;
    const std::uint64_t i = node.value() - kFirstClientNode;
    return i < clients_.size() ? clients_[i].get() : nullptr;
  }

  void on_failover(const overlay::ReplicaSet::FailoverEvent& event) {
    // The same re-homing as Deployment::on_broker_failover.
    if (control_->broker_node() == event.old_primary) control_->rehome(event.new_primary);
    for (auto& c : clients_) {
      if (c->broker_node() == event.old_primary) c->rehome(event.new_primary);
    }
    if (standby_ && standby_->node() == event.new_primary) active_ = standby_.get();
  }

  void resolve(std::size_t index, bool ok) {
    OpOutcome& o = outcomes_[index];
    if (o.done) {
      violated_ = true;  // a second callback for one op
      return;
    }
    o.done = true;
    o.ok = ok;
    o.finished = sim_.now();
    ++resolved_;
  }

  void issue(std::size_t index) {
    ++issued_;
    const Op& op = in_.ops[index];
    overlay::ClientPeer& requester =
        op.requester < 0 ? *control_ : *clients_[static_cast<std::size_t>(op.requester)];
    const obs::WallProfiler::Span span(tracing_ != nullptr ? &tracing_->profiler : nullptr,
                                       tracing_ != nullptr ? tracing_->issue_site : nullptr);
    core::SelectionContext ctx;
    ctx.now = sim_.now();
    ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
    ctx.payload_size = op.size;
    std::size_t k = static_cast<std::size_t>(op.parts);
    if (op.contract) {
      ctx.deadline = ctx.now + op.deadline_slack;
      ctx.budget = op.budget;
      k = 1;
    }
    requester.request_selection(ctx, k, [this, index, &requester](std::vector<PeerId> peers) {
      std::erase(peers, requester.id());
      if (peers.empty()) {
        resolve(index, false);
        return;
      }
      const Op& o = in_.ops[index];
      requester.files().distribute(
          o.size, o.parts, peers,
          spec_.defended ? churn_transfer() : transport::FileTransferConfig{},
          [this, index](const overlay::FileService::DistributionResult& r) {
            resolve(index, r.complete);
          },
          spec_.defended ? churn_failover() : overlay::DistributionOptions{});
    });
  }

  const Spec& spec_;
  const Inputs& in_;
  // Declaration order mirrors planetlab::Deployment (destroyed in reverse).
  sim::Simulator sim_;
  Tracing* tracing_ = nullptr;
  overlay::OverlayDirectories directories_;
  std::optional<net::Network> network_;
  std::optional<transport::TransportFabric> fabric_;
  std::unique_ptr<overlay::BrokerPeer> primary_;
  std::unique_ptr<overlay::BrokerPeer> standby_;
  std::unique_ptr<overlay::ReplicaSet> replicas_;
  std::vector<std::unique_ptr<overlay::ClientPeer>> clients_;
  std::unique_ptr<overlay::ClientPeer> control_;
  std::unique_ptr<net::FaultInjector> injector_;
  std::unique_ptr<adversary::BehaviorEngine> behaviors_;
  overlay::BrokerPeer* active_ = nullptr;
  std::vector<OpOutcome> outcomes_;
  std::size_t issued_ = 0;
  std::size_t resolved_ = 0;
  bool violated_ = false;
};

// ---------------------------------------------------------------------------
// Per-event layer attribution (traced repetitions only)
//
// The traced repetition steps the simulator one event at a time, reads
// the wall clock once per event, and charges the event's time to the
// first layer whose counter moved during it. Time inside the program's
// own WallProfiler sites (flows.relevel, selection.rank) and the
// benchmark's bench.issue span is deducted and reported under those
// sites instead. Events that move no counter (JXTA, timers) stay
// unattributed.

enum Layer : int {
  kSelectionServe,
  kHeartbeat,
  kStatsIngest,
  kFlowEvents,
  kTransport,
  kDatagram,
  kUnattributed,
  kLayerCount
};

constexpr const char* kLayerNames[kLayerCount] = {
    "overlay.selection_serve", "overlay.heartbeat_ingest", "overlay.stats_ingest",
    "net.flow_events",         "transport.transfer",       "net.datagram_send",
    "unattributed"};

struct Attribution {
  std::vector<const obs::Counter*> by_layer[kLayerCount - 1];
  std::vector<const obs::Histogram*> child_sites;
  std::uint64_t last[kLayerCount - 1] = {};
  double child_last = 0.0;
  double self_s[kLayerCount] = {};
  std::uint64_t events[kLayerCount] = {};

  explicit Attribution(Tracing& t) {
    auto& r = t.registry;
    const auto c = [&](const char* name) { return &r.counter(name); };
    by_layer[kSelectionServe] = {c("overlay.selections_served")};
    by_layer[kHeartbeat] = {c("overlay.heartbeats")};
    by_layer[kStatsIngest] = {c("overlay.stats_reports")};
    by_layer[kFlowEvents] = {c("net.flows.started"), c("net.flows.completed"),
                             c("net.flows.aborted"), c("net.flows.cancelled"),
                             c("net.flows.relevels")};
    by_layer[kTransport] = {c("transport.transfers.started"), c("transport.parts.confirmed"),
                            c("transport.petitions.served")};
    by_layer[kDatagram] = {c("net.datagrams.sent")};
    for (const char* site : {"flows.relevel", "selection.rank", "bench.issue"}) {
      child_sites.push_back(t.profiler.site(site).wall);
    }
    for (int l = 0; l + 1 < kLayerCount; ++l) last[l] = sum(l);
    child_last = child_total();
  }

  double child_total() const {
    double s = 0.0;
    for (const auto* h : child_sites) s += h->sum();
    return s;
  }


  std::uint64_t sum(int layer) const {
    std::uint64_t s = 0;
    for (const auto* c : by_layer[layer]) s += c->value();
    return s;
  }

  void charge(double wall) {
    int layer = kUnattributed;
    for (int l = 0; l + 1 < kLayerCount; ++l) {
      const std::uint64_t now = sum(l);
      if (now != last[l] && layer == kUnattributed) layer = l;
      last[l] = now;
    }
    const double child = child_total();
    self_s[layer] += wall - (child - child_last);
    child_last = child;
    ++events[layer];
  }
};

// ---------------------------------------------------------------------------
// One repetition

/// The registry's counters, gauges and histograms copied at one
/// instant, so drain and probe work after the horizon stays out of the
/// timed-region figures.
struct Snapshot {
  std::map<std::string, double, std::less<>> values;
  std::map<std::string, obs::Histogram, std::less<>> histograms;

  explicit Snapshot(const obs::MetricRegistry& registry) {
    for (const auto& e : registry.entries()) {
      if (e.counter != nullptr) values[e.name] = static_cast<double>(e.counter->value());
      if (e.gauge != nullptr) values[e.name] = e.gauge->value();
      if (e.histogram != nullptr) histograms.emplace(e.name, *e.histogram);
    }
  }

  [[nodiscard]] double value(std::string_view name) const {
    const auto it = values.find(name);
    return it != values.end() ? it->second : 0.0;
  }

  [[nodiscard]] double quantile(std::string_view name, double q) const {
    const auto it = histograms.find(name);
    return it != histograms.end() ? it->second.quantile(q) : 0.0;
  }
};

struct Setup {
  double build_s = 0.0;
  double boot_s = 0.0;
  bool registered_all = false;
  double host_factor = 1.0;  // of the set-up builds in its cycle
};

/// Build plus boot until every client has registered.
std::unique_ptr<World> set_up(const Spec& spec, const Inputs& in, Setup& setup) {
  auto start = Clock::now();
  auto world = std::make_unique<World>(spec, in);
  setup.build_s = seconds_since(start);
  start = Clock::now();
  setup.registered_all = world->boot();
  setup.boot_s = seconds_since(start);
  return world;
}

struct RepResult {
  std::size_t world = 0;
  Setup setup;
  double timed_wall_s = 0.0;
  std::vector<double> window_ms;
  std::vector<double> host_slices_s;  // host-probe slice after each window (untraced)
  std::vector<std::size_t> backlog;  // outstanding ops at each window end
  std::uint64_t timed_events = 0;
  std::size_t queue_peak = 0;
  std::size_t attempted = 0;
  std::size_t completed = 0;
  std::vector<double> makespans;
  bool violated = false;
  std::uint64_t digest = 0;
  // Traced repetitions only.
  std::unique_ptr<Tracing> tracing;
  std::optional<Snapshot> at_horizon;
  double transfers_completed_frac = 0.0;  // after the drain
  double layer_self_s[kLayerCount] = {};
  std::uint64_t layer_events[kLayerCount] = {};
  std::vector<double> probe_us;
  std::uint64_t probe_dense_sweeps = 0;
};

/// One repetition; an untraced one runs a host-probe slice after every
/// window, outside the window's timing.
RepResult run_rep(const Spec& spec, const Inputs& in, bool traced, HostProbe& host) {
  RepResult r;
  auto world = set_up(spec, in, r.setup);

  sim::Simulator& sim = world->sim();
  // Window edges sit half a second past whole seconds so no periodic
  // timer shares an instant with them.
  const Seconds t0 = sim.now() + 0.5;
  sim.run_until(t0);
  if (traced) {
    r.tracing = std::make_unique<Tracing>();
    world->attach(*r.tracing);
  }
  world->arm(t0);

  std::optional<Attribution> attribution;
  if (traced) attribution.emplace(*r.tracing);
  const int windows = static_cast<int>(std::llround(spec.horizon / spec.window));
  std::size_t next_op = 0;
  const std::uint64_t events_before = sim.executed_events();
  for (int w = 0; w < windows; ++w) {
    const Seconds end = t0 + spec.window * (w + 1);
    while (next_op < in.ops.size() && t0 + in.ops[next_op].at < end) {
      world->schedule_op(next_op++, t0);
    }
    const auto ws = Clock::now();
    if (!traced) {
      sim.run_until(end);
    } else {
      bool reached = false;
      sim.schedule_at(end, [&reached] { reached = true; });
      auto last = Clock::now();
      while (!reached) {
        sim.step(1);
        const auto now = Clock::now();
        attribution->charge(std::chrono::duration<double>(now - last).count());
        last = now;
      }
      r.queue_peak = std::max(r.queue_peak, sim.pending_events());
    }
    const double ms = seconds_since(ws) * 1e3;
    r.window_ms.push_back(ms);
    r.timed_wall_s += ms / 1e3;
    r.backlog.push_back(world->issued() - world->resolved());
    if (!traced) r.host_slices_s.push_back(host.slice());
  }
  // Sentinels are not program events; keep the count comparable.
  r.timed_events = sim.executed_events() - events_before - (traced ? static_cast<std::uint64_t>(windows) : 0);
  if (traced) {
    for (int l = 0; l < kLayerCount; ++l) {
      r.layer_self_s[l] = attribution->self_s[l];
      r.layer_events[l] = attribution->events[l];
    }
    r.at_horizon.emplace(r.tracing->registry);
  }

  const Seconds drain_end = sim.now() + kDrain;
  while (world->resolved() < world->issued() && sim.now() < drain_end) {
    sim.run_until(std::min(drain_end, sim.now() + 30.0));
  }
  r.digest = world->digest();
  if (traced) {
    const Snapshot drained(r.tracing->registry);
    r.transfers_completed_frac = ratio(drained.value("transport.transfers.completed"),
                                       drained.value("transport.transfers.started"));
    r.probe_us = world->probe_selections(2000, &r.probe_dense_sweeps);
  }

  r.attempted = in.ops.size();
  r.violated = world->violated() || world->issued() != in.ops.size();
  for (std::size_t i = 0; i < world->outcomes().size(); ++i) {
    const OpOutcome& o = world->outcomes()[i];
    if (o.done && o.ok) {
      ++r.completed;
      r.makespans.push_back(o.finished - (t0 + in.ops[i].at));
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Statistics and output

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double resident_mb() {
  long total = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &total, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

/// The saturation guard: outstanding ops per window must not grow
/// across the second half of the horizon. An open loop below
/// saturation drains back to its usual backlog between storms (a
/// failover, a burst of free-riders), so the floor of its backlog (the
/// 10th percentile over a half of the windows) holds; an overloaded one
/// never drains back. The guard compares the second half's floor with
/// the first half's and allows a rise of the first half's own swing
/// (its interquartile range) or ten ops, whichever is larger. A backlog
/// that climbs by G ops a quarter has a first-half interquartile range
/// of about G and a floor that rises by about 2G, so any steady climb
/// of more than ten ops a quarter trips the guard. A storm still
/// running at the horizon does not, as long as it covers less than 90%
/// of the second half.
bool backlog_stable(const std::vector<std::size_t>& backlog, double* growth, double* allowance) {
  const auto mid = backlog.begin() + static_cast<std::ptrdiff_t>(backlog.size() / 2);
  const std::vector<double> first(backlog.begin(), mid);
  const std::vector<double> second(mid, backlog.end());
  *growth = quantile(second, 0.1) - quantile(first, 0.1);
  *allowance = std::max(10.0, quantile(first, 0.75) - quantile(first, 0.25));
  return *growth <= *allowance;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}


constexpr int kSetupsPerCycle = 8;
constexpr std::size_t kWorlds = 4;

int usage() {
  std::fprintf(stderr,
               "usage: e2e_world --workload <heartbeat-registry|flow-scatter|defended-churn> "
               "--seed <n> --seconds <s> --trace <0|1> [--tiny] [--layers <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double budget_s = 10.0;
  int trace = 0;
  bool tiny = false;
  const char* layers_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--tiny") {
      tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (arg == "--workload") workload = v;
    else if (arg == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") budget_s = std::atof(v);
    else if (arg == "--trace") trace = std::atoi(v);
    else if (arg == "--layers") layers_path = v;
    else return usage();
  }
  const Spec spec = make_spec(workload, tiny);
  if (spec.clients == 0 || budget_s <= 0.0 || (trace != 0 && trace != 1)) return usage();

  // A run measures kWorlds independent worlds generated from the seed,
  // so its figures average over several draws of churn, adversaries and
  // arrivals instead of hanging on one.
  std::vector<Inputs> worlds;
  for (std::uint64_t w = 0; w < kWorlds; ++w) worlds.push_back(generate(spec, mix(seed, w)));
  // The host probe stays resident all run; peak_rss_mb leaves it out.
  const double before_host_mb = resident_mb();
  HostProbe host;
  const double host_mb = resident_mb() - before_host_mb;
  const auto measure_start = Clock::now();

  // Cycles of one untraced repetition (plus, with --trace 1, one traced
  // repetition of the same world) and a few set-up-only builds, until
  // the wall budget is used. --trace 0 cycles through the worlds and
  // runs each at least once and the first one twice, so a digest is
  // compared across repeated runs of one world. --trace 1 runs world 0
  // only. A host-probe slice follows every untraced window and every
  // set-up-only build; the set-up slices of a cycle give the speed
  // factor of its set-ups.
  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  std::vector<Setup> setups;
  const std::size_t min_plain = trace == 0 ? kWorlds + 1 : 1;
  while (true) {
    const auto cycle_start = Clock::now();
    const std::size_t w = trace == 0 ? plain.size() % kWorlds : 0;
    const std::size_t cycle_setups = setups.size();
    plain.push_back(run_rep(spec, worlds[w], false, host));
    plain.back().world = w;
    setups.push_back(plain.back().setup);
    if (trace == 1) {
      traced.push_back(run_rep(spec, worlds[w], true, host));
      traced.back().world = w;
      setups.push_back(traced.back().setup);
    }
    double slice_sum = 0.0;
    for (int i = 0; i < kSetupsPerCycle; ++i) {
      Setup setup;
      set_up(spec, worlds[w], setup).reset();
      setups.push_back(setup);
      slice_sum += host.slice();
    }
    const double factor = slice_sum / kSetupsPerCycle / kProbeReferenceS;
    for (std::size_t i = cycle_setups; i < setups.size(); ++i) setups[i].host_factor = factor;
    const double cycle_s = seconds_since(cycle_start);
    if (plain.size() >= min_plain && seconds_since(measure_start) + cycle_s > budget_s) break;
  }

  // Correctness: every client registered, no op lost or resolved
  // twice, the same digest from every repetition of one world (traced
  // ones included: instrumentation must not change what is simulated),
  // and no backlog growth across the second half of any world.
  bool correct = true;
  std::string why;
  const auto fail = [&](const char* reason) {
    correct = false;
    if (why.find(reason) != std::string::npos) return;
    if (!why.empty()) why += "; ";
    why += reason;
  };
  for (const auto& setup : setups) {
    if (!setup.registered_all) fail("not every client registered during boot");
  }
  // The first repetition of each world is its reference.
  std::vector<const RepResult*> first(kWorlds, nullptr);
  for (const auto& r : plain) {
    if (first[r.world] == nullptr) first[r.world] = &r;
  }
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const auto* reps : {&plain, &traced}) {
    for (const auto& r : *reps) {
      if (r.violated) fail("an op was lost or resolved twice");
      if (r.digest != first[r.world]->digest) {
        fail("digest differs between repetitions of one world");
      }
      attempted += r.attempted;
      failed += r.attempted - r.completed;
    }
  }
  // Simulated outcomes pooled over every world the run covered.
  std::vector<double> makespans;
  double outcome_ops = 0.0;
  double outcome_completed = 0.0;
  std::string growth_list;
  for (const RepResult* r : first) {
    if (r == nullptr) continue;
    makespans.insert(makespans.end(), r->makespans.begin(), r->makespans.end());
    outcome_ops += static_cast<double>(r->attempted);
    outcome_completed += static_cast<double>(r->completed);
    double growth = 0.0;
    double allowance = 0.0;
    if (!backlog_stable(r->backlog, &growth, &allowance)) {
      fail("backlog grows across the second half");
    }
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s\"%.1f/%.1f\"", growth_list.empty() ? "" : ",", growth,
                  allowance);
    growth_list += buf;
  }
  const RepResult& ref = plain.front();

  // The end-to-end wall figures are host-normalised: each window and
  // set-up is divided by its speed factor. The per-layer figures stay
  // raw; host.speed_factor relates the two.
  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::vector<double> boot_s;
  for (const auto& s : setups) {
    setup_s.push_back((s.build_s + s.boot_s) / s.host_factor);
    build_s.push_back(s.build_s);
    boot_s.push_back(s.boot_s);
  }
  const double hours = spec.horizon / 3600.0;
  std::vector<double> windows;
  std::vector<double> per_hour;
  std::vector<double> raw_per_hour;
  std::vector<double> slices;
  std::vector<double> plain_wall;
  std::vector<double> events_per_s;
  for (const auto& r : plain) {
    const std::vector<double> factor = window_factors(r.host_slices_s);
    double normalised_s = 0.0;
    for (std::size_t i = 0; i < r.window_ms.size(); ++i) {
      windows.push_back(r.window_ms[i] / factor[i]);
      normalised_s += windows.back() / 1e3;
    }
    per_hour.push_back(normalised_s / hours);
    raw_per_hour.push_back(r.timed_wall_s / hours);
    slices.insert(slices.end(), r.host_slices_s.begin(), r.host_slices_s.end());
    plain_wall.push_back(r.timed_wall_s);
    events_per_s.push_back(static_cast<double>(r.timed_events) / r.timed_wall_s);
  }

  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = {
        {"wall_s_per_sim_hour", median(per_hour), "s"},
        {"window_wall_ms.p50", quantile(windows, 0.50), "ms"},
        {"window_wall_ms.p95", quantile(windows, 0.95), "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb() - host_mb, "MB"},
        {"ops_completed_frac",
         ratio(outcome_completed, outcome_ops), "ratio"},
        {"sim_makespan_s.p50", quantile(makespans, 0.50), "sim_s"},
        {"sim_makespan_s.p99", quantile(makespans, 0.99), "sim_s"},
    };
  } else {
    const RepResult& t = traced.front();
    const Snapshot& at = *t.at_horizon;
    std::vector<double> traced_wall;
    for (const auto& r : traced) traced_wall.push_back(r.timed_wall_s);
    const auto us = [&](const char* name, double q) { return at.quantile(name, q) * 1e6; };
    const double relevels = at.value("net.flows.relevels");
    const double fast = at.value("selection.index.fast_path");
    const double served = at.value("overlay.selections_served");
    const double started = at.value("transport.transfers.started");

    // The self-time table: the program's WallProfiler sites, the
    // benchmark's issue span, and the per-event layer classes.
    struct Row {
      std::string name;
      double self_s;
      double entries;
    };
    const auto site = [&](const char* name, const char* kind) {
      const std::string prefix = std::string("profile.") + name;
      const auto it = at.histograms.find(prefix + ".wall_s");
      return Row{std::string(name) + kind, at.value(prefix + ".self_s"),
                 it != at.histograms.end() ? static_cast<double>(it->second.count()) : 0.0};
    };
    std::vector<Row> rows = {site("flows.relevel", " (site)"), site("flows.waterfill", " (site)"),
                             site("selection.rank", " (site)"), site("bench.issue", " (span)")};
    for (int l = 0; l < kLayerCount; ++l) {
      rows.push_back({kLayerNames[l], t.layer_self_s[l], static_cast<double>(t.layer_events[l])});
    }
    double attributed = 0.0;
    for (const auto& row : rows) {
      if (row.name != kLayerNames[kUnattributed]) attributed += row.self_s;
    }
    metrics = {
        {"sim.events", static_cast<double>(t.timed_events), "count"},
        {"sim.events_per_wall_s", median(events_per_s), "1/s"},
        {"sim.queue_peak", static_cast<double>(t.queue_peak), "count"},
        {"net.datagrams.sent", at.value("net.datagrams.sent"), "count"},
        {"net.flows.started", at.value("net.flows.started"), "count"},
        {"net.flows.relevels", relevels, "count"},
        {"net.flows.flows_releveled", at.value("net.flows.flows_releveled"), "count"},
        {"net.flows.flows_per_relevel", ratio(at.value("net.flows.flows_releveled"), relevels),
         "ratio"},
        {"net.flows.aborted", at.value("net.flows.aborted"), "count"},
        {"layer.flows.relevel_self_s", at.value("profile.flows.relevel.self_s"), "s"},
        {"layer.flows.waterfill_self_s", at.value("profile.flows.waterfill.self_s"), "s"},
        {"layer.flows.relevel_us.p50", us("profile.flows.relevel.wall_s", 0.50), "us"},
        {"layer.flows.relevel_us.p99", us("profile.flows.relevel.wall_s", 0.99), "us"},
        {"transport.transfers.started", started, "count"},
        {"transport.transfers.completed_frac", t.transfers_completed_frac, "ratio"},
        {"transport.parts.confirmed", at.value("transport.parts.confirmed"), "count"},
        {"overlay.heartbeats", at.value("overlay.heartbeats"), "count"},
        {"overlay.selections_served", served, "count"},
        {"overlay.failovers", at.value("overlay.failovers"), "count"},
        {"overlay.selection_reissues", at.value("overlay.selection_reissues"), "count"},
        {"overlay.replica.elections", at.value("overlay.replica.elections"), "count"},
        {"layer.selection.rank_self_s", at.value("profile.selection.rank.self_s"), "s"},
        {"layer.selection.rank_us.p50", us("profile.selection.rank.wall_s", 0.50), "us"},
        {"layer.selection.rank_us.p99", us("profile.selection.rank.wall_s", 0.99), "us"},
        {"selection.index.fast_path_frac", ratio(fast, served), "ratio"},
        {"selection.index.rekeys", at.value("selection.index.rekeys"), "count"},
        {"selection.index.pulls_per_petition", ratio(at.value("selection.index.pulls"), fast),
         "ratio"},
        {"selection.index.dense_sweeps", at.value("selection.index.dense_sweeps"), "count"},
        {"probe.select_us.p50", quantile(t.probe_us, 0.50), "us"},
        {"probe.select_us.p99", quantile(t.probe_us, 0.99), "us"},
        {"probe.dense_sweeps", static_cast<double>(t.probe_dense_sweeps), "count"},
        {"reputation.lies", at.value("reputation.lies"), "count"},
        {"reputation.quarantines", at.value("reputation.quarantines"), "count"},
        {"econ.petitions", at.value("econ.petitions"), "count"},
        {"econ.exhausted", at.value("econ.exhausted"), "count"},
        {"faults.crashes", at.value("faults.crashes"), "count"},
        {"span.setup.build_s", median(build_s), "s"},
        {"span.setup.boot_s", median(boot_s), "s"},
        {"span.issue_us.p50", us("profile.bench.issue.wall_s", 0.50), "us"},
        {"span.issue_us.p99", us("profile.bench.issue.wall_s", 0.99), "us"},
        {"layer.heartbeat_ingest_self_s", t.layer_self_s[kHeartbeat], "s"},
        {"layer.stats_ingest_self_s", t.layer_self_s[kStatsIngest], "s"},
        {"layer.datagram_send_self_s", t.layer_self_s[kDatagram], "s"},
        {"layer.unattributed_s", t.layer_self_s[kUnattributed], "s"},
        {"layer.attributed_frac", ratio(attributed, t.timed_wall_s), "ratio"},
        {"trace_overhead_frac", ratio(median(traced_wall), median(plain_wall)) - 1.0, "ratio"},
        {"host.speed_factor", median(slices) / kProbeReferenceS, "ratio"},
        {"host.raw_wall_s_per_sim_hour", median(raw_per_hour), "s"},
    };
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.self_s > b.self_s; });
    std::string table = "layer self time, traced timed region of " + spec.name + " (seed " +
                        std::to_string(seed) + ")\n";
    char line[160];
    std::snprintf(line, sizeof line, "  %-28s %10s %7s %10s\n", "layer", "self_s", "share",
                  "entries");
    table += line;
    for (const auto& row : rows) {
      std::snprintf(line, sizeof line, "  %-28s %10.4f %6.1f%% %10.0f\n", row.name.c_str(),
                    row.self_s, 100.0 * ratio(row.self_s, t.timed_wall_s), row.entries);
      table += line;
    }
    std::snprintf(line, sizeof line, "  %-28s %10.4f %6.1f%%\n", "attributed", attributed,
                  100.0 * ratio(attributed, t.timed_wall_s));
    table += line;
    std::snprintf(line, sizeof line, "  %-28s %10.4f  timed region of this traced repetition\n",
                  "total", t.timed_wall_s);
    table += line;
    std::snprintf(line, sizeof line,
                  "  %-28s %10.4f  median over %zu traced repetitions; untraced median %.4f,"
                  " tracing overhead %.1f%%\n",
                  "traced", median(traced_wall), traced.size(), median(plain_wall),
                  100.0 * (ratio(median(traced_wall), median(plain_wall)) - 1.0));
    table += line;
    std::fputs(table.c_str(), stderr);
    if (layers_path != nullptr) {
      if (std::FILE* f = std::fopen(layers_path, "w")) {
        std::fputs(table.c_str(), f);
        std::fclose(f);
      }
    }
  }

  std::string tail;
  for (const double q : {0.9, 0.95, 0.97, 0.98, 0.99, 0.995, 1.0}) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.2f", tail.empty() ? "" : ",", quantile(makespans, q));
    tail += buf;
  }
  std::string rep_walls;  // raw and host-normalised, per repetition
  for (std::size_t i = 0; i < plain.size(); ++i) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s[%.3f,%.3f]", rep_walls.empty() ? "" : ",",
                  plain[i].timed_wall_s, per_hour[i] * hours);
    rep_walls += buf;
  }
  std::string backlog_list;
  for (std::size_t i = 0; i < ref.backlog.size(); ++i) {
    backlog_list += (i == 0 ? "" : ",") + std::to_string(ref.backlog[i]);
  }
  std::fprintf(stderr,
               "detail {\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"inputs_digest\": \"%016" PRIx64
               "\", \"digest\": \"%016" PRIx64 "\", \"reps\": %zu, \"traced_reps\": %zu, "
               "\"setups\": %zu, \"windows\": %zu, \"ops_per_rep\": %zu, \"host_probe_mb\": %.1f, "
               "\"backlog_growth\": [%s], \"events_per_rep\": %" PRIu64 ", "
               "\"elapsed_s\": %.3f, \"why\": \"%s\", \"makespan_tail\": [%s], \"rep_wall_s\": [%s], "
               "\"backlog\": [%s]}\n",
               spec.name.c_str(), seed, inputs_digest(worlds.front()), ref.digest, plain.size(),
               traced.size(), setups.size(), windows.size(), ref.attempted, host_mb, growth_list.c_str(),
               ref.timed_events, seconds_since(measure_start), why.c_str(), tail.c_str(), rep_walls.c_str(),
               backlog_list.c_str());
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

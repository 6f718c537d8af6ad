// End-to-end property sweeps over the whole deployment: randomized
// workloads against the paper's testbed must always drain, every
// submission must resolve exactly once, and the broker's books must
// balance with what actually happened.

#include <gtest/gtest.h>

#include "peerlab/core/blind.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/planetlab/deployment.hpp"

namespace peerlab::overlay {
namespace {

struct Workload {
  std::uint64_t seed;
  int transfers;
  int tasks;
  int model;  // 0 blind, 1 economic, 2 data evaluator
  double datagram_loss;
};

std::string workload_name(const Workload& w) {
  return "s" + std::to_string(w.seed) + "_x" + std::to_string(w.transfers) + "_t" +
         std::to_string(w.tasks) + "_m" + std::to_string(w.model) + "_l" +
         std::to_string(static_cast<int>(w.datagram_loss * 100));
}

// ctest lists each case as "<name> # GetParam() = <printed param>";
// without this overload the param prints as raw bytes (padding
// included), so the names could differ between builds.
void PrintTo(const Workload& w, std::ostream* os) { *os << workload_name(w); }

class EndToEndTest : public ::testing::TestWithParam<Workload> {};

TEST_P(EndToEndTest, EverySubmissionResolvesExactlyOnceAndBooksBalance) {
  const auto w = GetParam();
  sim::Simulator sim(w.seed);
  planetlab::DeploymentOptions opts;
  opts.network.datagram_loss = w.datagram_loss;
  planetlab::Deployment dep(sim, opts);
  dep.boot();
  switch (w.model) {
    case 1:
      dep.broker().set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
      break;
    case 2:
      dep.broker().set_selection_model(std::make_unique<core::DataEvaluatorModel>(
          core::DataEvaluatorModel::same_priority()));
      break;
    default:
      break;
  }
  Primitives api(dep.control());
  sim::Rng rng(w.seed * 13 + 7);

  int transfer_callbacks = 0, transfers_ok = 0;
  for (int i = 0; i < w.transfers; ++i) {
    const int sc = 1 + static_cast<int>(rng.uniform_int(0, 7));
    const double mb = rng.uniform(0.5, 20.0);
    const int parts = static_cast<int>(rng.uniform_int(1, 8));
    sim.schedule(rng.uniform(0.0, 2000.0), [&, sc, mb, parts] {
      api.send_file(dep.sc_peer(sc), megabytes(mb), parts,
                    [&](const transport::TransferResult& r) {
                      ++transfer_callbacks;
                      transfers_ok += r.complete ? 1 : 0;
                    });
    });
  }

  int task_callbacks = 0, tasks_ok = 0;
  for (int i = 0; i < w.tasks; ++i) {
    const double work = rng.uniform(10.0, 120.0);
    const double input = rng.bernoulli(0.5) ? rng.uniform(1.0, 10.0) : 0.0;
    sim.schedule(rng.uniform(0.0, 2000.0), [&, work, input] {
      api.submit_task_auto(work, megabytes(input), [&](const TaskOutcome& o) {
        ++task_callbacks;
        tasks_ok += (o.accepted && o.ok) ? 1 : 0;
      });
    });
  }

  sim.run();  // must drain

  // Exactly-once resolution.
  EXPECT_EQ(transfer_callbacks, w.transfers);
  EXPECT_EQ(task_callbacks, w.tasks);
  // On a clean network everything succeeds; lossy networks may drop
  // some work but most retries pull through.
  if (w.datagram_loss == 0.0) {
    EXPECT_EQ(transfers_ok, w.transfers);
    EXPECT_EQ(tasks_ok, w.tasks);
  } else {
    EXPECT_GE(transfers_ok, w.transfers * 3 / 4);
  }

  // Broker bookkeeping is consistent with reality: completed tasks in
  // its history equal the successful executions across peers.
  std::size_t history_tasks = 0;
  std::uint64_t executor_completions = 0;
  for (std::size_t c = 0; c < dep.client_count(); ++c) {
    history_tasks += dep.broker().history().task_count(dep.client(c).id());
    executor_completions +=
        dep.client(c).executor().completed() + dep.client(c).executor().failed();
  }
  if (w.datagram_loss == 0.0) {
    EXPECT_EQ(history_tasks, executor_completions);
  } else {
    EXPECT_LE(history_tasks, executor_completions);  // reports may be lost
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, EndToEndTest,
    ::testing::Values(Workload{1, 6, 6, 0, 0.0}, Workload{2, 10, 4, 1, 0.0},
                      Workload{3, 4, 10, 2, 0.0}, Workload{4, 8, 8, 1, 0.1},
                      Workload{5, 12, 0, 0, 0.0}, Workload{6, 0, 12, 1, 0.0},
                      Workload{7, 6, 6, 2, 0.2}, Workload{8, 10, 10, 1, 0.0}),
    [](const ::testing::TestParamInfo<Workload>& info) { return workload_name(info.param); });

class DeploymentDeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeploymentDeterminismTest, FullWorkloadReplaysExactly) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim(seed);
    planetlab::Deployment dep(sim);
    dep.boot();
    dep.broker().set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
    Primitives api(dep.control());
    std::vector<double> completions;
    for (int i = 0; i < 6; ++i) {
      api.submit_task_auto(50.0 + i * 10.0, megabytes(2.0),
                           [&](const TaskOutcome& o) { completions.push_back(o.completed); });
    }
    sim.run();
    return std::make_pair(completions, sim.now());
  };
  const auto a = run(GetParam());
  const auto b = run(GetParam());
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeploymentDeterminismTest,
                         ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace peerlab::overlay

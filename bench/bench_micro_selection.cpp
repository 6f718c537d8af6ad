// Selection-model microbenchmarks (google-benchmark): decision latency
// of each model as the candidate set grows. The paper remarks that the
// user-preference model "has a very low computational cost" — measured
// here against the other two.

#include <benchmark/benchmark.h>

#include <deque>
#include <memory>

#include "peerlab/core/blind.hpp"
#include "peerlab/core/data_evaluator.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/user_preference.hpp"

namespace {

using namespace peerlab;

struct Fixture {
  explicit Fixture(int n) {
    for (int i = 0; i < n; ++i) {
      auto& s = statistics.emplace_back(4.0 * 3600.0);
      for (int k = 0; k < 10; ++k) {
        s.record_message(static_cast<double>(k), (i + k) % 7 != 0);
      }
      s.sample_outbox(static_cast<double>(i % 5));
      stats::TaskRecord record;
      record.task = TaskId(static_cast<std::uint64_t>(i + 1));
      record.peer = PeerId(static_cast<std::uint64_t>(i + 1));
      record.submitted = 0.0;
      record.started = 0.0;
      record.finished = 10.0 + static_cast<double>(i % 13);
      record.ok = true;
      record.work = 20.0;
      history.record_task(record);
      history.record_response_time(PeerId(static_cast<std::uint64_t>(i + 1)),
                                   0.05 + 0.01 * static_cast<double>(i % 9));
    }
    for (int i = 0; i < n; ++i) {
      core::PeerSnapshot snap;
      snap.peer = PeerId(static_cast<std::uint64_t>(i + 1));
      snap.cpu_ghz = 1.0 + 0.1 * static_cast<double>(i % 10);
      snap.queued_tasks = i % 3;
      snap.idle = i % 3 == 0;
      snap.statistics = &statistics[static_cast<std::size_t>(i)];
      snap.history = &history;
      snapshots.push_back(std::move(snap));
      order.push_back(PeerId(static_cast<std::uint64_t>(i + 1)));
    }
    context.purpose = core::SelectionContext::Purpose::kTaskExecution;
    context.work = 100.0;
    context.now = 100.0;
  }
  std::deque<stats::PeerStatistics> statistics;
  stats::HistoryStore history;
  std::vector<core::PeerSnapshot> snapshots;
  std::vector<PeerId> order;
  core::SelectionContext context;
};

template <typename MakeModel>
void run_model(benchmark::State& state, MakeModel make) {
  Fixture fixture(static_cast<int>(state.range(0)));
  auto model = make(fixture);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->select(fixture.snapshots, fixture.context));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SelectEconomic(benchmark::State& state) {
  run_model(state, [](Fixture&) {
    return std::make_unique<core::EconomicSchedulingModel>();
  });
}
BENCHMARK(BM_SelectEconomic)->Arg(8)->Arg(25)->Arg(100)->Arg(400);

void BM_SelectDataEvaluator(benchmark::State& state) {
  run_model(state, [](Fixture&) {
    return std::make_unique<core::DataEvaluatorModel>(
        core::DataEvaluatorModel::same_priority());
  });
}
BENCHMARK(BM_SelectDataEvaluator)->Arg(8)->Arg(25)->Arg(100)->Arg(400);

void BM_SelectUserPreference(benchmark::State& state) {
  run_model(state, [](Fixture& fixture) {
    return std::make_unique<core::UserPreferenceModel>(fixture.order);
  });
}
BENCHMARK(BM_SelectUserPreference)->Arg(8)->Arg(25)->Arg(100)->Arg(400);

void BM_SelectBlind(benchmark::State& state) {
  run_model(state, [](Fixture&) { return std::make_unique<core::BlindModel>(); });
}
BENCHMARK(BM_SelectBlind)->Arg(8)->Arg(25)->Arg(100)->Arg(400);

}  // namespace

BENCHMARK_MAIN();

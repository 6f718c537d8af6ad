#include "peerlab/experiments/economic.hpp"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "peerlab/common/check.hpp"
#include "peerlab/core/blind.hpp"
#include "peerlab/core/economic.hpp"
#include "peerlab/core/hybrid.hpp"
#include "peerlab/core/user_preference.hpp"

namespace peerlab::experiments {

namespace {

using planetlab::Deployment;
using transport::FileTransferConfig;
using transport::TransferResult;

struct EconRunCell {
  econ::Ledger ledger;
  sim::Summary cost;
  sim::Summary completion_time;
};

/// One seeded world, one selection arm, one load level. The same seed
/// builds the same world for every arm, so columns isolate the policy.
EconRunCell economic_run(const RunOptions& options, std::uint64_t seed, int rep, int model,
                         int load) {
  sim::Simulator sim(seed);
  planetlab::DeploymentOptions dep_options;
  // Fast heartbeats for every arm: under heavy load the informed
  // models only spread away from busy peers if the broker's snapshots
  // reflect backlog on the timescale jobs arrive.
  dep_options.client.heartbeat_interval = 5.0;
  const bool engine_on = model != 0;  // blind is the pristine baseline
  if (engine_on) dep_options.broker.econ = economic_engine_config();
  Deployment dep(sim, dep_options);
  obs::MetricRegistry registry;
  if (options.metrics != nullptr) dep.attach_metrics(registry, options.profile);
  TraceSession trace(options, sim, dep, rep,
                     std::string(kEconModelNames[model]) + "." + kEconLoadLabels[load]);
  if (trace.active()) trace.attach_metrics(registry);
  dep.boot();

  // Warm-up: one small transfer + chat per SC, serially, so the
  // estimators (and quick-peer's response-time ranking) have a record
  // for every peer before any contract is issued.
  Seconds at = sim.now() + 10.0;
  for (int i = 1; i <= 8; ++i) {
    sim.schedule_at(at, [&dep, i] {
      FileTransferConfig cfg;
      cfg.file_size = megabytes(2.0);
      cfg.parts = 2;
      dep.control().files().send_file(dep.sc_peer(i), cfg, [](const TransferResult&) {});
      dep.control().messaging().send(dep.sc_peer(i), 0, [](bool, Seconds) {});
    });
    at += 300.0;
  }
  {
    const obs::WallProfiler::Span run_span(dep.profiler(), "run");
    sim.run_until(at + 300.0);
  }

  switch (model) {
    case 1:
      dep.broker().set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
      break;
    case 2: {
      std::vector<PeerId> known;
      for (int i = 1; i <= 8; ++i) known.push_back(dep.sc_peer(i));
      dep.broker().set_selection_model(std::make_unique<core::UserPreferenceModel>(
          core::UserPreferenceModel::quick_peer(dep.broker().history(), known)));
      break;
    }
    case 3:
      dep.broker().set_selection_model(std::make_unique<core::HybridModel>());
      break;
    default:
      // Arms 0 (blind) and 4 (efficiency) both rank blind; arm 4's
      // contracts carry the kEfficiency objective so the engine
      // re-orders the rotation by the Dubey–Tokekar score.
      dep.broker().set_selection_model(std::make_unique<core::BlindModel>());
      break;
  }

  // One quoter prices every arm's picks on the identical schedule the
  // engine-enabled brokers shopped from, so ledger costs compare
  // across arms (including blind, whose broker never quotes at all).
  const econ::EconEngine quoter(economic_engine_config());

  EconRunCell cell;
  int done = 0;
  const Seconds first_launch = sim.now() + 10.0;
  for (int j = 0; j < kEconJobs; ++j) {
    const Seconds launch = first_launch + static_cast<double>(j) * kEconSpacing[load];
    sim.schedule_at(launch, [&, model] {
      const Seconds issued = sim.now();
      core::SelectionContext ctx;
      ctx.now = issued;
      ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
      ctx.payload_size = kEconPayload;
      ctx.deadline = issued + kEconDeadlineSlack;
      ctx.budget = kEconBudget;
      if (model == 4) ctx.objective = core::EconObjective::kEfficiency;
      if (trace.active()) ctx.trace = trace.root();
      dep.control().request_selection(ctx, 1, [&, ctx, issued](std::vector<PeerId> peers) {
        if (peers.empty()) {
          cell.ledger.record({ctx.deadline, ctx.budget, 0.0, 0.0, false});
          ++done;
          return;
        }
        const PeerId winner = peers.front();
        // Price the pick at decision time from the broker's own view.
        const auto snap = dep.broker().candidate_index().snapshot(winner, sim.now());
        const double quoted = snap ? quoter.appraise(*snap, ctx).cost : 0.0;
        FileTransferConfig cfg;
        cfg.file_size = kEconPayload;
        cfg.parts = 4;
        cfg.trace = ctx.trace;
        dep.control().files().send_file(
            winner, cfg, [&, ctx, issued, quoted](const TransferResult& result) {
              cell.ledger.record(
                  {ctx.deadline, ctx.budget, result.finished, quoted, result.complete});
              cell.cost.add(quoted);
              if (result.complete) cell.completion_time.add(result.finished - issued);
              ++done;
            });
      });
    });
  }
  {
    const obs::WallProfiler::Span run_span(dep.profiler(), "run");
    sim.run();
  }
  PEERLAB_CHECK_MSG(done == kEconJobs, "economic job never resolved");
  trace.finish();
  merge_metrics(options, registry,
                std::string(".") + kEconModelNames[model] + "." + kEconLoadLabels[load]);
  return cell;
}

}  // namespace

econ::EconConfig economic_engine_config() {
  econ::EconConfig config;
  config.enabled = true;
  return config;
}

EconResult run_bench_economic(const RunOptions& options) {
  using Rep = std::array<std::array<EconRunCell, kEconLoads>, kEconModels>;
  const auto reps =
      run_repetitions<Rep>(options, [&options](std::uint64_t seed, int rep_index) {
        Rep rep;
        for (int m = 0; m < kEconModels; ++m) {
          for (int load = 0; load < kEconLoads; ++load) {
            rep[static_cast<std::size_t>(m)][static_cast<std::size_t>(load)] =
                economic_run(options, seed, rep_index, m, load);
          }
        }
        return rep;
      });

  EconResult result;
  for (const auto& rep : reps) {
    for (std::size_t m = 0; m < kEconModels; ++m) {
      for (std::size_t load = 0; load < kEconLoads; ++load) {
        EconArm& arm = result.cells[m][load];
        const EconRunCell& cell = rep[m][load];
        arm.ledger.merge(cell.ledger);
        arm.cost.merge(cell.cost);
        arm.completion_time.merge(cell.completion_time);
        ++arm.runs;
      }
    }
  }
  return result;
}

}  // namespace peerlab::experiments

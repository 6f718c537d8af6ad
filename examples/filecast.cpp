// Filecast: scatter a large file across broker-selected peers with one
// call (Primitives::distribute_file), against a single-peer baseline,
// with causal tracing attached to the whole deployment. Each delivery
// is one trace; both are dumped to filecast.trace.jsonl. Reconstruct
// their petition chains offline with
//
//   $ ./filecast
//   $ python3 scripts/trace_analyze.py filecast.trace.jsonl [--all]

#include <cstdio>

#include "peerlab/core/economic.hpp"
#include "peerlab/obs/trace.hpp"
#include "peerlab/planetlab/deployment.hpp"
#include "peerlab/transport/file_transfer.hpp"

using namespace peerlab;

int main() {
  sim::Simulator sim(/*seed=*/2024);
  obs::trace::TraceRecorder recorder(sim);  // outlives the deployment
  planetlab::Deployment dep(sim);
  dep.attach_tracing(&recorder);
  dep.boot();
  dep.broker().set_selection_model(std::make_unique<core::EconomicSchedulingModel>());
  overlay::Primitives api(dep.control());

  constexpr double kFileMb = 100.0;
  constexpr int kParts = 16;
  std::printf("filecast: scattering a %.0f MB file in %d parts over broker-selected peers\n",
              kFileMb, kParts);

  // Baseline: the same file to a single broker-selected peer, traced
  // under its own root so the petition and the transfer share a chain.
  Seconds single_peer = 0.0;
  core::SelectionContext ctx;
  ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
  ctx.payload_size = megabytes(kFileMb);
  ctx.trace = recorder.root();
  api.select_peers(ctx, 1, [&](std::vector<PeerId> best) {
    if (best.empty()) return;
    transport::FileTransferConfig cfg;
    cfg.file_size = megabytes(kFileMb);
    cfg.parts = kParts;
    cfg.trace = ctx.trace;
    dep.control().files().send_file(best.front(), cfg, [&](const transport::TransferResult& r) {
      if (r.complete) single_peer = r.transmission_time();
    });
  });
  sim.run();

  // Scatter: parts spread over up to 16 selected peers, in parallel.
  std::optional<overlay::FileService::DistributionResult> scattered;
  api.distribute_file(megabytes(kFileMb), kParts,
                      [&](const overlay::FileService::DistributionResult& r) {
                        scattered = r;
                      });
  sim.run();

  if (!scattered || !scattered->complete) {
    std::printf("scatter failed\n");
    return 1;
  }
  std::printf("\n%-28s %-7s %-9s %-12s\n", "peer share", "parts", "MB", "time (s)");
  std::printf("----------------------------------------------------------\n");
  for (const auto& share : scattered->shares) {
    std::printf("%-28s %-7d %-9.1f %-12.1f\n", to_string(share.peer).c_str(), share.parts,
                to_megabytes(share.bytes), share.transmission_time);
  }
  std::printf("\nsingle-peer delivery: %.1f s (%.1f min)\n", single_peer,
              to_minutes(single_peer));
  std::printf("scattered delivery:   %.1f s (%.1f min) — %.1fx faster\n",
              scattered->makespan(), to_minutes(scattered->makespan()),
              single_peer / scattered->makespan());

  recorder.write_jsonl("filecast.trace.jsonl");
  std::printf("\n%llu trace events (%llu traces) written to filecast.trace.jsonl, "
              "%llu dropped by full rings\n",
              static_cast<unsigned long long>(recorder.recorded()),
              static_cast<unsigned long long>(recorder.traces_minted()),
              static_cast<unsigned long long>(recorder.dropped()));
  return 0;
}

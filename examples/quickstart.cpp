// Quickstart: stand up the paper's testbed (broker on the nozomi
// cluster + SC1..SC8 over a simulated PlanetLab), then walk the
// Primitives API end to end — discover peers, pick one with the
// economic model, ship it a file, run a task, chat.
//
//   $ ./quickstart

#include <cstdio>

#include "peerlab/core/economic.hpp"
#include "peerlab/planetlab/deployment.hpp"

using namespace peerlab;

int main() {
  // 1. Build the world: one Simulator drives everything.
  sim::Simulator sim(/*seed=*/42);
  planetlab::Deployment dep(sim);
  dep.boot();  // clients heartbeat and register at the broker
  std::printf("overlay up: %zu peers registered at %s\n",
              dep.broker().registered_clients().size(),
              planetlab::broker_host().hostname.c_str());

  // 2. The broker applies the economic (scheduling-based) model.
  dep.broker().set_selection_model(std::make_unique<core::EconomicSchedulingModel>());

  // 3. Program against the Primitives facade from the control peer.
  overlay::Primitives api(dep.control());

  api.discover_peers([](std::vector<jxta::Advertisement> peers) {
    std::printf("discovered %zu peers:\n", peers.size());
    for (const auto& adv : peers) {
      std::printf("  %-28s cpu=%.1f GHz\n", adv.name.c_str(), adv.cpu_ghz);
    }
  });

  // 4. Ask the broker for the best peer for a 10 MB transfer, then
  //    send the file in 4 parts.
  core::SelectionContext ctx;
  ctx.purpose = core::SelectionContext::Purpose::kFileTransfer;
  ctx.payload_size = megabytes(10.0);
  api.select_peers(ctx, 1, [&](std::vector<PeerId> chosen) {
    if (chosen.empty()) {
      std::printf("no peer eligible\n");
      return;
    }
    const PeerId dst = chosen.front();
    std::printf("broker selected %s for the transfer\n", to_string(dst).c_str());
    api.send_file(dst, megabytes(10.0), /*parts=*/4,
                  [dst](const transport::TransferResult& r) {
                    std::printf("file to %s: %s in %.1f s (petition %.2f s, %zu parts)\n",
                                to_string(dst).c_str(),
                                r.complete ? "delivered" : "FAILED", r.transmission_time(),
                                r.petition_time(), r.parts.size());
                  });
  });

  // 5. Submit a compute task and let the broker pick the executor.
  api.submit_task_auto(/*work=*/60.0, /*input_size=*/0,
                       [](const overlay::TaskOutcome& o) {
                         std::printf("task on %s: %s in %.1f s\n",
                                     to_string(o.executor).c_str(),
                                     o.ok ? "completed" : "failed", o.turnaround());
                       });

  // 6. Instant messaging between two SimpleClients.
  overlay::Primitives sc2(dep.sc(2));
  sc2.on_message([](PeerId from, std::int64_t tag) {
    std::printf("SC2 received chat %lld from %s\n", static_cast<long long>(tag),
                to_string(from).c_str());
  });
  overlay::Primitives sc4(dep.sc(4));
  sc4.send_message(dep.sc_peer(2), /*tag=*/7,
                   [](bool ok, Seconds rtt) {
                     std::printf("chat %s (rtt %.2f s)\n", ok ? "delivered" : "lost", rtt);
                   });

  // 7. Run the virtual clock until everything above settles.
  sim.run();
  std::printf("done at simulated t=%.1f s\n", sim.now());
  return 0;
}

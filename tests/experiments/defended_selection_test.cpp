// Whole-deployment pins for the selection path and the metrics
// exports: a defended broker facing leeches answers every petition
// from the candidate index, for each of the four models the
// adversarial sweep runs; and a driver's metrics export is the same
// bytes whether its repetitions ran on one thread or several.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "peerlab/experiments/adversarial.hpp"
#include "peerlab/obs/metrics.hpp"

namespace peerlab::experiments {
namespace {

double counter(const obs::MetricRegistry& registry, const std::string& name) {
  for (const auto& entry : registry.entries()) {
    if (entry.name == name) return static_cast<double>(entry.counter->value());
  }
  ADD_FAILURE() << "no counter " << name;
  return -1.0;
}

std::string export_adversarial(unsigned threads) {
  RunOptions options;
  options.repetitions = 3;
  options.threads = threads;
  obs::MetricRegistry registry;
  options.metrics = &registry;
  (void)run_bench_adversarial(options);
  const std::string path =
      ::testing::TempDir() + "/adversarial_t" + std::to_string(threads) + ".metrics.json";
  registry.write_json(path, "bench_adversarial");
  std::ifstream file(path);
  std::stringstream bytes;
  bytes << file.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

TEST(DefendedSelection, LeechedDeploymentsNeverFallBackToTheScan) {
  RunOptions options;
  options.repetitions = 1;
  options.threads = 1;
  obs::MetricRegistry registry;
  options.metrics = &registry;
  const AdversarialResult result = run_bench_adversarial(options);
  // The heaviest level really was attacked and defended.
  double quarantines = 0.0;
  for (const auto& row : result.cells) quarantines += row.back().defended.quarantines.mean();
  EXPECT_GT(quarantines, 0.0);

  for (const char* model : kAdvModelNames) {
    const std::string suffix = std::string(".") + model + ".defended";
    EXPECT_GT(counter(registry, "selection.index.fast_path" + suffix), 0.0) << model;
    EXPECT_EQ(counter(registry, "selection.index.fallbacks" + suffix), 0.0) << model;
  }
}

TEST(DefendedSelection, ParallelRepetitionsExportTheSameBytes) {
  const std::string serial = export_adversarial(1);
  ASSERT_NE(serial.find("net.datagram_delay_s.hybrid.mean"), std::string::npos);
  for (int run = 0; run < 2; ++run) EXPECT_EQ(export_adversarial(3), serial) << "run " << run;
}

}  // namespace
}  // namespace peerlab::experiments

#include "peerlab/experiments/harness.hpp"

#include <mutex>

#include "peerlab/planetlab/deployment.hpp"

namespace peerlab::experiments {

std::uint64_t repetition_seed(const RunOptions& options, int rep) {
  // Wide spacing so forked per-component streams of adjacent
  // repetitions never collide.
  return options.base_seed + 0x9E3779B9ull * static_cast<std::uint64_t>(rep + 1);
}

TraceSession::TraceSession(const RunOptions& options, sim::Simulator& sim,
                           planetlab::Deployment& dep, int rep, const std::string& tag) {
  if (options.trace_path.empty()) return;
  dep_ = &dep;
  path_ = options.trace_path;
  if (!tag.empty()) path_ += "." + tag;
  if (options.repetitions > 1) path_ += ".rep" + std::to_string(rep);
  recorder_ = std::make_unique<obs::trace::TraceRecorder>(sim);
  watchdog_ = std::make_unique<obs::Watchdog>(*recorder_);
  recorder_->arm_postmortem(path_ + ".postmortem.json");
  dep.attach_tracing(recorder_.get());
}

TraceSession::~TraceSession() {
  if (!finished_) finish();
}

obs::trace::TraceContext TraceSession::root() {
  return recorder_ != nullptr ? recorder_->root() : obs::trace::TraceContext{};
}

void TraceSession::attach_metrics(obs::MetricRegistry& registry) {
  if (recorder_ == nullptr) return;
  recorder_->set_metrics_snapshot(&registry);
  recorder_->attach_metrics(registry);
  watchdog_->attach_metrics(registry);
}

std::uint64_t TraceSession::finish() {
  finished_ = true;
  if (recorder_ == nullptr) return 0;
  watchdog_->finalize();
  recorder_->write_jsonl(path_);
  dep_->attach_tracing(nullptr);
  return watchdog_->violations().size();
}

namespace {

thread_local detail::MetricStage* t_stage = nullptr;

void fold(obs::MetricRegistry& into, const obs::MetricRegistry& from, const std::string& suffix) {
  if (suffix.empty()) {
    into.merge(from);
    return;
  }
  for (const auto& entry : from.entries()) {
    const std::string name = entry.name + suffix;
    switch (entry.kind) {
      case obs::InstrumentKind::kCounter:
        into.counter(name, entry.unit).merge(*entry.counter);
        break;
      case obs::InstrumentKind::kGauge:
        into.gauge(name, entry.unit).merge(*entry.gauge);
        break;
      case obs::InstrumentKind::kHistogram:
        into.histogram(name, entry.unit, entry.histogram->options()).merge(*entry.histogram);
        break;
    }
  }
}

}  // namespace

void merge_metrics(const RunOptions& options, const obs::MetricRegistry& rep_registry,
                   const std::string& suffix) {
  if (options.metrics == nullptr) return;
  if (t_stage != nullptr) {
    // A copy folded into an empty registry is exact (0 + x == x), so
    // replaying it later adds the very values a direct fold would.
    t_stage->push_back(std::make_unique<obs::MetricRegistry>());
    fold(*t_stage->back(), rep_registry, suffix);
    return;
  }
  static std::mutex mutex;
  const std::lock_guard<std::mutex> lock(mutex);
  fold(*options.metrics, rep_registry, suffix);
}

namespace detail {

void route_metrics(MetricStage* stage) noexcept { t_stage = stage; }

void fold_metric_stages(const RunOptions& options, std::vector<MetricStage>& stages) {
  for (auto& stage : stages) {
    for (const auto& registry : stage) merge_metrics(options, *registry);
    stage.clear();
  }
}

}  // namespace detail

sim::Summary summarize(const std::vector<double>& samples) {
  sim::Summary summary;
  for (const double x : samples) summary.add(x);
  return summary;
}

}  // namespace peerlab::experiments

#include "peerlab/overlay/primitives.hpp"

#include <utility>

#include "peerlab/common/check.hpp"

namespace peerlab::overlay {

void Primitives::discover_peers(DiscoverCallback done) {
  jxta::AdvertisementQuery query;
  query.kind = jxta::AdvertisementKind::kPeer;
  self_.discovery().query_remote(query, std::move(done));
}

void Primitives::discover_content(const std::string& name, DiscoverCallback done) {
  jxta::AdvertisementQuery query;
  query.kind = jxta::AdvertisementKind::kContent;
  query.name = name;
  self_.discovery().query_remote(query, std::move(done));
}

void Primitives::share_content(const std::string& name, Bytes size, Seconds lifetime) {
  jxta::Advertisement adv;
  adv.kind = jxta::AdvertisementKind::kContent;
  adv.name = name;
  adv.home = self_.node();
  adv.size = size;
  self_.discovery().publish(std::move(adv), lifetime);
}

void Primitives::select_peers(const core::SelectionContext& context, std::size_t k,
                              ClientPeer::SelectionCallback done) {
  self_.request_selection(context, k, std::move(done));
}

TransferId Primitives::send_file(PeerId dst, Bytes size, int parts,
                                 FileService::Completion done) {
  transport::FileTransferConfig config;
  config.file_size = size;
  config.parts = parts;
  return self_.files().send_file(dst, config, std::move(done));
}

void Primitives::distribute_file(Bytes size, int parts,
                                 FileService::DistributionCallback done) {
  PEERLAB_CHECK_MSG(static_cast<bool>(done), "completion callback required");
  core::SelectionContext context;
  context.purpose = core::SelectionContext::Purpose::kFileTransfer;
  context.payload_size = size;
  self_.request_selection(
      context, static_cast<std::size_t>(parts),
      [this, size, parts, done = std::move(done)](std::vector<PeerId> selected) {
        std::erase(selected, self_.id());
        if (selected.empty()) {
          FileService::DistributionResult result;
          result.complete = false;
          done(result);
          return;
        }
        transport::FileTransferConfig base;
        self_.files().distribute(size, parts, selected, base, done);
      });
}

TaskId Primitives::submit_task(PeerId executor, GigaCycles work, Bytes input_size,
                               TaskService::Completion done) {
  TaskSubmission submission;
  submission.executor = executor;
  submission.work = work;
  submission.input_size = input_size;
  return self_.task_service().submit(submission, std::move(done));
}

void Primitives::submit_task_auto(GigaCycles work, Bytes input_size,
                                  TaskService::Completion done) {
  PEERLAB_CHECK_MSG(static_cast<bool>(done), "completion callback required");
  core::SelectionContext context;
  context.purpose = core::SelectionContext::Purpose::kTaskExecution;
  context.work = work;
  context.payload_size = input_size;
  self_.request_selection(
      context, 1,
      [this, work, input_size, done = std::move(done)](std::vector<PeerId> selected) {
        // Never pick ourselves (the broker may know us as a candidate).
        std::erase(selected, self_.id());
        if (selected.empty()) {
          TaskOutcome outcome;
          outcome.accepted = false;
          outcome.ok = false;
          done(outcome);
          return;
        }
        submit_task(selected.front(), work, input_size, done);
      });
}

}  // namespace peerlab::overlay

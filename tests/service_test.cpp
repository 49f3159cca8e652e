// Contract tests for service::AdmissionService and the stage/commit split it
// drives: every submitted future settles, commits book exactly what was
// staged, conflicts are reported without touching the platform, removal and
// shutdown behave, and the commit log matches the live bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <set>
#include <vector>

#include "core/resource_manager.hpp"
#include "gen/datasets.hpp"
#include "obs/metrics.hpp"
#include "platform/crisp.hpp"
#include "service/admission_service.hpp"

namespace kairos::service {
namespace {

std::vector<graph::Application> small_pool(int count, std::uint64_t seed) {
  return gen::make_dataset(gen::DatasetKind::kCommunicationSmall, count,
                           seed);
}

TEST(AdmissionServiceTest, EverySubmittedFutureSettles) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  AdmissionService service(manager, {/*threads=*/3, /*max_batch=*/2});

  const auto pool = small_pool(12, 0xA11CE);
  std::vector<std::future<core::AdmissionReport>> futures;
  for (const graph::Application& app : pool) {
    futures.push_back(service.submit(app));
  }
  std::size_t admitted = 0;
  for (auto& future : futures) {
    const core::AdmissionReport report = future.get();
    if (report.admitted) {
      EXPECT_GE(report.handle, 1);
      EXPECT_EQ(report.failed_phase, core::Phase::kNone);
      ++admitted;
    } else {
      EXPECT_EQ(report.handle, -1);
      EXPECT_NE(report.failed_phase, core::Phase::kNone);
      EXPECT_FALSE(report.reason.empty());
    }
  }
  service.drain();
  EXPECT_GT(admitted, 0u);
  EXPECT_EQ(manager.live_count(), admitted);
  EXPECT_EQ(service.pending(), 0u);
}

TEST(AdmissionServiceTest, HandlesAreUniqueAcrossConcurrentAdmissions) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  AdmissionService service(manager, {/*threads=*/4, /*max_batch=*/3});

  const auto pool = small_pool(10, 0xB0B);
  std::vector<std::future<core::AdmissionReport>> futures;
  for (const auto& app : pool) futures.push_back(service.submit(app));
  std::set<core::AppHandle> handles;
  for (auto& future : futures) {
    const auto report = future.get();
    if (report.admitted) {
      EXPECT_TRUE(handles.insert(report.handle).second)
          << "handle " << report.handle << " assigned twice";
    }
  }
}

TEST(AdmissionServiceTest, RemoveReleasesAndRejectsUnknownHandles) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  AdmissionService service(manager, {/*threads=*/2});

  const auto report = service.submit(small_pool(1, 0xC0DE).front()).get();
  ASSERT_TRUE(report.admitted);
  EXPECT_EQ(manager.live_count(), 1u);

  EXPECT_TRUE(service.remove(report.handle).ok());
  EXPECT_EQ(manager.live_count(), 0u);
  // Everything released: the platform is back to a clean slate.
  for (const platform::Element& element : manager.platform().elements()) {
    EXPECT_TRUE(element.used().is_zero());
    EXPECT_EQ(element.task_count(), 0);
  }
  EXPECT_FALSE(service.remove(report.handle).ok());
  EXPECT_FALSE(service.remove(9999).ok());
}

TEST(AdmissionServiceTest, SubmitAfterStopSettlesWithRejection) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  AdmissionService service(manager, {/*threads=*/2});
  service.stop();

  auto future = service.submit(small_pool(1, 0xDEAD).front());
  const core::AdmissionReport report = future.get();
  EXPECT_FALSE(report.admitted);
  EXPECT_EQ(report.reason, "service stopped");
}

TEST(AdmissionServiceTest, CommitLogMatchesLiveBookkeeping) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  AdmissionService service(manager, {/*threads=*/4, /*max_batch=*/2});

  for (const auto& app : small_pool(8, 0xF00D)) service.submit(app);
  service.drain();

  const std::vector<CommitRecord> log = service.commit_log();
  std::set<core::AppHandle> logged;
  for (const CommitRecord& record : log) {
    EXPECT_TRUE(logged.insert(record.handle).second)
        << "handle " << record.handle << " committed twice";
  }
  for (const core::AppHandle handle : manager.live_handles()) {
    ASSERT_TRUE(logged.count(handle))
        << "live handle " << handle << " missing from the commit log";
    const auto it = std::find_if(
        log.begin(), log.end(),
        [&](const CommitRecord& r) { return r.handle == handle; });
    // The log records exactly the reservations the manager holds live.
    EXPECT_EQ(it->task_allocations, manager.allocations_of(handle));
  }
}

TEST(AdmissionServiceTest, EverySettledRequestIsOneLatencySample) {
  // service.latency_ms records one sample per settled request, admitted or
  // rejected, whichever path (batch commit, conflict requeue, exclusive
  // fallback) settled it. The registry is process-wide, so count deltas.
  obs::Registry& registry = obs::Registry::global();
  const obs::Counter admissions = registry.counter("service.admissions");
  const obs::Counter rejections = registry.counter("service.rejections");
  const obs::Histogram latency = registry.histogram("service.latency_ms");
  const std::int64_t admissions_before = admissions.value();
  const std::int64_t rejections_before = rejections.value();
  const std::int64_t samples_before = latency.stats().count;

  platform::Platform crisp = platform::make_crisp_platform();
  core::KairosConfig kairos_config;
  kairos_config.shards = 4;
  core::ResourceManager manager(crisp, kairos_config);
  AdmissionService service(manager, {/*threads=*/4, /*max_batch=*/3});
  // Enough submissions to fill CRISP, so some are rejected.
  const auto pool = small_pool(40, 0x1A7E);
  std::vector<std::future<core::AdmissionReport>> futures;
  for (const auto& app : pool) futures.push_back(service.submit(app));
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  for (auto& future : futures) (future.get().admitted ? admitted : rejected)++;
  service.drain();

  EXPECT_GT(admitted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(admissions.value() - admissions_before, admitted);
  EXPECT_EQ(rejections.value() - rejections_before, rejected);
  EXPECT_EQ(latency.stats().count - samples_before, admitted + rejected);
}

TEST(StageCommitTest, StagedAdmissionCommitsOntoLivePlatform) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  const graph::Application app = small_pool(1, 0xFACE).front();

  platform::Platform scratch = manager.snapshot_platform();
  core::StagedAdmission staged = manager.stage(app, scratch);
  ASSERT_TRUE(staged.report.admitted);
  EXPECT_EQ(staged.report.handle, -1);  // not yet booked
  EXPECT_EQ(manager.live_count(), 0u);  // live platform untouched by staging

  auto committed = manager.commit_staged(std::move(staged));
  ASSERT_TRUE(committed.ok());
  EXPECT_GE(committed.value().handle, 1);
  EXPECT_EQ(manager.live_count(), 1u);
  // The committed reservations are now live and owned by that handle.
  EXPECT_FALSE(manager.allocations_of(committed.value().handle).empty());
}

TEST(StageCommitTest, CommitConflictLeavesPlatformUntouched) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  const graph::Application app = small_pool(1, 0xFEED).front();

  platform::Platform scratch = manager.snapshot_platform();
  core::StagedAdmission staged = manager.stage(app, scratch);
  ASSERT_TRUE(staged.report.admitted);
  ASSERT_FALSE(staged.task_allocations.empty());

  // The platform moves under the snapshot: one of the staged elements dies.
  const platform::ElementId victim = staged.task_allocations.front().first;
  manager.circumvent_fault(victim);

  const platform::Snapshot before = manager.platform().snapshot();
  auto committed = manager.commit_staged(std::move(staged));
  ASSERT_FALSE(committed.ok());
  EXPECT_NE(committed.error().find("conflict"), std::string::npos);
  // Nothing partial leaked: allocation state is exactly as before the try.
  const platform::Snapshot after = manager.platform().snapshot();
  ASSERT_EQ(before.elements.size(), after.elements.size());
  for (std::size_t i = 0; i < before.elements.size(); ++i) {
    EXPECT_EQ(before.elements[i].used, after.elements[i].used);
    EXPECT_EQ(before.elements[i].task_count, after.elements[i].task_count);
  }
  ASSERT_EQ(before.links.size(), after.links.size());
  for (std::size_t i = 0; i < before.links.size(); ++i) {
    EXPECT_EQ(before.links[i].vc_used, after.links[i].vc_used);
    EXPECT_EQ(before.links[i].bw_used, after.links[i].bw_used);
  }
  EXPECT_EQ(manager.live_count(), 0u);
}

TEST(StageCommitTest, CommittingARejectedStagingIsAnError) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  core::StagedAdmission staged;  // default: not admitted
  auto committed = manager.commit_staged(std::move(staged));
  EXPECT_FALSE(committed.ok());
}

}  // namespace
}  // namespace kairos::service

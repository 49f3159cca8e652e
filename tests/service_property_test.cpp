// System property test for the concurrent admission pipeline: several client
// threads hammer submit/remove/apps_using through one AdmissionService while
// readers poll the shared surfaces, then two global invariants are audited:
//
//  1. Ownership (the PR-4 invariant under concurrency): every element
//     reservation in the platform is owned by exactly one live application —
//     per element, the component-wise sum of the live applications'
//     allocations equals the element's used vector, and the live task count
//     equals its task_count().
//
//  2. Serial replay: replaying the service's commit log (restricted to the
//     still-live handles, in handle = registration order) through the plain
//     platform API onto a fresh platform reproduces the live platform's
//     allocation state exactly — element used vectors, task counts, link
//     virtual channels and bandwidth. Wear is excluded by design: fallback
//     admissions run the mapping search against the live platform, whose
//     trial placements advance wear in a way a replay of final placements
//     does not repeat (wear feeds only the optional wear-leveling objective).
//
// The churn test runs at 1 and 4 service workers: with one worker every
// commit follows its own staging, with four the workers' commits race for
// the manager's one commit lock, conflict and requeue — both must uphold
// the same two invariants.
//
// A second churn runs a 4-worker service under the live telemetry plane a
// `--serve --listen` daemon carries: the tracer armed, the SLO sampler
// ticking, and a socket server whose /metrics, /healthz and /trace a
// scraper thread reads while the admissions commit.
//
// Run under -fsanitize=thread to also certify the locking discipline; the
// ctest label is "property" so the TSan CI lane picks it up via -L property.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/resource_manager.hpp"
#include "gen/datasets.hpp"
#include "net/net.hpp"
#include "net/server.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "platform/crisp.hpp"
#include "service/admission_service.hpp"

namespace kairos::service {
namespace {

class ServiceChurnTest : public ::testing::TestWithParam<int> {};

TEST_P(ServiceChurnTest, ConcurrentChurnKeepsOwnershipAndReplaysExactly) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  ServiceConfig config;
  config.threads = GetParam();
  config.max_batch = 3;
  config.max_retries = 2;
  AdmissionService service(manager, config);

  const auto pool =
      gen::make_dataset(gen::DatasetKind::kCommunicationSmall, 24, 0x7E57);

  constexpr int kClients = 4;
  constexpr int kIterations = 30;
  std::atomic<bool> done{false};

  // A reader thread polling the shared read surfaces the whole time — under
  // TSan this certifies readers never race the admission/removal writers.
  const std::size_t element_count = manager.platform().element_count();
  std::thread reader([&] {
    std::size_t spins = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const auto live = manager.live_handles();
      for (const core::AppHandle handle : live) {
        (void)manager.allocations_of(handle);
      }
      const auto element = platform::ElementId{
          static_cast<std::int32_t>(spins++ % element_count)};
      (void)manager.apps_using(element);
      (void)manager.live_count();
    }
  });

  std::vector<std::thread> clients;
  std::vector<std::vector<core::AppHandle>> kept(kClients);
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kIterations; ++i) {
        const auto& app =
            pool[static_cast<std::size_t>(c * kIterations + i) % pool.size()];
        const core::AdmissionReport report = service.submit(app).get();
        if (!report.admitted) continue;
        // Churn: remove two out of three admissions straight away, keep the
        // rest live so the final audit has something to own.
        if (i % 3 != 0) {
          ASSERT_TRUE(service.remove(report.handle).ok());
        } else {
          kept[static_cast<std::size_t>(c)].push_back(report.handle);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  service.drain();

  // --- every kept handle is live, exactly the kept set is live ------------
  const std::vector<core::AppHandle> live = manager.live_handles();
  const std::set<core::AppHandle> live_set(live.begin(), live.end());
  std::set<core::AppHandle> kept_set;
  for (const auto& per_client : kept) {
    for (const core::AppHandle handle : per_client) {
      EXPECT_TRUE(kept_set.insert(handle).second);
    }
  }
  EXPECT_EQ(kept_set, live_set);

  // --- invariant 1: exclusive ownership of every reservation --------------
  const platform::Platform& live_platform = manager.platform();
  std::vector<platform::ResourceVector> owned(live_platform.element_count());
  std::vector<int> owned_tasks(live_platform.element_count(), 0);
  for (const core::AppHandle handle : live) {
    const auto allocations = manager.allocations_of(handle);
    ASSERT_FALSE(allocations.empty());
    for (const auto& [element, demand] : allocations) {
      owned[static_cast<std::size_t>(element.value)] += demand;
      ++owned_tasks[static_cast<std::size_t>(element.value)];
    }
  }
  for (std::size_t i = 0; i < live_platform.element_count(); ++i) {
    const platform::Element& element =
        live_platform.element(platform::ElementId{static_cast<int>(i)});
    EXPECT_EQ(element.used(), owned[i])
        << "element " << element.name() << " holds reservations owned by "
        << "no live application (or double-owned)";
    EXPECT_EQ(element.task_count(), owned_tasks[i]);
  }

  // --- invariant 2: serial replay of the committed order ------------------
  std::vector<CommitRecord> log = service.commit_log();
  std::sort(log.begin(), log.end(),
            [](const CommitRecord& a, const CommitRecord& b) {
              return a.handle < b.handle;
            });
  platform::Platform replay = platform::make_crisp_platform();
  for (const CommitRecord& record : log) {
    if (!live_set.count(record.handle)) continue;  // later removed
    // Each prefix of the live set fits (it is component-wise <= the final
    // live state), so every replayed operation must succeed.
    for (const auto& [element, demand] : record.task_allocations) {
      ASSERT_TRUE(replay.allocate(element, demand));
      replay.add_task(element);
    }
    for (const auto& [route, bandwidth] : record.routes) {
      for (const platform::LinkId link : route.links) {
        ASSERT_TRUE(replay.allocate_channel(link, bandwidth));
      }
    }
  }
  const platform::Snapshot expected = replay.snapshot();
  const platform::Snapshot actual = live_platform.snapshot();
  ASSERT_EQ(expected.elements.size(), actual.elements.size());
  for (std::size_t i = 0; i < expected.elements.size(); ++i) {
    EXPECT_EQ(expected.elements[i].used, actual.elements[i].used)
        << "element " << i << " allocation state diverged from the replay";
    EXPECT_EQ(expected.elements[i].task_count, actual.elements[i].task_count);
  }
  ASSERT_EQ(expected.links.size(), actual.links.size());
  for (std::size_t i = 0; i < expected.links.size(); ++i) {
    EXPECT_EQ(expected.links[i].vc_used, actual.links[i].vc_used)
        << "link " << i << " virtual-channel state diverged from the replay";
    EXPECT_EQ(expected.links[i].bw_used, actual.links[i].bw_used);
  }

  // --- quiesced availability index matches a linear recount ---------------
  EXPECT_TRUE(live_platform.availability_consistent());
}

INSTANTIATE_TEST_SUITE_P(Workers, ServiceChurnTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "workers" + std::to_string(info.param);
                         });

TEST(ServicePropertyTest, DrainQuiescesUnderConcurrentSubmissions) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  AdmissionService service(manager, {/*threads=*/3, /*max_batch=*/2});

  const auto pool =
      gen::make_dataset(gen::DatasetKind::kCommunicationSmall, 8, 0xD12A);
  std::vector<std::future<core::AdmissionReport>> futures;
  for (int round = 0; round < 3; ++round) {
    for (const auto& app : pool) futures.push_back(service.submit(app));
    service.drain();
    EXPECT_EQ(service.pending(), 0u);
    // After a drain every future so far must be immediately ready.
    for (auto& future : futures) {
      if (!future.valid()) continue;
      const auto report = future.get();
      if (report.admitted) {
        ASSERT_TRUE(service.remove(report.handle).ok());
      }
    }
    futures.clear();
  }
  EXPECT_EQ(manager.live_count(), 0u);
}

TEST(ServicePropertyTest, ChurnUnderTheLiveTelemetryPlane) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, {});
  AdmissionService service(manager, {/*threads=*/4, /*max_batch=*/3});

  obs::Registry& registry = obs::Registry::global();
  const obs::Histogram latency = registry.histogram("service.latency_ms");
  const std::int64_t samples_before = latency.stats().count;

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.start();
  // A small sampler ring at a fast cadence, so points are evicted while
  // the scraper reads /healthz.
  obs::TimeSeriesSampler sampler(registry,
                                 {/*interval_ms=*/5, /*capacity=*/8});
  obs::TelemetryServer telemetry(registry, tracer, obs::EventLog::global(),
                                 sampler);
  net::Server server{telemetry};
  ASSERT_TRUE(
      server.listen(net::parse_address("127.0.0.1:0").value()).ok());
  server.start();
  net::Address address;
  address.port = server.bound_port();
  sampler.start();

  std::atomic<bool> done{false};
  std::atomic<bool> scrape_failed{false};
  std::atomic<int> scrapes{0};
  std::atomic<int> request_spans{0};  ///< /trace spans tagged with a request
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      for (const std::string path : {"/metrics", "/healthz", "/trace"}) {
        auto response = net::http_get(address, path);
        if (!response.ok() || response.value().status != 200) {
          ADD_FAILURE() << path << " scrape failed";
          scrape_failed = true;
          return;
        }
        if (path != "/trace") continue;
        const std::string& body = response.value().body;
        for (std::size_t at = body.find("\"req\":"); at != std::string::npos;
             at = body.find("\"req\":", at + 1)) {
          ++request_spans;
        }
      }
      ++scrapes;
    }
  });

  const auto pool =
      gen::make_dataset(gen::DatasetKind::kCommunicationSmall, 24, 0x7E1E);
  constexpr int kClients = 4;
  constexpr int kIterations = 40;
  std::atomic<std::int64_t> settled{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kIterations; ++i) {
        const auto& app =
            pool[static_cast<std::size_t>(c * kIterations + i) % pool.size()];
        const core::AdmissionReport report = service.submit(app).get();
        ++settled;
        if (report.admitted) {
          ASSERT_TRUE(service.remove(report.handle).ok());
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  service.drain();
  // Let the scraper see the settled state at least once.
  const int scrapes_at_drain = scrapes.load();
  while (!scrape_failed && scrapes.load() < scrapes_at_drain + 1) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_relaxed);
  scraper.join();
  sampler.stop();
  server.stop();
  tracer.stop();
  tracer.drain();

  EXPECT_EQ(settled.load(), kClients * kIterations);
  EXPECT_EQ(latency.stats().count - samples_before, settled.load());
  EXPECT_EQ(manager.live_count(), 0u);
  EXPECT_TRUE(manager.platform().availability_consistent());
  EXPECT_GT(request_spans.load(), 0) << "no request-scoped span on /trace";
  EXPECT_FALSE(sampler.series().empty());
}

}  // namespace
}  // namespace kairos::service

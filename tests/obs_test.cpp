// Tests for the observability subsystem: exact counter sums under
// concurrent writers, histogram digests, handle stability across reset(),
// span nesting/ordering through the tracer, the Chrome trace-event JSON
// schema, the JSON writer/validator pair, and the instrumented-mapper
// decorator the registry applies to every strategy.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/resource_manager.hpp"
#include "gen/beamforming.hpp"
#include "mappers/registry.hpp"
#include "obs/build_info.hpp"
#include "obs/instrumented_mapper.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/crisp.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace kairos::obs {
namespace {

TEST(MetricsTest, CountersSumExactlyAcrossConcurrentWriters) {
  Registry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  // Handles resolved once per thread, shared cell: the relaxed atomic must
  // lose nothing.
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry] {
      const Counter shared = registry.counter("shared");
      const Counter mine = registry.counter("private." +
                                            std::to_string(current_thread_id()));
      for (int i = 0; i < kIncrements; ++i) {
        shared.add(1);
        mine.add(2);
      }
    });
  }
  for (auto& w : writers) w.join();

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("shared"),
            static_cast<std::int64_t>(kThreads) * kIncrements);
  std::int64_t private_total = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("private.", 0) == 0) private_total += value;
  }
  EXPECT_EQ(private_total, static_cast<std::int64_t>(kThreads) * kIncrements * 2);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  Registry registry;
  const Gauge gauge = registry.gauge("g");
  gauge.set(2.5);
  gauge.add(1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.5);
  EXPECT_DOUBLE_EQ(registry.snapshot().gauges.at("g"), 3.5);
}

TEST(MetricsTest, HistogramDigestAndConcurrentRecords) {
  Registry registry;
  const Histogram latency = registry.histogram("h");
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&latency] {
      for (int i = 1; i <= 1000; ++i) latency.record(static_cast<double>(i));
    });
  }
  for (auto& w : writers) w.join();
  const HistogramStats stats = latency.stats();
  EXPECT_EQ(stats.count, 4000);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 1000.0);
  EXPECT_NEAR(stats.mean, 500.5, 1e-9);
  EXPECT_NEAR(stats.p50, 500.0, 25.0);
  EXPECT_NEAR(stats.p95, 950.0, 25.0);
  EXPECT_NEAR(stats.p99, 990.0, 25.0);
}

TEST(MetricsTest, HistogramQuantilesMatchPerCallPercentilesBitForBit) {
  // stats() sorts one copy of the sketch for all three quantiles; the
  // result must equal one WeightedStats::percentile() call per quantile,
  // exactly, also once the sketch has compacted into weighted centroids.
  Registry registry;
  const Histogram latency = registry.histogram("h");
  util::WeightedStats reference;
  util::Xoshiro256 rng(0x5EED);
  for (int i = 0; i < 30000; ++i) {
    // Heavy-tailed and with repeats, like admission latencies.
    const double value = i % 7 == 0 ? 3.0 : util::exponential(rng, 2.0);
    latency.record(value);
    reference.add(value, 1.0);
  }
  ASSERT_LT(reference.sketch().size(), 30000u) << "sketch never compacted";

  const HistogramStats stats = latency.stats();
  EXPECT_EQ(stats.count, 30000);
  EXPECT_EQ(stats.mean, reference.mean());
  EXPECT_EQ(stats.min, reference.min());
  EXPECT_EQ(stats.max, reference.max());
  EXPECT_EQ(stats.p50, reference.percentile(50.0));
  EXPECT_EQ(stats.p95, reference.percentile(95.0));
  EXPECT_EQ(stats.p99, reference.percentile(99.0));
}

TEST(MetricsTest, ResetZeroesInPlaceAndHandlesStayValid) {
  Registry registry;
  const Counter counter = registry.counter("c");
  const Histogram histogram = registry.histogram("h");
  counter.add(7);
  histogram.record(1.0);
  registry.reset();
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(histogram.stats().count, 0);
  // The handles still point at live cells.
  counter.add(3);
  histogram.record(2.0);
  EXPECT_EQ(registry.snapshot().counters.at("c"), 3);
  EXPECT_EQ(registry.snapshot().histograms.at("h").count, 1);
}

TEST(MetricsTest, TextAndJsonExposition) {
  Registry registry;
  registry.counter("requests").add(5);
  registry.gauge("depth").set(1.5);
  registry.histogram("lat_ms").record(10.0);

  const std::string text = registry.to_text();
  EXPECT_NE(text.find("counter requests 5"), std::string::npos);
  EXPECT_NE(text.find("gauge depth 1.5"), std::string::npos);
  EXPECT_NE(text.find("histogram lat_ms count=1"), std::string::npos);

  std::ostringstream out;
  registry.write_json(out);
  std::string error;
  EXPECT_TRUE(json_valid(out.str(), &error)) << error << "\n" << out.str();
  EXPECT_NE(out.str().find("\"requests\":5"), std::string::npos);
  EXPECT_NE(out.str().find("\"p95\":"), std::string::npos);
}

TEST(JsonTest, EscapesAndValidates) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  for (const char* valid :
       {"{}", "[]", "null", "-1.5e3", "{\"a\":[1,2,{\"b\":\"c\"}]}",
        "\"\\u00e9\"", "true"}) {
    std::string error;
    EXPECT_TRUE(json_valid(valid, &error)) << valid << ": " << error;
  }
  for (const char* invalid :
       {"", "{", "[1,]", "{\"a\":}", "{'a':1}", "01", "nul", "{}extra",
        "\"unterminated"}) {
    EXPECT_FALSE(json_valid(invalid)) << invalid;
  }
}

TEST(TraceTest, SpansNestAndCompleteInOrder) {
  Tracer& tracer = Tracer::global();
  tracer.start();
  {
    Span outer("outer");
    outer.arg("k", "v");
    {
      Span inner("inner");
      (void)inner;
    }
    Span sibling("sibling");
    (void)sibling;
  }
  tracer.stop();

  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  // Completion order: inner first, then sibling, then outer.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "sibling");
  EXPECT_EQ(events[2].name, "outer");
  // Nesting depth at open time; all on this thread.
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].depth, 0);
  EXPECT_EQ(events[0].tid, events[2].tid);
  // Children start inside the parent and nothing precedes the epoch.
  EXPECT_GE(events[0].ts_us, events[2].ts_us);
  EXPECT_GE(events[1].ts_us, events[0].ts_us);
  EXPECT_GE(events[2].ts_us, 0.0);
  ASSERT_EQ(events[2].args.size(), 1u);
  EXPECT_EQ(events[2].args[0].first, "k");
  EXPECT_EQ(events[2].args[0].second, "v");
}

TEST(TraceTest, SpansAreInertWhileTracerIsInactive) {
  Tracer& tracer = Tracer::global();
  tracer.start();
  tracer.stop();  // clears prior events, leaves the tracer disarmed
  ASSERT_TRUE(tracer.events().empty());
  {
    Span span("ignored");
    EXPECT_GE(span.elapsed_ms(), 0.0);  // the stopwatch half still works
  }
  EXPECT_TRUE(tracer.events().empty());
}

// The golden schema of the trace output: one Chrome trace-event JSON object
// whose complete ("X") events Perfetto can load directly.
TEST(TraceTest, WriteJsonMatchesChromeTraceEventSchema) {
  Tracer& tracer = Tracer::global();
  tracer.start();
  {
    Span span("schema-span");
    span.arg("strategy", "incremental");
  }
  tracer.stop();

  std::ostringstream out;
  tracer.write_json(out);
  const std::string json = out.str();
  std::string error;
  ASSERT_TRUE(json_valid(json, &error)) << error << "\n" << json;
  for (const char* required :
       {"\"traceEvents\":[", "\"name\":\"schema-span\"", "\"cat\":\"kairos\"",
        "\"ph\":\"X\"", "\"ts\":", "\"dur\":", "\"pid\":1", "\"tid\":",
        "\"args\":{", "\"depth\":", "\"strategy\":\"incremental\"",
        "\"otherData\":{", "\"git_sha\":", "\"compiler\":",
        "\"displayTimeUnit\":\"ms\""}) {
    EXPECT_NE(json.find(required), std::string::npos) << required;
  }
}

// The decorator the registry wraps around every strategy: transparent
// name()/result passthrough, and call/latency metrics for free.
TEST(InstrumentedMapperTest, CountsCallsAndForwardsName) {
  mappers::MapperOptions options;
  options.weights = {4.0, 100.0};
  const auto made = mappers::make("incremental", options);
  ASSERT_TRUE(made.ok());
  EXPECT_EQ(made.value()->name(), "incremental");
  // The registry-built strategy is the wrapper, not the bare strategy.
  const auto* wrapper =
      dynamic_cast<const InstrumentedMapper*>(made.value().get());
  ASSERT_NE(wrapper, nullptr);
  EXPECT_EQ(wrapper->inner()->name(), "incremental");

  const Counter calls =
      Registry::global().counter("mapper.incremental.map_calls");
  const Histogram time =
      Registry::global().histogram("mapper.incremental.map_time_ms");
  const std::int64_t calls_before = calls.value();
  const std::int64_t samples_before = time.stats().count;

  platform::Platform crisp = platform::make_crisp_platform();
  core::KairosConfig config;
  config.weights = {4.0, 100.0};
  config.mapper = made.value();
  core::ResourceManager manager(crisp, config);
  const auto report = manager.admit(gen::make_beamforming_application());
  ASSERT_TRUE(report.admitted) << report.reason;

  EXPECT_EQ(calls.value(), calls_before + 1);
  EXPECT_EQ(time.stats().count, samples_before + 1);
}

TEST(MetricsTest, ResetIsSafeAgainstConcurrentRecording) {
  // The documented contract: reset() may race freely with writers — no torn
  // values, no data race (certified under -fsanitize=thread), per-metric
  // boundary. The service worker pool relies on this when a bench resets
  // between measured sections while admissions are still settling.
  Registry registry;
  const Counter counter = registry.counter("reset.counter");
  const Gauge gauge = registry.gauge("reset.gauge");
  const Histogram histogram = registry.histogram("reset.histogram");

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        counter.add(1);
        gauge.add(0.5);
        histogram.record(1.25);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    registry.reset();
    // Whatever raced in, the cells stay readable and well-formed.
    EXPECT_GE(counter.value(), 0);
    EXPECT_GE(histogram.stats().count, 0);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();

  // With the writers quiesced the boundary is exact: one more reset leaves
  // everything zero, and the handles are still live.
  registry.reset();
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("reset.counter"), 0);
  EXPECT_EQ(snap.gauges.at("reset.gauge"), 0.0);
  EXPECT_EQ(snap.histograms.at("reset.histogram").count, 0);
  counter.add(3);
  EXPECT_EQ(counter.value(), 3);
}

TEST(TraceTest, StartStopRaceSpansWithoutTearing) {
  // start()/stop() may race span construction and destruction on other
  // threads (atomic armed flag + epoch, mutex-guarded buffer). Boundaries
  // are fuzzy by contract; what must hold is: no crash, no data race (TSan
  // lane), and every collected event is structurally sound.
  Tracer& tracer = Tracer::global();
  std::atomic<bool> stop{false};
  std::vector<std::thread> spanners;
  for (int t = 0; t < 3; ++t) {
    spanners.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        Span span("race.outer");
        span.arg("k", "v");
        Span inner("race.inner");
      }
    });
  }
  for (int i = 0; i < 100; ++i) {
    tracer.start();
    tracer.stop();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& s : spanners) s.join();
  tracer.stop();

  for (const TraceEvent& event : tracer.events()) {
    EXPECT_FALSE(event.name.empty());
    EXPECT_GE(event.dur_us, 0.0);
    EXPECT_GE(event.depth, 0);
  }
  // Leave the global tracer in a known state for other suites.
  tracer.start();
  tracer.stop();
}

TEST(BuildInfoTest, LineCarriesTheStamp) {
  const BuildInfo& info = build_info();
  EXPECT_FALSE(info.git_sha.empty());
  EXPECT_FALSE(info.compiler.empty());
  const std::string line = build_info_line();
  EXPECT_EQ(line.rfind("kairos ", 0), 0u) << line;
  EXPECT_NE(line.find(info.git_sha), std::string::npos);
}

}  // namespace
}  // namespace kairos::obs

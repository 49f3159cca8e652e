// kbench — the end-to-end benchmark of the run-time resource manager.
//
// One process runs one workload (README.md lists them and says why each
// exists): it builds its inputs from --seed, sets the system up several
// times (the median set-up is `setup_s`), measures one closed- or open-loop
// window of --seconds, then runs the correctness checks, untimed. The last
// line of stdout is one JSON document with every metric, the checks and the
// run's provenance; perfbench/run.py turns it into the benchmark result.
//
// The program is driven only through its public calls — core::
// ResourceManager, service::AdmissionService, and the daemon assembled from
// net::Server + obs::TelemetryServer + service::CommandSession exactly as
// `kairos_cli --serve --listen` assembles it (which carries the
// AdmissionService) — and every layer is measured
// from outside by timing those calls. With --trace 1 a second window runs
// with benchmark-owned spans around each call; the per-layer metrics come
// from that window and the difference to the untraced window is reported as
// the tracing overhead.
//
//   usage: kbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--work-dir <dir>] [--tiny] [--skip-remove]
//
// --tiny shrinks every workload to seconds-long sizes (the benchmark's own
// tests); --skip-remove deliberately drops one remove() so the ownership /
// empty-platform audit must fail (the negative test).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/resource_manager.hpp"
#include "gen/datasets.hpp"
#include "gen/generator.hpp"
#include "graph/app_io.hpp"
#include "net/net.hpp"
#include "net/server.hpp"
#include "obs/build_info.hpp"
#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "platform/builders.hpp"
#include "platform/crisp.hpp"
#include "service/admission_service.hpp"
#include "service/command_session.hpp"
#include "util/rng.hpp"

namespace {

using namespace kairos;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- workload constants ----------------------------------------------------
//
// Every size below is a fixed property of its workload, never derived from
// the machine. --tiny swaps in the small column for the benchmark's tests.

struct Sizes {
  int setups;              ///< serial set-ups per run; setup_s is their median
  int daemon_setups;       ///< the same for daemon-crisp (each ~0.3 s)
  int serial_width;        ///< serial-mesh10k: mesh side (100 -> 10 000)
  int serial_live;         ///< serial-mesh10k: live population held
  int serial_churn;        ///< churn steps after the fill (warm-up)
  int pool;                ///< recurring 24-task DSP application pool
  int daemon_live;         ///< daemon-crisp: live apps per connection
};

constexpr Sizes kFull{3, 7, 100, 440, 100, 16, 3};
constexpr Sizes kTiny{2, 2, 16, 12, 8, 8, 3};

/// daemon-crisp: line-protocol connections, one generator thread each; a
/// fourth thread scrapes. Together at most nproc (4) load threads.
constexpr int kDaemonConns = 3;
/// daemon-crisp offered load (requests/s over all connections) and the
/// latency limit on_time_ratio counts against. Fixed constants of the
/// workload, recorded in BENCHMARK.json. Neither comes from a published
/// admission rate: both are unverified choices (README.md, "Workloads").
constexpr double kDaemonRate = 300.0;
constexpr double kDaemonLimitMs = 50.0;
/// Monitoring cadence: /metrics every 15 s (the scrape_interval of the
/// example configuration Prometheus ships; its built-in default is 1 min),
/// /healthz every 10 s (the default periodSeconds of a Kubernetes probe).
constexpr std::chrono::seconds kMetricsEvery{15};
constexpr std::chrono::seconds kHealthEvery{10};
/// Latency limit on_time_ratio uses on the closed-loop serial workload.
constexpr double kSerialLimitMs = 50.0;

// --- options ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool skip_remove = false;
  std::string work_dir = ".";
};

// --- samples ---------------------------------------------------------------

struct Samples {
  std::vector<double> values;

  void add(double v) { values.push_back(v); }
  void append(const Samples& other) {
    values.insert(values.end(), other.values.begin(), other.values.end());
  }
  std::size_t count() const { return values.size(); }
  double mean() const {
    if (values.empty()) return 0.0;
    double sum = 0.0;
    for (const double v : values) sum += v;
    return sum / static_cast<double>(values.size());
  }
  /// Nearest-rank percentile, q in [0, 1].
  double pct(double q) const {
    if (values.empty()) return 0.0;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
  }
};

// --- spans -------------------------------------------------------------------
//
// Benchmark-owned spans around every public call, kept in memory (one log
// per recording thread, so recording takes no lock) and written out as
// Chrome trace JSON when the run ends. A report's phase times are recorded
// as child spans of the call that returned it; only their durations are
// known, so they are laid out back to back ending where the call ended.

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t id;
  std::int64_t parent;  ///< 0 = root
  std::uint64_t request;
};

class SpanLog {
 public:
  SpanLog(bool enabled, int thread) : enabled_(enabled), thread_(thread) {}

  int thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Records a finished span; returns its id (0 when tracing is off).
  std::int64_t record(const char* name, Clock::time_point start,
                      Clock::time_point end, std::uint64_t request = 0,
                      std::int64_t parent = 0) {
    return push(name, ns(start), ns(end), parent, request);
  }

  /// A child of `parent` known only by its duration, ending at `end`.
  void record_child(const char* name, std::int64_t parent,
                    Clock::time_point end, double ms, std::uint64_t request) {
    if (parent == 0) return;
    push(name, ns(end) - static_cast<std::int64_t>(ms * 1e6), ns(end), parent,
         request);
  }

  /// The report's phases as children of `parent`, back to back ending at
  /// `end`.
  void record_phases(std::int64_t parent, Clock::time_point end,
                     const core::PhaseTimes& times, std::uint64_t request) {
    if (parent == 0) return;
    const std::pair<const char*, double> phases[] = {
        {"validation", times.validation_ms},
        {"routing", times.routing_ms},
        {"mapping", times.mapping_ms},
        {"binding", times.binding_ms}};
    std::int64_t cursor = ns(end);
    for (const auto& [name, ms] : phases) {
      const std::int64_t length = static_cast<std::int64_t>(ms * 1e6);
      push(name, cursor - length, cursor, parent, request);
      cursor -= length;
    }
  }

 private:
  static std::int64_t ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }

  std::int64_t push(const char* name, std::int64_t start, std::int64_t end,
                    std::int64_t parent, std::uint64_t request) {
    if (!enabled_) return 0;
    const std::int64_t id =
        (static_cast<std::int64_t>(thread_ + 1) << 40) | ++next_;
    spans_.push_back({name, start, end, id, parent, request});
    return id;
  }

  bool enabled_;
  int thread_;
  std::int64_t next_ = 0;
  std::vector<Span> spans_;
};

std::vector<SpanLog> make_logs(bool enabled, int threads) {
  std::vector<SpanLog> logs;
  for (int i = 0; i < threads; ++i) logs.emplace_back(enabled, i);
  return logs;
}

std::vector<const SpanLog*> views_of(const std::vector<SpanLog>& logs) {
  std::vector<const SpanLog*> views;
  for (const SpanLog& log : logs) views.push_back(&log);
  return views;
}

/// Per span name: durations and self times (duration minus the time its
/// children cover), in ms.
struct SpanStats {
  Samples duration;
  Samples self;
};

std::map<std::string, SpanStats> analyse_spans(
    const std::vector<const SpanLog*>& logs) {
  std::unordered_map<std::int64_t, std::int64_t> child_ns;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, SpanStats> stats;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      const std::int64_t length = span.end_ns - span.start_ns;
      const auto it = child_ns.find(span.id);
      const std::int64_t children = it == child_ns.end() ? 0 : it->second;
      SpanStats& s = stats[span.name];
      s.duration.add(static_cast<double>(length) / 1e6);
      s.self.add(static_cast<double>(length - children) / 1e6);
    }
  }
  return stats;
}

bool write_trace(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      origin = std::min(origin, span.start_ns);
    }
  }
  obs::JsonWriter json(out);
  json.begin_object();
  json.key("traceEvents");
  json.begin_array();
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      json.begin_object();
      json.kv("name", span.name);
      json.kv("ph", "X");
      json.kv("pid", std::int64_t{1});
      json.kv("tid", static_cast<std::int64_t>(log->thread()));
      json.kv("ts", static_cast<double>(span.start_ns - origin) / 1e3);
      json.kv("dur", static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      json.key("args");
      json.begin_object();
      json.kv("id", span.id);
      json.kv("parent", span.parent);
      json.kv("request", static_cast<std::int64_t>(span.request));
      json.end_object();
      json.end_object();
    }
  }
  json.end_array();
  json.end_object();
  out << '\n';
  return static_cast<bool>(out);
}

// --- process accounting ------------------------------------------------------

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Restarts the kernel's peak-RSS record (VmHWM) at the current RSS, so the
/// peak read later covers only what follows. The first set-up's cold
/// transients (a one-off allocation burst whose size depends on the draw
/// order) otherwise decide the process peak and make it bimodal across
/// seeds. Returns false where the kernel does not support the reset.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

/// Peak resident set in MiB since the last reset_peak_rss() (VmHWM), or of
/// the whole process when the reset is unsupported (ru_maxrss).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- inputs ------------------------------------------------------------------

/// The recurring pool of 24-task DSP applications the mesh workload draws
/// from. Intensities 0.3-0.7 pack two or three tasks per element, so the
/// mesh fills through packing and routing rather than one task per element.
/// The pool is part of the workload's definition, like the platform: built
/// from a fixed seed, because a 16-app pool drawn per run makes the mesh
/// workload's cost and admit ratio vary more between seeds than any change
/// worth measuring. --seed drives the order apps are drawn in.
std::vector<graph::Application> make_dsp_pool(int count) {
  constexpr std::uint64_t kPoolSeed = 0xD5B0001ULL;
  gen::GeneratorConfig config;
  config.target = platform::ElementType::kDsp;
  config.io_on_boundary = false;
  config.input_tasks = 2;
  config.internal_tasks = 20;
  config.output_tasks = 2;
  config.min_implementations = 1;
  config.max_implementations = 2;
  config.min_intensity = 0.30;
  config.max_intensity = 0.70;
  util::Xoshiro256 rng(kPoolSeed);
  std::vector<graph::Application> pool;
  for (int i = 0; i < count; ++i) {
    pool.push_back(
        gen::generate_application(config, rng, "dsp-" + std::to_string(i)));
  }
  return pool;
}

/// Draws pool indices in shuffled rounds: every app once per round, the
/// order from the seed. The live population then holds the pool in equal
/// shares whatever the seed, so seeds differ in order, not in mix.
class ShuffledBag {
 public:
  ShuffledBag(int size, std::uint64_t seed)
      : rng_(seed), order_(static_cast<std::size_t>(size)) {
    std::iota(order_.begin(), order_.end(), 0);
    next_ = order_.size();
  }
  int next() {
    if (next_ == order_.size()) {
      std::shuffle(order_.begin(), order_.end(), rng_);
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  util::Xoshiro256 rng_;
  std::vector<int> order_;
  std::size_t next_;
};

platform::Platform make_dsp_mesh(int width) {
  platform::BuilderConfig mesh;
  mesh.element_type = platform::ElementType::kDsp;
  mesh.vc_capacity = 16;
  mesh.bw_capacity = 4000;
  return platform::make_mesh(width, width, mesh);
}

core::KairosConfig mesh_config() {
  core::KairosConfig config;
  config.weights = {4.0, 100.0};
  return config;
}

// --- correctness checks --------------------------------------------------------

struct Checks {
  std::vector<std::pair<std::string, bool>> results;
  std::vector<std::string> failures;

  void expect(const std::string& name, bool ok, const std::string& detail) {
    results.emplace_back(name, ok);
    if (!ok) failures.push_back(name + ": " + detail);
  }
  bool all_passed() const { return failures.empty(); }
};

/// Summed allocations_of over live_handles() equals every element's used
/// resources and task count, and the live set is exactly the handles the
/// benchmark believes it holds.
void audit_ownership(const core::ResourceManager& manager,
                     const std::set<core::AppHandle>& tracked,
                     Checks& checks) {
  const platform::Platform& platform = manager.platform();
  const std::vector<core::AppHandle> live = manager.live_handles();
  const std::set<core::AppHandle> live_set(live.begin(), live.end());
  checks.expect("live_set_matches_clients", live_set == tracked,
                std::to_string(live_set.size()) + " live vs " +
                    std::to_string(tracked.size()) + " held by clients");
  std::vector<platform::ResourceVector> owned(platform.element_count());
  std::vector<int> tasks(platform.element_count(), 0);
  for (const core::AppHandle handle : live) {
    for (const auto& [element, demand] : manager.allocations_of(handle)) {
      owned[static_cast<std::size_t>(element.value)] += demand;
      ++tasks[static_cast<std::size_t>(element.value)];
    }
  }
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < platform.element_count(); ++i) {
    const platform::Element& element =
        platform.element(platform::ElementId{static_cast<int>(i)});
    if (!(element.used() == owned[i]) || element.task_count() != tasks[i]) {
      ++mismatched;
    }
  }
  checks.expect("ownership_audit", mismatched == 0,
                std::to_string(mismatched) +
                    " elements hold reservations no live app owns");
}

/// Every element and link of the platform is free.
void expect_empty(const platform::Platform& platform, Checks& checks) {
  const platform::Snapshot state = platform.snapshot();
  std::size_t busy = 0;
  for (const auto& element : state.elements) {
    if (!element.used.is_zero() || element.task_count != 0) ++busy;
  }
  for (const auto& link : state.links) {
    if (link.vc_used != 0 || link.bw_used != 0) ++busy;
  }
  checks.expect("empty_after_remove_all", busy == 0,
                std::to_string(busy) + " elements/links still allocated");
}

/// Removes every handle the benchmark holds, then requires an empty
/// platform. `skip_one` deliberately leaks one handle (the negative test).
void remove_all_and_expect_empty(
    const std::function<util::VoidResult(core::AppHandle)>& remove,
    const std::set<core::AppHandle>& tracked,
    const platform::Platform& platform, bool skip_one, Checks& checks,
    long& failed) {
  long errors = 0;
  bool skipped = false;
  for (const core::AppHandle handle : tracked) {
    if (skip_one && !skipped) {
      skipped = true;
      continue;
    }
    if (!remove(handle).ok()) ++errors;
  }
  failed += errors;
  checks.expect("remove_all", errors == 0,
                std::to_string(errors) + " removes failed");
  expect_empty(platform, checks);
}

/// Replays the service's commit log (still-live handles, in handle order)
/// onto `fresh`, a new copy of the platform, and requires the live
/// allocation state back exactly. Call with the service drained.
void check_replay(const service::AdmissionService& service,
                  const core::ResourceManager& manager,
                  const platform::Platform& live_platform,
                  platform::Platform fresh, Checks& checks) {
  std::vector<service::CommitRecord> log = service.commit_log();
  std::sort(log.begin(), log.end(),
            [](const auto& a, const auto& b) { return a.handle < b.handle; });
  const std::vector<core::AppHandle> live = manager.live_handles();
  const std::set<core::AppHandle> live_set(live.begin(), live.end());
  bool applied = true;
  for (const service::CommitRecord& record : log) {
    if (!live_set.count(record.handle)) continue;
    for (const auto& [element, demand] : record.task_allocations) {
      applied = fresh.allocate(element, demand) && applied;
      fresh.add_task(element);
    }
    for (const auto& [route, bandwidth] : record.routes) {
      for (const platform::LinkId link : route.links) {
        applied = fresh.allocate_channel(link, bandwidth) && applied;
      }
    }
  }
  const platform::Snapshot expected = fresh.snapshot();
  const platform::Snapshot actual = live_platform.snapshot();
  std::size_t diverged = 0;
  for (std::size_t i = 0; i < expected.elements.size(); ++i) {
    if (!(expected.elements[i].used == actual.elements[i].used) ||
        expected.elements[i].task_count != actual.elements[i].task_count) {
      ++diverged;
    }
  }
  for (std::size_t i = 0; i < expected.links.size(); ++i) {
    if (expected.links[i].vc_used != actual.links[i].vc_used ||
        expected.links[i].bw_used != actual.links[i].bw_used) {
      ++diverged;
    }
  }
  checks.expect("commit_log_replay", applied && diverged == 0,
                std::to_string(diverged) +
                    " elements/links differ from the replayed commit log");
}

double occupancy(const platform::Platform& platform) {
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < platform.element_count(); ++i) {
    const platform::Element& element =
        platform.element(platform::ElementId{static_cast<int>(i)});
    if (element.capacity().compute() <= 0) continue;
    sum += static_cast<double>(element.used().compute()) /
           static_cast<double>(element.capacity().compute());
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

/// FNV-1a over the ordered decision sequence.
struct Fingerprint {
  std::uint64_t value = 1469598103934665603ULL;
  std::int64_t decisions = 0;

  void mix(std::int64_t x) {
    for (int i = 0; i < 8; ++i) {
      value ^= static_cast<std::uint64_t>(x >> (8 * i)) & 0xFF;
      value *= 1099511628211ULL;
    }
  }
  void add(const core::AdmissionReport& report) {
    ++decisions;
    mix(report.admitted ? -1 : static_cast<std::int64_t>(report.failed_phase));
    if (!report.admitted) return;
    for (const core::TaskPlacement& placement : report.layout.placements()) {
      mix(placement.element.value);
    }
    for (const core::ChannelRoute& route : report.layout.routes()) {
      mix(static_cast<std::int64_t>(route.route.links.size()));
      for (const platform::LinkId link : route.route.links) mix(link.value);
    }
  }
  std::string hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
  }
};

// --- the result document -------------------------------------------------------

struct Result {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::int64_t> samples;  ///< sample count per metric
  std::map<std::string, std::string> info;
  long attempted = 0;
  long failed = 0;
  Checks checks;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
  void set_timing(const std::string& base, const Samples& s,
                  bool with_p50 = false) {
    if (with_p50) set(base + ".p50", s.pct(0.50), "ms");
    set(base + ".mean", s.mean(), "ms");
    set(base + ".p99", s.pct(0.99), "ms");
    samples[base] = static_cast<std::int64_t>(s.count());
  }
};

/// The timed window is cut into quarters; the latency percentiles, the
/// closed-loop decision rate and the peak RSS are reported as the median
/// over the quarters. A rare burst (an SDF analysis that explodes, a commit
/// conflict cascade) then moves one quarter, not the run's result, which
/// keeps run-to-run spread inside the bounds. Ratios use the whole window.
constexpr int kQuarters = 4;

double median_of(std::vector<double> values) {
  Samples s;
  s.values = std::move(values);
  return s.pct(0.5);
}

/// Records the peak RSS of each quarter of a window: a helper thread reads
/// and restarts the kernel's peak record at every quarter's end.
class RssQuarters {
 public:
  RssQuarters(Clock::time_point t0, double quarter_s)
      : thread_([this, t0, quarter_s] {
          for (int q = 0; q < kQuarters; ++q) {
            std::this_thread::sleep_until(
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(quarter_s * (q + 1))));
            peaks_[q] = peak_rss_mb();
            reset_peak_rss();
          }
        }) {}
  RssQuarters(const RssQuarters&) = delete;
  RssQuarters& operator=(const RssQuarters&) = delete;
  ~RssQuarters() {
    if (thread_.joinable()) thread_.join();
  }

  /// Waits for the last quarter to end; the median quarter peak in MiB.
  double median_peak() {
    if (thread_.joinable()) thread_.join();
    return median_of(std::vector<double>(peaks_, peaks_ + kQuarters));
  }

 private:
  double peaks_[kQuarters] = {};
  std::thread thread_;
};

/// What one timed window measured, common to every workload.
struct Window {
  Clock::time_point t0;
  double quarter_s = 1.0;
  Samples quarter_latency[kQuarters];
  long quarter_decided[kQuarters] = {};
  /// First and last decision of each quarter: its measured span.
  Clock::time_point quarter_first[kQuarters];
  Clock::time_point quarter_last[kQuarters];
  double peak_rss_mb = 0.0;  ///< median quarter peak
  double wall_s = 0.0;
  double cpu_s = 0.0;
  long decided = 0;
  long admitted = 0;
  long on_time = 0;   ///< requests answered within the workload's limit
  long requests = 0;  ///< requests sent (on_time_ratio's base)
  long repeats = 0;   ///< requests whose app was already submitted
  long rejected[core::kPhaseCount] = {};
  Samples latency;    ///< per-request decision latency, ms
  Samples hops;       ///< average_hops per admitted app
  long removes = 0;
  Samples occupancy;
  obs::MetricsSnapshot registry;  ///< program counters over the window

  void start(Clock::time_point at, double seconds) {
    t0 = at;
    quarter_s = seconds / kQuarters;
  }
  int quarter(Clock::time_point at) const {
    const double s = ms_between(t0, at) / 1000.0 / quarter_s;
    return std::clamp(static_cast<int>(s), 0, kQuarters - 1);
  }
  /// One decision's latency, filed under the quarter `at` falls in.
  void add_latency(double ms, Clock::time_point at) {
    latency.add(ms);
    const int q = quarter(at);
    quarter_latency[q].add(ms);
    if (quarter_decided[q]++ == 0 || at < quarter_first[q]) {
      quarter_first[q] = at;
    }
    quarter_last[q] = std::max(quarter_last[q], at);
  }
  void merge(const Window& other) {
    decided += other.decided;
    admitted += other.admitted;
    on_time += other.on_time;
    requests += other.requests;
    repeats += other.repeats;
    for (std::size_t p = 0; p < core::kPhaseCount; ++p) {
      rejected[p] += other.rejected[p];
    }
    for (int q = 0; q < kQuarters; ++q) {
      if (other.quarter_decided[q] == 0) continue;
      quarter_first[q] = quarter_decided[q] == 0
                             ? other.quarter_first[q]
                             : std::min(quarter_first[q],
                                        other.quarter_first[q]);
      quarter_last[q] = std::max(quarter_last[q], other.quarter_last[q]);
      quarter_latency[q].append(other.quarter_latency[q]);
      quarter_decided[q] += other.quarter_decided[q];
    }
    latency.append(other.latency);
    hops.append(other.hops);
    removes += other.removes;
  }
  /// Median over the quarters of a per-quarter latency percentile.
  double quarter_pct(double q) const {
    std::vector<double> values;
    for (const Samples& s : quarter_latency) {
      if (s.count() > 0) values.push_back(s.pct(q));
    }
    return median_of(std::move(values));
  }
  /// Median over the quarters of decisions per second between a quarter's
  /// first and last decision.
  double quarter_rate() const {
    std::vector<double> values;
    for (int q = 0; q < kQuarters; ++q) {
      const double span_s = ms_between(quarter_first[q], quarter_last[q]) / 1000.0;
      if (quarter_decided[q] > 1 && span_s > 0.0) {
        values.push_back(static_cast<double>(quarter_decided[q] - 1) / span_s);
      }
    }
    return median_of(std::move(values));
  }
};

void count_decision(Window& w, const core::AdmissionReport& report,
                    double latency_ms, double limit_ms, Clock::time_point at) {
  ++w.decided;
  ++w.requests;
  w.add_latency(latency_ms, at);
  if (latency_ms <= limit_ms) ++w.on_time;
  if (report.admitted) {
    ++w.admitted;
    w.hops.add(report.average_hops);
  } else {
    ++w.rejected[static_cast<std::size_t>(report.failed_phase)];
  }
}

std::int64_t counter_of(const obs::MetricsSnapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

/// `closed_loop`: the decision rate is the median quarter rate; an open
/// loop's rate is fixed by its schedule, so there it is the whole window's
/// decisions over the time until the last verdict arrived.
void set_end_to_end(Result& r, const Window& w, bool closed_loop) {
  r.set("admit_p50_ms", w.quarter_pct(0.50), "ms");
  r.samples["admit_ms"] = static_cast<std::int64_t>(w.latency.count());
  r.set("decisions_per_s",
        closed_loop ? w.quarter_rate()
                    : static_cast<double>(w.decided) / w.wall_s,
        "1/s");
  r.set("peak_rss_mb", w.peak_rss_mb, "MB");
  r.set("on_time_ratio",
        w.requests == 0 ? 0.0
                        : static_cast<double>(w.on_time) /
                              static_cast<double>(w.requests),
        "ratio");
  r.set("admit_ratio",
        w.decided == 0 ? 0.0
                       : static_cast<double>(w.admitted) /
                             static_cast<double>(w.decided),
        "ratio");
  r.set("mean_hops", w.hops.mean(), "hops");
  r.samples["mean_hops"] = static_cast<std::int64_t>(w.hops.count());
}

/// Per-layer metrics every workload shares; workload code fills the rest.
void set_common_layers(Result& r, const Window& w) {
  static const char* kRejectNames[] = {"binding", "mapping", "routing",
                                       "validation"};
  for (int i = 0; i < 4; ++i) {
    r.set(std::string("core.rejected.") + kRejectNames[i],
          static_cast<double>(
              w.rejected[static_cast<std::size_t>(core::Phase::kBinding) +
                         static_cast<std::size_t>(i)]),
          "count");
  }
  const double decided = static_cast<double>(std::max<long>(1, w.decided));
  const double conflicts = static_cast<double>(
      counter_of(w.registry, "service.commit_conflicts"));
  const double fallbacks =
      static_cast<double>(counter_of(w.registry, "service.fallbacks"));
  const double batches =
      static_cast<double>(counter_of(w.registry, "service.batches"));
  r.set("service.conflict_ratio", conflicts / decided, "ratio");
  r.set("service.fallback_ratio", fallbacks / decided, "ratio");
  // Requests staged per popped batch: every decision not settled by the
  // exclusive fallback was staged once, plus once more per conflict.
  r.set("service.batch_size_mean",
        batches == 0.0 ? 0.0 : (decided - fallbacks + conflicts) / batches,
        "count");
  r.set("proc.cpu_ms_per_decision", w.cpu_s * 1000.0 / decided, "ms");
  const double nproc =
      static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
  r.set("proc.cpu_util", w.cpu_s / (w.wall_s * nproc), "ratio");
  r.set("input.repeat_share",
        w.requests == 0 ? 0.0
                        : static_cast<double>(w.repeats) /
                              static_cast<double>(w.requests),
        "ratio");
  r.set("platform.occupancy_mean", w.occupancy.mean(), "ratio");
}

/// The per-layer timings of the traced window, all from its spans: a
/// call's duration, or the self time of a call whose children are the
/// report's phases (or the reply's service total). A span name a workload
/// never records leaves its metric unset: that layer is off its path.
void set_span_layers(Result& r, const std::vector<const SpanLog*>& logs) {
  const auto stats = analyse_spans(logs);
  const auto timing = [&](const std::string& metric, const char* span,
                          bool self, bool with_p50 = false) {
    const auto it = stats.find(span);
    if (it == stats.end()) return;
    r.set_timing(metric, self ? it->second.self : it->second.duration,
                 with_p50);
  };
  for (const char* phase : {"binding", "mapping", "routing", "validation"}) {
    timing(std::string("core.") + phase + "_ms", phase, false);
  }
  timing("core.residual_ms", "admit", true);
  timing("core.remove_ms", "remove", false);
  timing("net.overhead_ms", "request", true);
  timing("obs.scrape_ms", "scrape", false, true);
  std::size_t spans = 0;
  for (const SpanLog* log : logs) spans += log->spans().size();
  r.set("trace.spans", static_cast<double>(spans), "count");
}

/// The tail latency of the untraced window: reported with the per-layer
/// metrics because its run-to-run spread is too wide to gate a change on
/// (README.md, "End-to-end metrics").
void set_tail_latency(Result& r, const Window& plain) {
  r.set("admit_p99_ms", plain.quarter_pct(0.99), "ms");
  r.samples["admit_ms"] = static_cast<std::int64_t>(plain.latency.count());
}

void set_trace_overhead(Result& r, const Window& plain,
                        const Window& traced) {
  const auto delta = [](double base, double now) {
    return base == 0.0 ? 0.0 : (now / base - 1.0) * 100.0;
  };
  r.set("trace.admit_p50_delta_pct",
        delta(plain.latency.pct(0.5), traced.latency.pct(0.5)), "%");
  r.set("trace.decisions_per_s_delta_pct",
        delta(static_cast<double>(plain.decided) / plain.wall_s,
              static_cast<double>(traced.decided) / traced.wall_s),
        "%");
}

/// Per-layer metrics of a traced window `traced` (spans in `logs`, written
/// to <work_dir>/trace-<workload>.json) and the tracing overhead against
/// the untraced window `plain` of the same run.
void set_traced_layers(Result& r, const Window& plain, const Window& traced,
                       const std::vector<const SpanLog*>& logs,
                       const std::string& work_dir,
                       const std::string& workload) {
  set_span_layers(r, logs);
  set_common_layers(r, traced);
  set_tail_latency(r, plain);
  set_trace_overhead(r, plain, traced);
  const std::string path = work_dir + "/trace-" + workload + ".json";
  if (!write_trace(path, logs)) {
    r.checks.expect("trace_written", false, "cannot write " + path);
  }
}

/// Sets the system up `count` times (the last set-up is the one measured),
/// records the median as setup_s, then restarts the peak-RSS record so
/// peak_rss_mb covers the timed window.
template <typename SetupFn>
void set_up(Result& r, int count, SetupFn&& setup) {
  Samples seconds;
  for (int i = 0; i < count; ++i) {
    const auto start = Clock::now();
    setup();
    seconds.add(ms_between(start, Clock::now()) / 1000.0);
  }
  r.set("setup_s", seconds.pct(0.5), "s");
  r.info["peak_rss_scope"] = reset_peak_rss() ? "window" : "process";
}

// =============================================================================
// serial-mesh10k: the paper's serial manager, closed loop, one caller.
// =============================================================================

struct SerialState {
  std::unique_ptr<platform::Platform> platform;
  std::unique_ptr<core::ResourceManager> manager;
  std::deque<core::AppHandle> live;
  bool last_rejected = false;
  ShuffledBag picks{1, 1};  ///< restarted from the seed by every set-up
  std::size_t drawn = 0;    ///< apps drawn so far
  int last_pick = 0;
  Fingerprint fingerprint;  ///< over the fill + warm-up churn
};

class SerialWorkload {
 public:
  SerialWorkload(const Options& options, const Sizes& sizes)
      : options_(options),
        sizes_(sizes),
        pool_(make_dsp_pool(sizes.pool)) {}

  /// One churn step: remove the oldest app when the population is at its
  /// bound or the last request was rejected (so a full platform keeps
  /// turning over), then admit the next pick.
  template <typename OnRemove, typename OnAdmit>
  void step(SerialState& s, OnRemove&& on_remove, OnAdmit&& on_admit) {
    if (!s.live.empty() &&
        (static_cast<int>(s.live.size()) >= sizes_.serial_live ||
         s.last_rejected)) {
      const core::AppHandle victim = s.live.front();
      s.live.pop_front();
      on_remove(victim);
    }
    s.last_pick = s.picks.next();
    ++s.drawn;
    const auto start = Clock::now();
    core::AdmissionReport report =
        s.manager->admit(pool_[static_cast<std::size_t>(s.last_pick)]);
    const auto end = Clock::now();
    s.last_rejected = !report.admitted;
    if (report.admitted) s.live.push_back(report.handle);
    on_admit(report, start, end);
  }

  void setup(SerialState& s) {
    s.manager.reset();  // before the platform it points into
    s = SerialState{};
    s.platform =
        std::make_unique<platform::Platform>(make_dsp_mesh(sizes_.serial_width));
    s.manager =
        std::make_unique<core::ResourceManager>(*s.platform, mesh_config());
    s.picks = ShuffledBag(sizes_.pool, options_.seed ^ 0x5E41A1ULL);
    const auto remove = [&](core::AppHandle h) {
      (void)s.manager->remove(h);
    };
    const auto admit = [&](const core::AdmissionReport& report,
                           Clock::time_point, Clock::time_point) {
      s.fingerprint.add(report);
    };
    while (static_cast<int>(s.live.size()) < sizes_.serial_live &&
           s.drawn < 4 * static_cast<std::size_t>(sizes_.serial_live)) {
      step(s, remove, admit);
    }
    for (int i = 0; i < sizes_.serial_churn; ++i) step(s, remove, admit);
  }

  Window measure(SerialState& s, SpanLog& log, long& failed) {
    Window w;
    w.occupancy.add(occupancy(*s.platform));
    obs::Registry::global().reset();
    std::set<int> seen;  // the pool indices submitted so far this window
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       options_.seconds));
    w.start(t0, options_.seconds);
    RssQuarters rss(t0, w.quarter_s);
    const auto on_remove = [&](core::AppHandle h) {
      const auto start = Clock::now();
      const bool ok = s.manager->remove(h).ok();
      const auto end = Clock::now();
      if (!ok) ++failed;
      ++w.removes;
      log.record("remove", start, end);
    };
    const auto on_admit = [&](const core::AdmissionReport& report,
                              Clock::time_point start, Clock::time_point end) {
      count_decision(w, report, ms_between(start, end), kSerialLimitMs, end);
      if (!seen.insert(s.last_pick).second) ++w.repeats;
      const std::int64_t id = log.record("admit", start, end);
      log.record_phases(id, end, report.times, 0);
    };
    while (Clock::now() < deadline) step(s, on_remove, on_admit);
    w.wall_s = ms_between(t0, Clock::now()) / 1000.0;
    w.cpu_s = cpu_seconds() - cpu0;
    w.peak_rss_mb = rss.median_peak();
    w.registry = obs::Registry::global().snapshot();
    w.occupancy.add(occupancy(*s.platform));
    return w;
  }

  void run(Result& r) {
    SerialState state;
    std::vector<std::string> fingerprints;
    set_up(r, sizes_.setups, [&] {
      setup(state);
      fingerprints.push_back(state.fingerprint.hex());
    });
    r.info["fingerprint"] = fingerprints.back();
    r.info["fingerprint_decisions"] =
        std::to_string(state.fingerprint.decisions);
    r.checks.expect(
        "fingerprint_repeats",
        std::all_of(fingerprints.begin(), fingerprints.end(),
                    [&](const std::string& f) { return f == fingerprints[0]; }),
        "set-ups on one seed made different decisions");

    SpanLog plain_log(false, 0);
    const Window w = measure(state, plain_log, r.failed);
    r.attempted += w.requests + w.removes;
    if (options_.trace) {
      SpanLog log(true, 0);
      const Window tw = measure(state, log, r.failed);
      r.attempted += tw.requests + tw.removes;
      set_traced_layers(r, w, tw, {&log}, options_.work_dir, options_.workload);
    } else {
      set_end_to_end(r, w, true);
    }
    r.info["live_apps"] = std::to_string(state.live.size());

    // Correctness, untimed.
    const std::set<core::AppHandle> tracked(state.live.begin(),
                                            state.live.end());
    audit_ownership(*state.manager, tracked, r.checks);
    remove_all_and_expect_empty(
        [&](core::AppHandle h) { return state.manager->remove(h); }, tracked,
        *state.platform, options_.skip_remove, r.checks, r.failed);
  }

 private:
  const Options& options_;
  const Sizes& sizes_;
  std::vector<graph::Application> pool_;
};

// =============================================================================
// daemon-crisp: the socket daemon on CRISP, open loop at a fixed rate.
// =============================================================================

/// The daemon as `kairos_cli --serve --listen` assembles it: manager,
/// service at its defaults, one CommandSession per connection, the
/// telemetry plane on the same loopback listener.
class Daemon {
 public:
  Daemon()
      : platform_(platform::make_crisp_platform()),
        manager_(platform_),
        service_(manager_),
        telemetry_(obs::Registry::global(), obs::Tracer::global(),
                   obs::EventLog::global(), sampler_),
        server_(telemetry_) {
    telemetry_.set_stats_source(
        [this] { return service::service_stats_json(manager_, service_); });
    const auto session_of = [this](net::Conn& conn) {
      if (!conn.user) {
        conn.user =
            std::make_shared<service::CommandSession>(manager_, service_);
      }
      return static_cast<service::CommandSession*>(conn.user.get());
    };
    telemetry_.set_line_handler(
        [session_of](net::Conn& conn, const std::string& line) {
          std::vector<std::string> replies;
          const auto status = session_of(conn)->handle_line(line, replies);
          for (const std::string& reply : replies) conn.send_line(reply);
          if (status == service::CommandSession::Status::kPending) {
            conn.set_busy(true);
          } else if (status == service::CommandSession::Status::kQuit) {
            conn.close_after_write();
          }
        },
        [session_of](net::Conn& conn) {
          std::vector<std::string> replies;
          const bool done = session_of(conn)->poll(replies);
          for (const std::string& reply : replies) conn.send_line(reply);
          if (done) conn.set_busy(false);
        });
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }

  util::VoidResult start() {
    net::Address address;
    address.host = "127.0.0.1";
    address.port = 0;
    const auto bound = server_.listen(address);
    if (!bound.ok()) return bound;
    address.port = server_.bound_port();
    address_ = address;
    // kairos_cli arms span collection whenever it listens.
    obs::Tracer::global().start();
    server_.start();
    sampler_.start();
    return {};
  }
  void stop() {
    server_.stop();
    sampler_.stop();
    service_.stop();
  }

  const net::Address& address() const { return address_; }
  core::ResourceManager& manager() { return manager_; }
  service::AdmissionService& service() { return service_; }
  const platform::Platform& platform() const { return platform_; }

 private:
  platform::Platform platform_;
  core::ResourceManager manager_;
  service::AdmissionService service_;
  obs::TimeSeriesSampler sampler_;
  obs::TelemetryServer telemetry_;
  net::Server server_;
  net::Address address_;
};

/// The generator's line-protocol client over loopback TCP. It sends each
/// line at once (TCP_NODELAY) and acknowledges every segment it receives at
/// once (TCP_QUICKACK, re-armed after each read, since the kernel drops it).
/// The daemon writes `queued` and the verdict as separate segments without
/// TCP_NODELAY, so Nagle holds the verdict until the client acknowledges
/// `queued`; a client that delays its acknowledgements would time that
/// clock (its own next send, or the delayed-ACK timer) instead of the
/// daemon's work. README.md, "Findings", says what such a client sees.
class QuickAckClient {
 public:
  QuickAckClient() = default;
  QuickAckClient(const QuickAckClient&) = delete;
  QuickAckClient& operator=(const QuickAckClient&) = delete;
  ~QuickAckClient() { close(); }

  bool connect(const net::Address& address) {
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(static_cast<std::uint16_t>(address.port));
    if (::inet_pton(AF_INET, address.host.c_str(), &sin.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)) != 0) {
      close();
      return false;
    }
    const int on = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
    quick_ack();
    return true;
  }
  bool send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t sent = 0;
    while (fd_ >= 0 && sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return fd_ >= 0;
  }
  /// The next line (terminator stripped), or nothing once `timeout_ms`
  /// passes or the peer closes.
  std::optional<std::string> read_line(int timeout_ms) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      pollfd pfd{fd_, POLLIN, 0};
      if (fd_ < 0 || left <= 0 ||
          ::poll(&pfd, 1, static_cast<int>(left)) <= 0) {
        return std::nullopt;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
      quick_ack();
    }
  }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

 private:
  void quick_ack() {
    const int on = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &on, sizeof(on));
  }

  int fd_ = -1;
  std::string buffer_;
};

/// One line-protocol connection of the open-loop generator.
struct DaemonConn {
  QuickAckClient client;
  std::vector<std::string> files;  ///< this connection's inputs, in order
  std::size_t cursor = 0;
  std::deque<core::AppHandle> live;
  bool last_rejected = false;  ///< the latest verdict received
};

/// A command sent and not yet fully answered; replies arrive in order.
struct Outstanding {
  bool admit = true;
  Clock::time_point due;
  Clock::time_point sent;
  std::uint64_t request = 0;  ///< from "queued req=<id>"
  bool settled = false;
  bool errored = false;
};

std::int64_t field_of(const std::string& line, const char* key) {
  const std::string needle = std::string(" ") + key + "=";
  const auto at = line.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + needle.size(), nullptr, 10);
}

double ms_field(const std::string& line) {
  const auto at = line.find(" ms=");
  return at == std::string::npos ? 0.0
                                 : std::strtod(line.c_str() + at + 4, nullptr);
}

class DaemonWorkload {
 public:
  /// Fill admits per connection, as a multiple of its live bound.
  static constexpr int kFillPerBound = 2;

  DaemonWorkload(const Options& options, const Sizes& sizes)
      : options_(options), sizes_(sizes) {}

  /// Writes every input file up front (input generation is not set-up):
  /// distinct small communication apps, enough for the fills and windows.
  bool write_inputs() {
    const int windows = options_.trace ? 2 : 1;
    const int needed =
        static_cast<int>(kDaemonRate * options_.seconds * windows * 1.5) +
        sizes_.daemon_setups * kDaemonConns * sizes_.daemon_live *
            kFillPerBound +
        64;
    dir_ = options_.work_dir + "/apps-" + std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) return false;
    const auto apps = gen::make_dataset(gen::DatasetKind::kCommunicationSmall,
                                        needed, options_.seed);
    std::unordered_set<std::string> texts;
    for (int i = 0; i < needed; ++i) {
      const std::string text =
          graph::write_application(apps[static_cast<std::size_t>(i)]);
      if (!texts.insert(text).second) ++duplicate_inputs_;
      const std::string path = dir_ + "/a" + std::to_string(i) + ".app";
      std::ofstream out(path);
      out << text;
      if (!out) return false;
      files_.push_back(std::filesystem::absolute(path).string());
    }
    return true;
  }
  void remove_inputs() {
    std::error_code ec;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ec);
  }

  /// Sends one admit and reads its replies synchronously (the fill).
  bool admit_sync(DaemonConn& conn, long& failed) {
    if (conn.cursor >= conn.files.size()) return false;
    if (!conn.client.send_line("admit " + conn.files[conn.cursor++])) {
      ++failed;
      return false;
    }
    for (;;) {
      const auto line = conn.client.read_line(5000);
      if (!line) {
        ++failed;
        return false;
      }
      const std::string& text = *line;
      if (text.rfind("admitted", 0) == 0) {
        conn.live.push_back(field_of(text, "handle"));
      } else if (text.rfind("error", 0) == 0) {
        ++failed;
      } else if (text == "done") {
        return true;
      }
    }
  }

  struct Setup {
    std::unique_ptr<Daemon> daemon;
    std::vector<std::unique_ptr<DaemonConn>> conns;
  };

  bool setup(Setup& s, std::size_t& next_file, long& failed) {
    s.conns.clear();
    s.daemon.reset();
    s.daemon = std::make_unique<Daemon>();
    if (!s.daemon->start().ok()) return false;
    for (int c = 0; c < kDaemonConns; ++c) {
      auto conn = std::make_unique<DaemonConn>();
      if (!conn->client.connect(s.daemon->address())) return false;
      s.conns.push_back(std::move(conn));
    }
    // Fill: every connection admits until it holds its live bound.
    for (auto& conn : s.conns) {
      conn->files.clear();
      conn->cursor = 0;
      for (int k = 0; k < kFillPerBound * sizes_.daemon_live; ++k) {
        if (next_file < files_.size()) conn->files.push_back(files_[next_file++]);
      }
      // A fixed number of admits, not "until full": set-up time then does
      // not depend on how many of them the platform rejects.
      for (int k = 0; k < kFillPerBound * sizes_.daemon_live; ++k) {
        if (!admit_sync(*conn, failed)) break;
      }
    }
    return true;
  }

  struct ConnWindow {
    Window w;
    Samples lag;
    long errors = 0;       ///< error replies, missing replies, failed removes
    long removes_sent = 0;
    long removes_acked = 0;
    std::vector<std::uint64_t> request_ids;
    Clock::time_point last_reply;
  };

  /// One connection's open loop: sends on schedule whatever the replies
  /// do, reads replies in between, then waits for the stragglers.
  void drive(DaemonConn& conn, SpanLog& log, ConnWindow& cw,
             Clock::time_point t0, Clock::time_point deadline,
             double interval_s, double offset_s) {
    std::deque<Outstanding> outstanding;
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(interval_s));
    auto next_due = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(offset_s));
    const auto handle_line = [&](const std::string& text,
                                 Clock::time_point now) {
      if (outstanding.empty()) {
        ++cw.errors;  // a reply nobody asked for
        return;
      }
      Outstanding& head = outstanding.front();
      if (!head.admit) {
        if (text.rfind("removed", 0) == 0) {
          ++cw.removes_acked;
        } else {
          ++cw.errors;
        }
        log.record("remove", head.sent, now);
        outstanding.pop_front();
        return;
      }
      if (text.rfind("queued", 0) == 0) {
        head.request = static_cast<std::uint64_t>(field_of(text, "req"));
        cw.request_ids.push_back(head.request);
        return;
      }
      if (text.rfind("admitted", 0) == 0 || text.rfind("rejected", 0) == 0) {
        const double latency = ms_between(head.due, now);
        ++cw.w.decided;
        cw.w.add_latency(latency, head.due);
        if (latency <= kDaemonLimitMs) ++cw.w.on_time;
        // Sent -> verdict, with the reply's phase total as its child: the
        // self time is transport, session and service queue.
        const std::int64_t span =
            log.record("request", head.sent, now, head.request);
        log.record_child("service", span, now, ms_field(text), head.request);
        if (text[0] == 'a') {
          ++cw.w.admitted;
          conn.live.push_back(field_of(text, "handle"));
        } else {
          const auto at = text.find(" phase=");
          const std::string phase =
              at == std::string::npos
                  ? ""
                  : text.substr(at + 7, text.find(' ', at + 7) - at - 7);
          for (std::size_t p = 0; p < core::kPhaseCount; ++p) {
            if (phase == core::to_string(static_cast<core::Phase>(p))) {
              ++cw.w.rejected[p];
            }
          }
        }
        conn.last_rejected = text[0] != 'a';
        head.settled = true;
        cw.last_reply = now;
        return;
      }
      if (text.rfind("error", 0) == 0) {
        head.errored = true;
        return;
      }
      if (text == "done") {
        if (!head.settled || head.errored) ++cw.errors;
        outstanding.pop_front();
      }
    };
    const auto send = [&](const std::string& line) {
      if (!conn.client.send_line(line)) {
        ++cw.errors;
        return false;
      }
      return true;
    };

    for (;;) {
      auto now = Clock::now();
      if (now >= deadline) break;
      if (now >= next_due) {
        // The serial workload's churn rule: the oldest app leaves before an
        // admit once the connection holds its bound or its latest verdict
        // was a rejection, so a blocking app cannot stay forever.
        if (!conn.live.empty() &&
            (static_cast<int>(conn.live.size()) >= sizes_.daemon_live ||
             conn.last_rejected)) {
          const core::AppHandle victim = conn.live.front();
          conn.live.pop_front();
          if (send("remove " + std::to_string(victim))) {
            ++cw.removes_sent;
            outstanding.push_back({false, now, now, 0, false, false});
          }
        }
        if (conn.cursor >= conn.files.size()) {
          ++cw.errors;  // ran out of inputs: sized too small
          break;
        }
        ++cw.w.requests;
        cw.lag.add(ms_between(next_due, now));
        if (send("admit " + conn.files[conn.cursor++])) {
          outstanding.push_back({true, next_due, now, 0, false, false});
        }
        next_due += period;
        continue;
      }
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::min(next_due, deadline) - now)
                            .count();
      const auto line =
          conn.client.read_line(static_cast<int>(std::max<long>(1, wait)));
      if (line) handle_line(*line, Clock::now());
    }
    // Drain: every request sent must be answered.
    const auto give_up = Clock::now() + std::chrono::seconds(10);
    while (!outstanding.empty() && Clock::now() < give_up) {
      const auto line = conn.client.read_line(200);
      if (line) handle_line(*line, Clock::now());
    }
    cw.errors += static_cast<long>(outstanding.size());
  }

  struct DaemonWindow {
    Window w;
    Samples lag;
    Samples scrape_bytes;
    long errors = 0;
    long removes_sent = 0;
    long removes_acked = 0;
    long scrapes = 0;
    long scrape_failures = 0;
    std::vector<std::uint64_t> request_ids;
  };

  DaemonWindow measure(Setup& s, std::vector<SpanLog>& logs) {
    DaemonWindow dw;
    dw.w.occupancy.add(occupancy(s.daemon->platform()));
    obs::Registry::global().reset();
    std::vector<ConnWindow> per_conn(kDaemonConns);
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       options_.seconds));
    const double interval = kDaemonConns / kDaemonRate;
    dw.w.start(t0, options_.seconds);
    for (ConnWindow& cw : per_conn) cw.w.start(t0, options_.seconds);
    RssQuarters rss(t0, dw.w.quarter_s);
    std::vector<std::thread> threads;
    for (int c = 0; c < kDaemonConns; ++c) {
      threads.emplace_back([&, c] {
        drive(*s.conns[static_cast<std::size_t>(c)],
              logs[static_cast<std::size_t>(c)],
              per_conn[static_cast<std::size_t>(c)], t0, deadline, interval,
              interval * c / kDaemonConns);
      });
    }
    // The monitoring scraper: /metrics every kMetricsEvery and /healthz
    // every kHealthEvery, both from the window's start.
    threads.emplace_back([&] {
      SpanLog& log = logs[kDaemonConns];
      auto next_metrics = t0;
      auto next_health = t0;
      for (;;) {
        const bool health = next_health < next_metrics;
        std::this_thread::sleep_until(
            std::min(health ? next_health : next_metrics, deadline));
        if (Clock::now() >= deadline) break;
        const char* target = health ? "/healthz" : "/metrics";
        const auto start = Clock::now();
        auto got = net::http_get(s.daemon->address(), target, 2000);
        const auto end = Clock::now();
        ++dw.scrapes;
        if (!got.ok() || (!health && got.value().status != 200)) {
          ++dw.scrape_failures;
        } else if (!health) {
          dw.scrape_bytes.add(static_cast<double>(got.value().body.size()));
        }
        log.record(health ? "healthz" : "scrape", start, end);
        if (health) {
          next_health += kHealthEvery;
        } else {
          next_metrics += kMetricsEvery;
        }
      }
    });
    for (std::thread& t : threads) t.join();
    // The window ends with the last verdict received, so decisions_per_s
    // reads how long the daemon took to answer the scheduled load.
    auto last = deadline;
    for (const ConnWindow& cw : per_conn) last = std::max(last, cw.last_reply);
    dw.w.wall_s = ms_between(t0, last) / 1000.0;
    dw.w.cpu_s = cpu_seconds() - cpu0;
    dw.w.peak_rss_mb = rss.median_peak();
    s.daemon->service().drain();
    dw.w.registry = obs::Registry::global().snapshot();
    for (const ConnWindow& cw : per_conn) {
      dw.w.merge(cw.w);
      dw.lag.append(cw.lag);
      dw.errors += cw.errors;
      dw.removes_sent += cw.removes_sent;
      dw.removes_acked += cw.removes_acked;
      dw.request_ids.insert(dw.request_ids.end(), cw.request_ids.begin(),
                            cw.request_ids.end());
    }
    dw.w.occupancy.add(occupancy(s.daemon->platform()));
    return dw;
  }

  void run(Result& r) {
    if (!write_inputs()) {
      r.checks.expect("inputs_written", false, "cannot write app files");
      return;
    }
    r.info["duplicate_inputs"] = std::to_string(duplicate_inputs_);
    Setup state;
    std::size_t next_file = 0;
    bool started = true;
    set_up(r, sizes_.daemon_setups, [&] {
      started = setup(state, next_file, r.failed) && started;
    });
    r.checks.expect("daemon_started", started, "listen/connect failed");
    if (!started) {
      remove_inputs();
      return;
    }
    // The windows draw the remaining inputs, dealt round-robin.
    for (auto& conn : state.conns) {
      conn->files.clear();
      conn->cursor = 0;
    }
    for (std::size_t i = next_file; i < files_.size(); ++i) {
      state.conns[(i - next_file) % kDaemonConns]->files.push_back(files_[i]);
    }

    const auto window_checks = [&](const DaemonWindow& dw) {
      r.attempted += dw.w.requests + dw.removes_sent + dw.scrapes;
      r.failed += dw.errors + dw.scrape_failures;
      std::set<std::uint64_t> ids(dw.request_ids.begin(),
                                  dw.request_ids.end());
      r.checks.expect(
          "one_reply_per_request",
          dw.errors == 0 && ids.size() == dw.request_ids.size() &&
              static_cast<long>(ids.size()) == dw.w.requests &&
              dw.w.decided == dw.w.requests,
          std::to_string(dw.w.requests) + " sent, " +
              std::to_string(dw.w.decided) + " decided, " +
              std::to_string(ids.size()) + " distinct ids, " +
              std::to_string(dw.errors) + " errors");
      r.checks.expect("every_remove_acknowledged",
                      dw.removes_acked == dw.removes_sent,
                      std::to_string(dw.removes_acked) + " of " +
                          std::to_string(dw.removes_sent) + " acknowledged");
    };

    // One span log per generator connection plus one for the scraper.
    std::vector<SpanLog> plain_logs = make_logs(false, kDaemonConns + 1);
    const std::size_t log_mark = state.daemon->service().commit_log().size();
    const DaemonWindow dw = measure(state, plain_logs);
    window_checks(dw);
    if (options_.trace) {
      std::vector<SpanLog> logs = make_logs(true, kDaemonConns + 1);
      const DaemonWindow tw = measure(state, logs);
      window_checks(tw);
      set_traced_layers(r, dw.w, tw.w, views_of(logs), options_.work_dir,
                        options_.workload);
      // The daemon's reply carries only the admission total, so its phase
      // split is read from the program's own histograms.
      const auto& hist = tw.w.registry.histograms;
      for (const char* phase : {"binding", "mapping", "routing",
                                "validation"}) {
        const auto it =
            hist.find(std::string("admission.") + phase + "_ms");
        const obs::HistogramStats h =
            it == hist.end() ? obs::HistogramStats{} : it->second;
        r.set(std::string("core.") + phase + "_ms.mean", h.mean, "ms");
        r.set(std::string("core.") + phase + "_ms.p99", h.p99, "ms");
      }
      r.set("obs.scrape_bytes", tw.scrape_bytes.mean(), "bytes");
      r.set("gen.lag_p99_ms", tw.lag.pct(0.99), "ms");
      r.set("input.repeat_share",
            static_cast<double>(duplicate_inputs_) /
                static_cast<double>(files_.size()),
            "ratio");
    } else {
      set_end_to_end(r, dw.w, false);
      // Replies carry no hop count; the commit log's routes give the same
      // per-app average (hops per channel) for the apps admitted.
      const Samples hops = committed_hops(state, log_mark);
      r.set("mean_hops", hops.mean(), "hops");
      r.samples["mean_hops"] = static_cast<std::int64_t>(hops.count());
    }

    // Correctness, untimed: ownership over the apps the connections hold,
    // then remove everything and require an empty platform.
    std::set<core::AppHandle> tracked;
    for (const auto& conn : state.conns) {
      tracked.insert(conn->live.begin(), conn->live.end());
    }
    r.info["live_apps"] = std::to_string(tracked.size());
    audit_ownership(state.daemon->manager(), tracked, r.checks);
    check_replay(state.daemon->service(), state.daemon->manager(),
                 state.daemon->platform(), platform::make_crisp_platform(),
                 r.checks);
    remove_all_and_expect_empty(
        [&](core::AppHandle h) { return state.daemon->service().remove(h); },
        tracked, state.daemon->platform(), options_.skip_remove, r.checks,
        r.failed);
    for (auto& conn : state.conns) conn->client.close();
    state.daemon->stop();
    remove_inputs();
  }

 private:
  /// Hops per channel of each app committed after `mark` (the commit log
  /// is in registration order).
  Samples committed_hops(const Setup& s, std::size_t mark) const {
    Samples hops;
    const auto log = s.daemon->service().commit_log();
    for (std::size_t i = mark; i < log.size(); ++i) {
      const service::CommitRecord& record = log[i];
      if (record.routes.empty()) continue;
      double total = 0.0;
      for (const auto& [route, bandwidth] : record.routes) {
        total += route.hops();
      }
      hops.add(total / static_cast<double>(record.routes.size()));
    }
    return hops;
  }

  const Options& options_;
  const Sizes& sizes_;
  std::string dir_;
  std::vector<std::string> files_;
  long duplicate_inputs_ = 0;
};

// --- main ------------------------------------------------------------------------

void print_result(const Options& options, const Result& r) {
  obs::JsonWriter json(std::cout);
  json.begin_object();
  json.kv("workload", options.workload);
  json.kv("seed", static_cast<std::int64_t>(options.seed));
  json.kv("trace", options.trace);
  json.kv("correct", r.checks.all_passed());
  json.kv("attempted", static_cast<std::int64_t>(r.attempted));
  json.kv("failed", static_cast<std::int64_t>(r.failed));
  json.key("metrics");
  json.begin_object();
  for (const auto& [name, value] : r.metrics) {
    json.key(name);
    json.begin_object();
    json.kv("value", value.first);
    json.kv("unit", value.second);
    json.end_object();
  }
  json.end_object();
  json.key("samples");
  json.begin_object();
  for (const auto& [name, count] : r.samples) json.kv(name, count);
  json.end_object();
  json.key("checks");
  json.begin_object();
  for (const auto& [name, ok] : r.checks.results) json.kv(name, ok);
  json.end_object();
  json.key("failures");
  json.begin_array();
  for (const std::string& failure : r.checks.failures) json.value(failure);
  json.end_array();
  json.key("info");
  json.begin_object();
  for (const auto& [name, value] : r.info) json.kv(name, value);
  json.end_object();
  json.end_object();
  std::cout << std::endl;
}

int usage() {
  std::fprintf(stderr,
               "usage: kbench --workload serial-mesh10k|daemon-crisp "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>] [--tiny] [--skip-remove]\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--skip-remove") {
      options.skip_remove = true;
    } else if ((value = next()) == nullptr) {
      return usage();
    } else if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage();
    }
  }
  if (!(options.seconds > 0.0)) return usage();
  const Sizes& sizes = options.tiny ? kTiny : kFull;

  Result result;
  result.info["build"] = obs::build_info_line();
  result.info["nproc"] =
      std::to_string(std::thread::hardware_concurrency());
  result.info["cache"] =
      "warm: fresh process, untimed warm-up fill before the window";
  if (options.workload == "serial-mesh10k") {
    SerialWorkload(options, sizes).run(result);
  } else if (options.workload == "daemon-crisp") {
    DaemonWorkload(options, sizes).run(result);
  } else {
    return usage();
  }
  // A failed correctness check is a failed operation too.
  result.failed += static_cast<long>(result.checks.failures.size());
  print_result(options, result);
  return result.checks.all_passed() ? 0 : 1;
}

#include "obs/timeseries.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace kairos::obs {

namespace {

constexpr const char* kShardCommitPrefix = "service.commits.shard.";

double rate_per_sec(std::int64_t delta, double dt_ms) {
  if (dt_ms <= 0.0 || delta <= 0) return 0.0;
  return static_cast<double>(delta) * 1000.0 / dt_ms;
}

}  // namespace

TimeSeriesSampler::TimeSeriesSampler(Registry& registry,
                                     TimeSeriesConfig config)
    : registry_(registry),
      config_(config),
      epoch_(std::chrono::steady_clock::now()),
      ring_(config.capacity) {
  config_.interval_ms = std::max(1, config_.interval_ms);
}

TimeSeriesSampler::~TimeSeriesSampler() { stop(); }

void TimeSeriesSampler::start() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (running_.load(std::memory_order_relaxed)) return;
    stop_requested_ = false;
    running_.store(true, std::memory_order_relaxed);
  }
  thread_ = std::thread([this] { loop(); });
}

void TimeSeriesSampler::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!running_.load(std::memory_order_relaxed)) return;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_relaxed);
}

void TimeSeriesSampler::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  // Prime the counter baseline so the first emitted point covers one real
  // interval instead of the whole pre-start history.
  sample_locked();
  while (!stop_requested_) {
    stop_cv_.wait_for(lock, std::chrono::milliseconds(config_.interval_ms));
    if (stop_requested_) break;
    sample_locked();
  }
}

void TimeSeriesSampler::sample_now() {
  const std::lock_guard<std::mutex> lock(mutex_);
  sample_locked();
}

void TimeSeriesSampler::sample_locked() {
  const MetricsSnapshot snapshot = registry_.snapshot();
  const double t_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - epoch_)
                          .count();

  CounterState state;
  auto counter_of = [&snapshot](const char* name) -> std::int64_t {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  state.admissions = counter_of("service.admissions");
  state.rejections = counter_of("service.rejections");
  state.conflicts = counter_of("service.commit_conflicts");

  // Per-shard commit counters; newly seen labels append a column.
  state.shard_commits.assign(shard_labels_.size(), 0);
  const std::string prefix = kShardCommitPrefix;
  for (auto it = snapshot.counters.lower_bound(prefix);
       it != snapshot.counters.end() && it->first.compare(0, prefix.size(),
                                                          prefix) == 0;
       ++it) {
    const std::string label = it->first.substr(prefix.size());
    auto at = std::find(shard_labels_.begin(), shard_labels_.end(), label);
    std::size_t index;
    if (at == shard_labels_.end()) {
      index = shard_labels_.size();
      shard_labels_.push_back(label);
      state.shard_commits.push_back(0);
      last_.shard_commits.push_back(0);
    } else {
      index = static_cast<std::size_t>(at - shard_labels_.begin());
    }
    state.shard_commits[index] = it->second;
  }

  if (primed_) {
    TimeSeriesPoint point;
    point.t_ms = t_ms;
    point.dt_ms = t_ms - last_t_ms_;
    point.admissions_per_sec =
        rate_per_sec(state.admissions - last_.admissions, point.dt_ms);
    point.rejections_per_sec =
        rate_per_sec(state.rejections - last_.rejections, point.dt_ms);
    point.conflicts_per_sec =
        rate_per_sec(state.conflicts - last_.conflicts, point.dt_ms);
    const auto gauge_it = snapshot.gauges.find("service.queue_depth");
    point.queue_depth =
        gauge_it == snapshot.gauges.end() ? 0.0 : gauge_it->second;
    const auto hist_it = snapshot.histograms.find("service.latency_ms");
    point.p99_latency_ms =
        hist_it == snapshot.histograms.end() ? 0.0 : hist_it->second.p99;

    std::int64_t window_commits = 0;
    std::vector<std::int64_t> deltas(state.shard_commits.size(), 0);
    for (std::size_t i = 0; i < state.shard_commits.size(); ++i) {
      const std::int64_t prev =
          i < last_.shard_commits.size() ? last_.shard_commits[i] : 0;
      deltas[i] = std::max<std::int64_t>(0, state.shard_commits[i] - prev);
      window_commits += deltas[i];
    }
    if (window_commits > 0) {
      point.shard_commit_share.resize(deltas.size());
      for (std::size_t i = 0; i < deltas.size(); ++i) {
        point.shard_commit_share[i] =
            static_cast<double>(deltas[i]) / static_cast<double>(window_commits);
      }
    }

    ring_.push(std::move(point));
  }

  last_ = std::move(state);
  last_t_ms_ = t_ms;
  primed_ = true;
}

std::vector<std::string> TimeSeriesSampler::shard_labels() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return shard_labels_;
}

std::vector<TimeSeriesPoint> TimeSeriesSampler::series() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_.snapshot();
}

std::int64_t TimeSeriesSampler::evicted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_.evicted();
}

TimeSeriesPoint TimeSeriesSampler::window(std::size_t last_n) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.empty() || last_n == 0) return {};
  const std::size_t n = std::min(last_n, ring_.size());

  // Rates re-derive from event totals (rate * dt) over the combined span so
  // uneven sampling intervals weight correctly.
  double span_ms = 0.0;
  double admissions = 0.0, rejections = 0.0, conflicts = 0.0;
  for (auto it = ring_.end() - static_cast<std::ptrdiff_t>(n);
       it != ring_.end(); ++it) {
    const TimeSeriesPoint& p = *it;
    span_ms += p.dt_ms;
    admissions += p.admissions_per_sec * p.dt_ms / 1000.0;
    rejections += p.rejections_per_sec * p.dt_ms / 1000.0;
    conflicts += p.conflicts_per_sec * p.dt_ms / 1000.0;
  }

  TimeSeriesPoint out = ring_.back();  // queue depth / p99 / shares: newest
  out.dt_ms = span_ms;
  if (span_ms > 0.0) {
    out.admissions_per_sec = admissions * 1000.0 / span_ms;
    out.rejections_per_sec = rejections * 1000.0 / span_ms;
    out.conflicts_per_sec = conflicts * 1000.0 / span_ms;
  }
  return out;
}

void TimeSeriesSampler::write_json(std::ostream& out) const {
  std::vector<TimeSeriesPoint> points;
  std::vector<std::string> labels;
  std::int64_t evicted = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    points = ring_.snapshot();
    labels = shard_labels_;
    evicted = ring_.evicted();
  }
  JsonWriter json(out);
  json.begin_object();
  json.kv("interval_ms", static_cast<std::int64_t>(config_.interval_ms));
  json.kv("evicted", evicted);
  json.key("points");
  json.begin_array();
  for (const TimeSeriesPoint& p : points) {
    json.begin_object();
    json.kv("t_ms", p.t_ms);
    json.kv("dt_ms", p.dt_ms);
    json.kv("admissions_per_sec", p.admissions_per_sec);
    json.kv("rejections_per_sec", p.rejections_per_sec);
    json.kv("conflicts_per_sec", p.conflicts_per_sec);
    json.kv("queue_depth", p.queue_depth);
    json.kv("p99_latency_ms", p.p99_latency_ms);
    if (!p.shard_commit_share.empty()) {
      json.key("shard_commit_share");
      json.begin_object();
      for (std::size_t i = 0; i < p.shard_commit_share.size(); ++i) {
        const std::string label = i < labels.size() ? labels[i] : "?";
        json.kv(label, p.shard_commit_share[i]);
      }
      json.end_object();
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace kairos::obs

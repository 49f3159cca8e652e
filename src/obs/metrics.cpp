#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "obs/json.hpp"

namespace kairos::obs {

void Histogram::record(double value) const {
  if (!cell_) return;
  const std::lock_guard<std::mutex> lock(cell_->mutex);
  cell_->stats.add(value, 1.0);
}

HistogramStats Histogram::stats() const {
  HistogramStats out;
  if (!cell_) return out;
  util::WeightedStats::Sketch sorted;
  double weight = 0.0;
  {
    const std::lock_guard<std::mutex> lock(cell_->mutex);
    const util::WeightedStats& s = cell_->stats;
    out.count = static_cast<std::int64_t>(s.count());
    out.mean = s.mean();
    out.min = s.min();
    out.max = s.max();
    sorted = s.sketch();
    weight = s.weight();
  }
  // One sort for all three quantiles, outside the mutex every record() on
  // the admission path waits on.
  std::sort(sorted.begin(), sorted.end());
  out.p50 = util::WeightedStats::sorted_percentile(sorted, weight, 50.0);
  out.p95 = util::WeightedStats::sorted_percentile(sorted, weight, 95.0);
  out.p99 = util::WeightedStats::sorted_percentile(sorted, weight, 99.0);
  return out;
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& cell = counters_[name];
  if (!cell) cell = std::make_unique<std::atomic<std::int64_t>>(0);
  return Counter(cell.get());
}

Gauge Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& cell = gauges_[name];
  if (!cell) cell = std::make_unique<std::atomic<double>>(0.0);
  return Gauge(cell.get());
}

Histogram Registry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& cell = histograms_[name];
  if (!cell) cell = std::make_unique<detail::HistogramCell>();
  return Histogram(cell.get());
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, cell] : counters_) {
    cell->store(0, std::memory_order_relaxed);
  }
  for (auto& [name, cell] : gauges_) {
    cell->store(0.0, std::memory_order_relaxed);
  }
  for (auto& [name, cell] : histograms_) {
    const std::lock_guard<std::mutex> cell_lock(cell->mutex);
    cell->stats = util::WeightedStats{};
  }
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, cell] : counters_) {
    snap.counters[name] = cell->load(std::memory_order_relaxed);
  }
  for (const auto& [name, cell] : gauges_) {
    snap.gauges[name] = cell->load(std::memory_order_relaxed);
  }
  for (const auto& [name, cell] : histograms_) {
    snap.histograms[name] = Histogram(cell.get()).stats();
  }
  return snap;
}

std::string Registry::to_text() const {
  const MetricsSnapshot snap = snapshot();
  std::ostringstream out;
  for (const auto& [name, value] : snap.counters) {
    out << "counter " << name << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    out << "gauge " << name << " " << value << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    out << "histogram " << name << " count=" << h.count << " mean=" << h.mean
        << " p50=" << h.p50 << " p95=" << h.p95 << " p99=" << h.p99 << "\n";
  }
  return out.str();
}

void Registry::write_json(std::ostream& out) const {
  const MetricsSnapshot snap = snapshot();
  JsonWriter json(out);
  json.begin_object();
  json.key("counters");
  json.begin_object();
  for (const auto& [name, value] : snap.counters) json.kv(name, value);
  json.end_object();
  json.key("gauges");
  json.begin_object();
  for (const auto& [name, value] : snap.gauges) json.kv(name, value);
  json.end_object();
  json.key("histograms");
  json.begin_object();
  for (const auto& [name, h] : snap.histograms) {
    json.key(name);
    json.begin_object();
    json.kv("count", h.count);
    json.kv("mean", h.mean);
    json.kv("min", h.min);
    json.kv("max", h.max);
    json.kv("p50", h.p50);
    json.kv("p95", h.p95);
    json.kv("p99", h.p99);
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

}  // namespace kairos::obs

// The metrics registry of the observability subsystem: named counters,
// gauges and latency histograms shared by every layer (admission phases,
// the scenario engine's event loop, the mapper strategies, the sweep
// driver), with text and JSON exposition.
//
// Design constraints, in order:
//  * zero dependencies — histograms reuse util::WeightedStats, the same
//    percentile sketch the scenario statistics are built on, so the p50/p95
//    a bench reports and the p95 a sweep CSV column reports come from one
//    implementation;
//  * hot-path cheap — a Counter/Gauge handle is one raw pointer into stable
//    registry storage, and updating it is a single relaxed atomic op (no
//    lock, no lookup); name resolution (one mutex-guarded map lookup) is
//    paid when the handle is obtained, which call sites do once;
//  * thread-safe by construction — counters sum exactly across concurrent
//    writers (tested), histograms serialise their sketch behind a
//    per-histogram mutex, and stats() sorts its sketch copy outside that
//    mutex so a scrape never stalls the recorders.
//
// Registry cells are never erased: a handle, once obtained, stays valid for
// the program's lifetime. Registry::reset() zeroes values in place (bench /
// test isolation) without invalidating handles.
//
// Label policy. The registry itself is label-free — a metric is one named
// cell — but per-entity families use the dotted convention
// "<base>.shard.<k>", which the OpenMetrics exposition (obs/exposition.hpp)
// renders as one family with a {shard="k"} label. Cardinality is the
// emitter's responsibility and must be bounded up front: an emitter keyed
// by something platform-sized (shards, elements) creates exact cells only
// for a small fixed prefix of keys and aggregates the remainder into the
// single "<base>.shard.other" cell (see
// service::AdmissionService::kMaxShardMetricLabels). The cap keeps
// registry memory, snapshot cost and scrape size O(1) in platform size, at
// the price of per-key resolution in the tail — acceptable because the tail
// only exists on platforms sharded wider than any dashboard would chart.
// Never mint cells from unbounded, user-controlled strings (app names,
// request ids): those belong in log-event fields or span args, not metric
// names.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "util/stats.hpp"

namespace kairos::obs {

/// Point-in-time digest of one histogram (the JSON/text exposition unit).
struct HistogramStats {
  std::int64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Point-in-time copy of every metric in a registry.
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;
};

namespace detail {
struct HistogramCell {
  mutable std::mutex mutex;
  util::WeightedStats stats;
};
}  // namespace detail

/// Monotone event count. Handle semantics: copies observe the same cell.
class Counter {
 public:
  Counter() = default;

  void add(std::int64_t n = 1) const {
    if (cell_) cell_->fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return cell_ ? cell_->load(std::memory_order_relaxed) : 0;
  }

 private:
  friend class Registry;
  explicit Counter(std::atomic<std::int64_t>* cell) : cell_(cell) {}
  std::atomic<std::int64_t>* cell_ = nullptr;
};

/// Last-write-wins instantaneous value (e.g. live applications, queue depth).
class Gauge {
 public:
  Gauge() = default;

  void set(double v) const {
    if (cell_) cell_->store(v, std::memory_order_relaxed);
  }
  void add(double delta) const {
    if (!cell_) return;
    double expected = cell_->load(std::memory_order_relaxed);
    while (!cell_->compare_exchange_weak(expected, expected + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return cell_ ? cell_->load(std::memory_order_relaxed) : 0.0;
  }

 private:
  friend class Registry;
  explicit Gauge(std::atomic<double>* cell) : cell_(cell) {}
  std::atomic<double>* cell_ = nullptr;
};

/// Latency / size distribution backed by the util::WeightedStats percentile
/// sketch (unit weights — every recorded sample counts once).
class Histogram {
 public:
  Histogram() = default;

  void record(double value) const;
  HistogramStats stats() const;

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramCell* cell) : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

/// Named metric storage. Registry::global() is the process-wide instance
/// every built-in instrumentation point records into; embedders can also
/// construct private registries.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& global();

  /// Finds or creates the named metric; the returned handle stays valid for
  /// the registry's lifetime (cells are never erased).
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name);

  /// Zeroes every counter/gauge and clears every histogram *in place* —
  /// handles stay valid. Bench/test isolation between measured sections.
  ///
  /// Safe against concurrent recording (service worker threads may be
  /// mid-admit): counters and gauges are atomics, histograms reset under
  /// their per-cell mutex, so no write is torn and no race occurs. The
  /// boundary is per-metric, not global — a recording that races the reset
  /// lands entirely before or entirely after the zeroing of *that* metric,
  /// and concurrent writers may land between two cells' resets. Callers
  /// needing an exact cut (benches) quiesce their workers first.
  void reset();

  MetricsSnapshot snapshot() const;

  /// Plain-text exposition, one metric per line, names sorted:
  ///   counter <name> <value>
  ///   gauge <name> <value>
  ///   histogram <name> count=<n> mean=<m> p50=<v> p95=<v> p99=<v>
  std::string to_text() const;

  /// JSON exposition: {"counters":{...},"gauges":{...},"histograms":{name:
  /// {"count":..,"mean":..,"min":..,"max":..,"p50":..,"p95":..,"p99":..}}}.
  void write_json(std::ostream& out) const;

 private:
  mutable std::mutex mutex_;
  // unique_ptr cells so map growth never moves them — handles hold raw
  // pointers into this storage.
  std::map<std::string, std::unique_ptr<std::atomic<std::int64_t>>> counters_;
  std::map<std::string, std::unique_ptr<std::atomic<double>>> gauges_;
  std::map<std::string, std::unique_ptr<detail::HistogramCell>> histograms_;
};

}  // namespace kairos::obs

// Small descriptive-statistics helpers used by the experiment harnesses to
// aggregate per-sequence measurements (success rates, hop counts,
// fragmentation percentages, phase runtimes).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace kairos::util {

/// Streaming accumulator for mean / variance / min / max (Welford).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ == 0 ? 0.0 : min_; }
  double max() const { return n_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel-friendly).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Streaming accumulator for a *weighted* mean / variance / min / max plus
/// a percentile estimate — the time-average primitive of the discrete-event
/// engine: each sample is a state value weighted by how long the system
/// stayed in that state, so mean() is the time-weighted average rather than
/// the per-event average (which over-counts states that happen to see many
/// events). Samples with non-positive weight are ignored: a state that
/// persisted for zero time contributes nothing to a time average, including
/// its min/max/percentiles.
class WeightedStats {
 public:
  void add(double x, double weight);

  /// Number of positive-weight samples.
  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  /// Total accumulated weight (for the engine: covered sim-time).
  double weight() const { return weight_; }
  /// Weighted mean sum(w*x)/sum(w); 0 when no sample was accepted.
  double mean() const { return weight_ == 0.0 ? 0.0 : weighted_sum_ / weight_; }
  double min() const { return n_ == 0 ? 0.0 : min_; }
  double max() const { return n_ == 0 ? 0.0 : max_; }

  /// Weighted population variance sum(w·(x − mean)²)/sum(w), maintained
  /// with West's weighted Welford update (single pass, no catastrophic
  /// cancellation). Frequency-weight semantics — the engine's weights are
  /// durations, so this is the variance of the state *over time*, not over
  /// events. 0 with fewer than two samples.
  double variance() const;
  double stddev() const;

  /// Estimated weighted percentile, p in [0, 100]: the smallest sampled
  /// value whose cumulative weight reaches p% of the total (so
  /// percentile(95) is the level the state stayed at or below for 95% of
  /// the covered time). Exact while the sample sketch holds every sample;
  /// past the sketch capacity neighboring values are merged into weighted
  /// centroids, making the result an estimate. 0 when empty.
  double percentile(double p) const;

  /// (value, weight) centroids backing percentile(), in insertion order.
  using Sketch = std::vector<std::pair<double, double>>;
  const Sketch& sketch() const { return sketch_; }

  /// percentile()'s cumulative-weight walk over a sketch already sorted
  /// ascending, with `total_weight` = weight(). Sorting one copy and reading
  /// several p from it is bit-identical to one percentile() call per p.
  static double sorted_percentile(const Sketch& sorted, double total_weight,
                                  double p);

  /// Merges another accumulator into this one (parallel-friendly).
  void merge(const WeightedStats& other);

 private:
  void compact();

  /// Sketch bound: scenarios produce a few thousand state samples, so the
  /// percentile is usually exact; the cap only bounds pathological runs.
  static constexpr std::size_t kSketchCapacity = 8192;

  std::size_t n_ = 0;
  double weight_ = 0.0;
  double weighted_sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  /// Welford state: running weighted mean (kept separately so the pinned
  /// mean() = sum(w·x)/sum(w) expression stays bit-identical) and the
  /// weighted sum of squared deviations.
  double welford_mean_ = 0.0;
  double m2_ = 0.0;
  /// Compacted by merging value-adjacent pairs when kSketchCapacity is
  /// exceeded.
  Sketch sketch_;
};

/// Percentile of a sample (linear interpolation between closest ranks).
/// p in [0, 100]. Returns 0 for an empty sample.
double percentile(std::vector<double> values, double p);

/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& values);

/// Sample standard deviation; 0 for fewer than two samples.
double stddev(const std::vector<double>& values);

/// A fixed-width histogram over [lo, hi) with `bins` buckets; values outside
/// the range are clamped into the first / last bucket. Used by benches to
/// print distribution sketches.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bucket_count() const { return counts_.size(); }
  std::size_t count(std::size_t bucket) const { return counts_[bucket]; }
  std::size_t total() const { return total_; }
  double bucket_lo(std::size_t bucket) const;
  double bucket_hi(std::size_t bucket) const;

  /// Renders a compact ASCII sketch, one line per bucket.
  std::vector<std::pair<std::string, std::size_t>> rows() const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace kairos::util

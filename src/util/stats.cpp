#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

namespace kairos::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  mean_ += delta * m / (n + m);
  m2_ += other.m2_ + delta * delta * n * m / (n + m);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  n_ += other.n_;
}

void WeightedStats::add(double x, double weight) {
  if (!(weight > 0.0)) return;  // negated so NaN weights are rejected too
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  weight_ += weight;
  weighted_sum_ += weight * x;
  // West's weighted Welford: the update must see the *post*-update total
  // weight and use the mean both before and after the shift.
  const double delta = x - welford_mean_;
  welford_mean_ += delta * (weight / weight_);
  m2_ += weight * delta * (x - welford_mean_);
  sketch_.emplace_back(x, weight);
  if (sketch_.size() > kSketchCapacity) compact();
}

double WeightedStats::variance() const {
  if (n_ < 2 || weight_ == 0.0) return 0.0;
  return m2_ / weight_;
}

double WeightedStats::stddev() const { return std::sqrt(variance()); }

double WeightedStats::percentile(double p) const {
  // Empty (equivalently: zero total weight — add() rejects non-positive
  // weights, so n_ == 0 iff weight_ == 0): defined as 0.0.
  if (n_ == 0) return 0.0;
  Sketch sorted = sketch_;
  std::sort(sorted.begin(), sorted.end());
  return sorted_percentile(sorted, weight_, p);
}

double WeightedStats::sorted_percentile(const Sketch& sorted,
                                        double total_weight, double p) {
  if (sorted.empty()) return 0.0;
  // Clamp out-of-range requests instead of asserting: a release build fed
  // p > 100 would otherwise walk past the sketch's total weight and silently
  // report the max, and p < 0 the min — make both explicit. The comparisons
  // are negated so NaN (for which every comparison is false) lands in the
  // p = 0 branch rather than poisoning the cumulative-weight walk.
  if (!(p > 0.0)) p = 0.0;
  if (!(p < 100.0)) p = 100.0;
  const double target = p / 100.0 * total_weight;
  double cumulative = 0.0;
  for (const auto& [value, weight] : sorted) {
    cumulative += weight;
    if (cumulative >= target) return value;
  }
  return sorted.back().first;  // floating-point shortfall: the max
}

void WeightedStats::compact() {
  // Halve the sketch by fusing value-adjacent centroids: their weights add
  // and the value becomes the weighted midpoint, so total weight (and the
  // cumulative-weight walk of percentile()) stays consistent.
  std::sort(sketch_.begin(), sketch_.end());
  Sketch fused;
  fused.reserve(sketch_.size() / 2 + 1);
  for (std::size_t i = 0; i + 1 < sketch_.size(); i += 2) {
    const auto& [va, wa] = sketch_[i];
    const auto& [vb, wb] = sketch_[i + 1];
    fused.emplace_back((va * wa + vb * wb) / (wa + wb), wa + wb);
  }
  if (sketch_.size() % 2 == 1) fused.push_back(sketch_.back());
  sketch_ = std::move(fused);
}

void WeightedStats::merge(const WeightedStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  // Chan's parallel combination of the Welford accumulators.
  const double delta = other.welford_mean_ - welford_mean_;
  const double combined = weight_ + other.weight_;
  m2_ += other.m2_ + delta * delta * weight_ * other.weight_ / combined;
  welford_mean_ += delta * (other.weight_ / combined);
  n_ += other.n_;
  weight_ += other.weight_;
  weighted_sum_ += other.weighted_sum_;
  sketch_.insert(sketch_.end(), other.sketch_.begin(), other.sketch_.end());
  while (sketch_.size() > kSketchCapacity) compact();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  // Same clamping contract as WeightedStats::percentile (NaN -> p = 0).
  if (!(p > 0.0)) p = 0.0;
  if (!(p < 100.0)) p = 100.0;
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

double stddev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double s = 0.0;
  for (double v : values) s += (v - m) * (v - m);
  return std::sqrt(s / static_cast<double>(values.size() - 1));
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  assert(hi > lo);
  assert(bins > 0);
}

void Histogram::add(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<long>((x - lo_) / width);
  idx = std::clamp<long>(idx, 0, static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bucket_lo(std::size_t bucket) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bucket);
}

double Histogram::bucket_hi(std::size_t bucket) const {
  return bucket_lo(bucket + 1);
}

std::vector<std::pair<std::string, std::size_t>> Histogram::rows() const {
  std::vector<std::pair<std::string, std::size_t>> out;
  out.reserve(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "[%7.2f, %7.2f)", bucket_lo(i),
                  bucket_hi(i));
    out.emplace_back(std::string(buf), counts_[i]);
  }
  return out;
}

}  // namespace kairos::util

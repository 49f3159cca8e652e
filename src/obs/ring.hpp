// The bounded FIFO behind every in-memory telemetry buffer: the Tracer's
// span events, the EventLog's recent events and the TimeSeriesSampler's
// points. It holds the newest `capacity` items; pushing past the bound
// evicts the oldest, and every eviction is counted, so a ring never drops
// data silently.
//
// Not synchronised: each owner guards its ring with its own mutex, because
// the owners also keep state that must change under the same lock (the
// sampler's counter baseline, the log's sinks).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <utility>
#include <vector>

namespace kairos::obs {

template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : capacity_(capacity) {}

  /// Appends `item`, evicting the oldest items past the capacity (with
  /// capacity 0 the item itself is evicted at once).
  void push(T item) {
    items_.push_back(std::move(item));
    trim();
  }

  /// Re-bounds the ring; shrinking evicts the oldest items.
  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    trim();
  }

  /// Items evicted by the bound since construction or the last clear().
  std::int64_t evicted() const { return evicted_; }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  /// Oldest first.
  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }
  const T& back() const { return items_.back(); }

  /// Copy of the held items, oldest first.
  std::vector<T> snapshot() const { return {items_.begin(), items_.end()}; }

  /// Moves the held items out, oldest first; the eviction count stays.
  std::vector<T> drain() {
    std::vector<T> out(std::make_move_iterator(items_.begin()),
                       std::make_move_iterator(items_.end()));
    items_.clear();
    return out;
  }

  /// Drops the held items and zeroes the eviction count.
  void clear() {
    items_.clear();
    evicted_ = 0;
  }

 private:
  void trim() {
    while (items_.size() > capacity_) {
      items_.pop_front();
      ++evicted_;
    }
  }

  std::size_t capacity_;
  std::deque<T> items_;
  std::int64_t evicted_ = 0;
};

}  // namespace kairos::obs

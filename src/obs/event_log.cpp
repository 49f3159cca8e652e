#include "obs/event_log.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace kairos::obs {

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "info";
}

void write_log_event_json(const LogEvent& event, std::ostream& out) {
  JsonWriter json(out);
  json.begin_object();
  json.kv("ts_ms", event.ts_ms);
  json.kv("level", to_string(event.level));
  json.kv("component", event.component);
  json.kv("message", event.message);
  if (event.request_id != 0) {
    json.kv("request_id", static_cast<std::int64_t>(event.request_id));
  }
  for (const auto& [key, value] : event.fields) json.kv(key, value);
  json.end_object();
}

EventLog::EventLog() : epoch_(std::chrono::steady_clock::now()) {}

EventLog& EventLog::global() {
  static EventLog instance;
  return instance;
}

void EventLog::log(LogLevel level, const std::string& component,
                   const std::string& message,
                   std::vector<std::pair<std::string, std::string>> fields,
                   std::uint64_t request_id) {
  LogEvent event;
  event.level = level;
  event.component = component;
  event.message = message;
  event.fields = std::move(fields);
  event.request_id = request_id != 0 ? request_id : current_request_id();

  const auto now = std::chrono::steady_clock::now();
  event.ts_ms =
      std::chrono::duration<double, std::milli>(now - epoch_).count();

  const std::lock_guard<std::mutex> lock(mutex_);
  if (level < min_level_) return;

  for (Sink& sink : sinks_) {
    // Token bucket: capacity max_per_sec, refilled continuously. A burst
    // can spend the whole bucket at once; past it, events drop (counted).
    const double elapsed_s =
        std::chrono::duration<double>(now - sink.last_refill).count();
    sink.last_refill = now;
    sink.tokens =
        std::min(sink.max_per_sec, sink.tokens + elapsed_s * sink.max_per_sec);
    if (sink.tokens < 1.0) {
      ++sink.dropped;
      continue;
    }
    sink.tokens -= 1.0;
    write_log_event_json(event, *sink.out);
    *sink.out << "\n";
  }

  ring_.push(std::move(event));
}

void EventLog::set_min_level(LogLevel level) {
  const std::lock_guard<std::mutex> lock(mutex_);
  min_level_ = level;
}

LogLevel EventLog::min_level() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return min_level_;
}

void EventLog::set_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_.set_capacity(capacity);
}

void EventLog::add_sink(std::shared_ptr<std::ostream> out,
                        double max_per_sec) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Sink sink;
  sink.out = std::move(out);
  sink.max_per_sec = std::max(1.0, max_per_sec);
  sink.tokens = sink.max_per_sec;  // full bucket: bursts at startup pass
  sink.last_refill = std::chrono::steady_clock::now();
  sinks_.push_back(std::move(sink));
}

void EventLog::clear_sinks() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Sink& sink : sinks_) sink.out->flush();
  sinks_.clear();
}

std::vector<LogEvent> EventLog::recent() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_.snapshot();
}

std::int64_t EventLog::evicted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_.evicted();
}

std::int64_t EventLog::sink_dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t total = 0;
  for (const Sink& sink : sinks_) total += sink.dropped;
  return total;
}

void EventLog::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  for (Sink& sink : sinks_) sink.dropped = 0;
}

void EventLog::write_json(std::ostream& out) const {
  std::vector<LogEvent> events;
  std::int64_t evicted = 0;
  std::int64_t dropped = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    events = ring_.snapshot();
    evicted = ring_.evicted();
    for (const Sink& sink : sinks_) dropped += sink.dropped;
  }
  JsonWriter json(out);
  json.begin_object();
  json.key("events");
  json.begin_array();
  for (const LogEvent& event : events) {
    json.begin_object();
    json.kv("ts_ms", event.ts_ms);
    json.kv("level", std::string(to_string(event.level)));
    json.kv("component", event.component);
    json.kv("message", event.message);
    if (event.request_id != 0) {
      json.kv("request_id", static_cast<std::int64_t>(event.request_id));
    }
    for (const auto& [key, value] : event.fields) json.kv(key, value);
    json.end_object();
  }
  json.end_array();
  json.kv("evicted", evicted);
  json.kv("sink_dropped", dropped);
  json.end_object();
}

}  // namespace kairos::obs

// Tests for obs::EventLog: level gating, ring eviction accounting, sink
// rate limiting (token bucket), request-id pickup from the calling thread's
// RequestScope, and the /logs JSON shape.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "obs/event_log.hpp"
#include "obs/trace.hpp"

namespace kairos::obs {
namespace {

TEST(EventLogTest, RecordsEventsOldestFirst) {
  EventLog log;
  log.log(LogLevel::kInfo, "test", "first", {{"k", "v"}});
  log.log(LogLevel::kWarn, "test", "second");

  const auto events = log.recent();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].message, "first");
  EXPECT_EQ(events[0].level, LogLevel::kInfo);
  ASSERT_EQ(events[0].fields.size(), 1u);
  EXPECT_EQ(events[0].fields[0].first, "k");
  EXPECT_EQ(events[0].fields[0].second, "v");
  EXPECT_EQ(events[1].message, "second");
  EXPECT_GE(events[1].ts_ms, events[0].ts_ms);
}

TEST(EventLogTest, MinLevelDiscardsAtTheDoor) {
  EventLog log;
  log.set_min_level(LogLevel::kWarn);
  log.log(LogLevel::kDebug, "test", "dropped");
  log.log(LogLevel::kInfo, "test", "dropped too");
  log.log(LogLevel::kWarn, "test", "kept");
  log.log(LogLevel::kError, "test", "kept too");

  const auto events = log.recent();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].message, "kept");
  EXPECT_EQ(events[1].message, "kept too");
}

TEST(EventLogTest, RingEvictsOldestAndCounts) {
  EventLog log;
  log.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    log.log(LogLevel::kInfo, "test", "event " + std::to_string(i));
  }
  const auto events = log.recent();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().message, "event 6");
  EXPECT_EQ(events.back().message, "event 9");
  EXPECT_EQ(log.evicted(), 6);

  // Shrinking evicts the oldest and counts them too.
  log.set_capacity(1);
  ASSERT_EQ(log.recent().size(), 1u);
  EXPECT_EQ(log.recent().front().message, "event 9");
  EXPECT_EQ(log.evicted(), 9);

  // Capacity 0 keeps nothing, and every event still counts.
  log.set_capacity(0);
  log.log(LogLevel::kInfo, "test", "unkept");
  EXPECT_TRUE(log.recent().empty());
  EXPECT_EQ(log.evicted(), 11);

  // Events below the level never reach the ring, so they are not evictions.
  log.set_min_level(LogLevel::kWarn);
  log.log(LogLevel::kInfo, "test", "gated");
  EXPECT_EQ(log.evicted(), 11);
}

TEST(EventLogTest, SinkRateLimitDropsBeyondBudgetAndCounts) {
  EventLog log;
  auto sink = std::make_shared<std::ostringstream>();
  log.add_sink(sink, /*max_per_sec=*/5.0);

  // A burst spends the full bucket (5 tokens) at once; the rest of the
  // burst drops. Refill over the microseconds this loop takes is << 1 token.
  for (int i = 0; i < 50; ++i) log.log(LogLevel::kInfo, "test", "burst");

  EXPECT_GE(log.sink_dropped(), 40);
  // Everything still lands in the ring — the limit protects the sink only.
  EXPECT_EQ(log.recent().size(), 50u);

  // Each written line is one JSON object.
  std::istringstream lines(sink->str());
  std::string line;
  int written = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++written;
  }
  EXPECT_EQ(written + log.sink_dropped(), 50);
  log.clear_sinks();
}

TEST(EventLogTest, PicksUpRequestScopeOfTheCallingThread) {
  EventLog log;
  log.log(LogLevel::kInfo, "test", "outside");
  {
    const RequestScope scope(42);
    log.log(LogLevel::kInfo, "test", "inside");
    // An explicit id wins over the ambient scope.
    log.log(LogLevel::kInfo, "test", "explicit", {}, 7);
  }
  log.log(LogLevel::kInfo, "test", "after");

  const auto events = log.recent();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].request_id, 0u);
  EXPECT_EQ(events[1].request_id, 42u);
  EXPECT_EQ(events[2].request_id, 7u);
  EXPECT_EQ(events[3].request_id, 0u);
}

TEST(EventLogTest, WriteJsonCarriesEventsAndCounters) {
  EventLog log;
  log.set_capacity(1);
  log.log(LogLevel::kWarn, "svc", "evicted soon");
  {
    const RequestScope scope(9);
    log.log(LogLevel::kError, "svc", "boom", {{"shard", "3"}});
  }

  std::ostringstream out;
  log.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"events\":["), std::string::npos);
  EXPECT_NE(json.find("\"level\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"message\":\"boom\""), std::string::npos);
  EXPECT_NE(json.find("\"request_id\":9"), std::string::npos);
  EXPECT_NE(json.find("\"shard\":\"3\""), std::string::npos);
  EXPECT_NE(json.find("\"evicted\":1"), std::string::npos);
  EXPECT_NE(json.find("\"sink_dropped\":0"), std::string::npos);
  // The evicted event is gone from the payload.
  EXPECT_EQ(json.find("evicted soon"), std::string::npos);
}

TEST(EventLogTest, ResetClearsRingButKeepsSinks) {
  EventLog log;
  auto sink = std::make_shared<std::ostringstream>();
  log.add_sink(sink, 1000.0);
  log.log(LogLevel::kInfo, "test", "before");
  log.reset();
  EXPECT_TRUE(log.recent().empty());
  EXPECT_EQ(log.evicted(), 0);

  log.log(LogLevel::kInfo, "test", "after");
  EXPECT_NE(sink->str().find("after"), std::string::npos);
  log.clear_sinks();
}

}  // namespace
}  // namespace kairos::obs

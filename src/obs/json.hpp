// Minimal JSON emission and validation for the observability outputs
// (metrics exposition, Chrome trace-event files, benchmark results).
//
// The library is zero-dependency by design, so this is a deliberately small
// streaming writer — enough structure for flat-ish machine-readable records,
// not a general serialisation framework. The companion json_valid() is the
// checker the tests and bench harnesses use to guarantee every emitted
// document actually parses (a malformed result would silently break the
// tooling that reads it downstream).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace kairos::obs {

/// Escapes a string for use inside a JSON string literal (quotes not
/// included): control characters, quotes and backslashes per RFC 8259.
std::string json_escape(const std::string& text);

/// Streaming JSON writer with automatic comma placement. Usage:
///
///   JsonWriter json(out);
///   json.begin_object();
///   json.key("name"); json.value("kairos");
///   json.key("metrics"); json.begin_array(); ... json.end_array();
///   json.end_object();
///
/// Values written where JSON requires finite numbers are clamped: NaN and
/// infinities (which RFC 8259 cannot represent) are emitted as 0.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(&out) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  void key(const std::string& name);
  void value(const std::string& text);
  void value(const char* text) { value(std::string(text)); }
  void value(double number);
  void value(std::int64_t number);
  void value(bool flag);

  /// key(name) + value(v) in one call.
  template <typename T>
  void kv(const std::string& name, const T& v) {
    key(name);
    value(v);
  }

 private:
  /// Emits the separating comma when this is not the first element of the
  /// enclosing container, and marks the container non-empty.
  void element();

  std::ostream* out_;
  /// One frame per open container: true until its first element is written.
  std::vector<bool> first_;
  /// True immediately after key() — the next value is the key's, no comma.
  bool after_key_ = false;
};

/// Validates that `text` is one well-formed JSON document (objects, arrays,
/// strings, numbers, booleans, null; trailing garbage rejected). On failure
/// returns false and, when `error` is non-null, stores a short description
/// with the byte offset. This is a structural check, not a schema check.
bool json_valid(const std::string& text, std::string* error = nullptr);

}  // namespace kairos::obs

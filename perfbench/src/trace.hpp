// Spans the benchmark records around its own calls into each layer's
// public functions (the library is not instrumented further). A span has a
// name ("<layer>.<what>"), start, end, the span that caused it (the
// innermost open span on the same thread) and the workload. Spans are kept
// in memory and written as one chrome://tracing JSON file when the run
// ends. With tracing off a Span still times itself, but records nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = a root span
  std::uint32_t thread = 0;
  std::string name;
  double start_us = 0.0;  // since the tracer was enabled
  double end_us = 0.0;
};

class Tracer {
 public:
  static Tracer& global();

  void enable(std::string workload);
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::string& workload() const { return workload_; }

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  [[nodiscard]] std::string chrome_json() const;
  /// Writes chrome_json() to `path`; false on an I/O error.
  bool write(const std::string& path) const;

 private:
  friend class Span;
  std::uint64_t open(const std::string& name, Clock::time_point start);
  void close(std::uint64_t id, Clock::time_point end);

  bool enabled_ = false;
  std::string workload_;
  Clock::time_point origin_{};
};

class Span {
 public:
  explicit Span(std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span now (idempotent) and returns its duration in seconds.
  double stop();

 private:
  std::string name_;
  Clock::time_point start_;
  std::uint64_t id_ = 0;
  double seconds_ = -1.0;
};

/// Calls fn() `calls` times, each in its own span `name`; returns the
/// per-call wall times in seconds.
template <typename F>
std::vector<double> timed_calls(const std::string& name, int calls, F&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(calls));
  for (int k = 0; k < calls; ++k) {
    Span span(name);
    fn(k);
    times.push_back(span.stop());
  }
  return times;
}

}  // namespace perfbench

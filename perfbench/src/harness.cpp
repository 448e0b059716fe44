#include "harness.hpp"

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <utility>

namespace perfbench {

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

void Report::fail(const std::string& what) {
  ++failed_;
  std::cerr << "perfbench: FAILED: " << what << "\n";
}

bool Report::check(const std::string& problem) {
  if (problem.empty()) return true;
  fail(problem);
  return false;
}

void Report::metric(std::string name, double value, std::string unit,
                    std::string base) {
  metrics_.push_back(
      {std::move(name), value, std::move(unit), std::move(base)});
}

std::string Report::table() const {
  std::ostringstream out;
  for (const Metric& m : metrics_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.6g", m.value);
    out << "  " << m.name << " = " << value << " " << m.unit;
    if (!m.base.empty()) out << "  [" << m.base << "]";
    out << "\n";
  }
  return out.str();
}

std::string Report::json_line() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics_[i].name) + ": {\"value\": " +
           number(metrics_[i].value) +
           ", \"unit\": " + quoted(metrics_[i].unit) + "}";
  }
  return out + "}}";
}

double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

void keep(double value) {
  static std::atomic<double> sink{0.0};
  sink.store(value, std::memory_order_relaxed);
}

}  // namespace perfbench

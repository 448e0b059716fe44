// Run configuration, the per-run report (operations, failures, metrics) and
// the timing helpers every workload shares.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured run length; each workload repeats whole rounds until it has
  /// elapsed (always at least one round).
  double seconds = 10.0;
  /// false: end-to-end metrics, untraced. true: one traced round plus the
  /// layer probes, per-layer metrics and a chrome-trace file.
  bool trace = false;
  /// The agedtrd binary (agedtrd_mix and the service probes).
  std::string agedtrd;
  /// Directory inside the checkout for sockets, daemon logs and traces.
  std::string work_dir;
  /// Load-generating threads and connections (nproc).
  std::size_t threads = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// What the number was measured on (printed, not part of the JSON line).
  std::string base;
};

class Report {
 public:
  /// Counts `n` attempted operations.
  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// Records a failed operation (an error or a failed output check); the
  /// reason goes to stderr at once.
  void fail(const std::string& what);
  /// Empty `problem` = the check passed; otherwise fail(problem).
  bool check(const std::string& problem);

  void metric(std::string name, double value, std::string unit,
              std::string base = "");

  [[nodiscard]] bool correct() const { return failed_ == 0; }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

  /// Human-readable metric table (name, value, unit, base).
  [[nodiscard]] std::string table() const;
  /// The one-line result: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json_line() const;

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<Metric> metrics_;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set of this process so far, in MB (10^6 bytes).
[[nodiscard]] double self_peak_rss_mb();

/// Keeps `value` observable so a timed loop is not optimized away.
void keep(double value);

/// Calls round() until `seconds` have elapsed since the first call; always
/// at least once. Returns the number of rounds and the elapsed seconds.
struct RoundsResult {
  std::size_t rounds = 0;
  double elapsed = 0.0;
};
template <typename F>
RoundsResult run_rounds(double seconds, F&& round) {
  RoundsResult result;
  const Clock::time_point start = Clock::now();
  do {
    round(result.rounds);
    ++result.rounds;
    result.elapsed = seconds_since(start);
  } while (result.elapsed < seconds);
  return result;
}

/// Repeats setup(k) for k = 0..repeats-1 and returns the median wall time
/// in seconds; the last repetition's effects are what the workload keeps.
template <typename F>
double median_setup_seconds(int repeats, F&& setup) {
  std::vector<double> times;
  for (int k = 0; k < repeats; ++k) {
    const Clock::time_point start = Clock::now();
    setup(k);
    times.push_back(seconds_since(start));
  }
  return median(std::move(times));
}

}  // namespace perfbench

// Summary statistics the benchmark computes itself, independent of the
// library's stats module, so its checks do not lean on the code under test.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench {

struct Interval {
  double lower = 0.0;
  double upper = 0.0;

  [[nodiscard]] double center() const { return 0.5 * (lower + upper); }
  [[nodiscard]] bool contains(double x) const {
    return lower <= x && x <= upper;
  }
};

/// True when the closed intervals [a.lower, a.upper] and [lo, hi] meet.
[[nodiscard]] inline bool overlaps(const Interval& a, double lo, double hi) {
  return a.lower <= hi && lo <= a.upper;
}

/// The p-quantile (p in [0, 1]) by linear interpolation between closest
/// ranks: position p·(n−1) in the sorted sample (Hyndman–Fan type 7, the
/// default of R and NumPy).
[[nodiscard]] inline double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) throw std::invalid_argument("percentile: empty sample");
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("percentile: p must lie in [0, 1]");
  }
  std::sort(sample.begin(), sample.end());
  const double pos = p * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sample[lo] + frac * (sample[hi] - sample[lo]);
}

[[nodiscard]] inline double median(std::vector<double> sample) {
  return percentile(std::move(sample), 0.5);
}

/// mean ± z·s/√n with the unbiased sample standard deviation; n >= 2.
[[nodiscard]] inline Interval mean_interval(const std::vector<double>& sample,
                                            double z) {
  if (sample.size() < 2) {
    throw std::invalid_argument("mean_interval: need at least two samples");
  }
  double mean = 0.0;
  for (const double x : sample) mean += x;
  mean /= static_cast<double>(sample.size());
  double ss = 0.0;
  for (const double x : sample) ss += (x - mean) * (x - mean);
  const double sd = std::sqrt(ss / static_cast<double>(sample.size() - 1));
  const double half = z * sd / std::sqrt(static_cast<double>(sample.size()));
  return {mean - half, mean + half};
}

/// Wilson score interval for `successes` out of `n` trials at z standard
/// errors (z = 1.96 is the usual 95 % interval).
[[nodiscard]] inline Interval wilson_interval(std::size_t successes,
                                              std::size_t n, double z) {
  if (n == 0 || successes > n) {
    throw std::invalid_argument("wilson_interval: need 0 <= successes <= n, "
                                "n >= 1");
  }
  const double nn = static_cast<double>(n);
  const double p = static_cast<double>(successes) / nn;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / nn;
  const double center = (p + z2 / (2.0 * nn)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn)) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

}  // namespace perfbench

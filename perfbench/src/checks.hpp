// Output checks. Each returns an empty string when the output passes and a
// one-line description of the problem otherwise. They compare against
// computations the benchmark makes itself or against properties the method
// must have, never against saved output.
#pragma once

#include <string>
#include <vector>

#include "agedtr/core/scenario.hpp"
#include "stats.hpp"

namespace perfbench {

/// A reallocation policy is feasible: every entry >= 0, the diagonal is 0,
/// and server i sends at most its m_i tasks in total.
[[nodiscard]] std::string check_policy_feasible(
    const agedtr::core::DtrPolicy& policy, const std::vector<int>& tasks);

/// Two policies are identical entry by entry.
[[nodiscard]] std::string check_same_policy(const agedtr::core::DtrPolicy& a,
                                            const agedtr::core::DtrPolicy& b);

/// `what`'s interval meets [lo, hi].
[[nodiscard]] std::string check_overlap(const std::string& what,
                                        const Interval& interval, double lo,
                                        double hi);

/// lo - slack <= value <= hi + slack.
[[nodiscard]] std::string check_inside(const std::string& what, double value,
                                       double lo, double hi,
                                       double slack = 0.0);

/// value < limit.
[[nodiscard]] std::string check_below(const std::string& what, double value,
                                      double limit);

/// |got - expected| <= rtol·max(|expected|, 1e-300) (and both finite).
[[nodiscard]] std::string check_close(const std::string& what, double got,
                                      double expected, double rtol);

/// A daemon reply (JSON text) is well-formed, has status "ok" and carries
/// `expected_id`. On success `value` receives the reply's "value" field
/// when there is one.
[[nodiscard]] std::string check_reply(const std::string& reply_text,
                                      const std::string& expected_id,
                                      double* value = nullptr);

/// A search optimum is no worse than every grid value the benchmark
/// evaluated itself (within rtol), for a minimized or maximized objective.
[[nodiscard]] std::string check_search_optimum(
    double optimum, const std::vector<double>& grid_values, bool maximize,
    double rtol);

}  // namespace perfbench

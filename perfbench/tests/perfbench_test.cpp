// Unit tests of the benchmark's own helpers and output checks. Each check
// is shown to accept a correct output and to reject a perturbed one.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "agedtr/policy/two_server.hpp"
#include "checks.hpp"
#include "inputs.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using agedtr::core::DtrPolicy;

TEST(Percentile, KnownSamples) {
  // Type-7 quantiles of 1..5: position p·(n−1).
  const std::vector<double> xs = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.99), 4.96);
  EXPECT_DOUBLE_EQ(median({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
  // 1..100: the 99th percentile sits at position 98.01.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_NEAR(percentile(hundred, 0.99), 99.01, 1e-12);
  EXPECT_THROW((void)percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)percentile(xs, 1.5), std::invalid_argument);
}

TEST(MeanInterval, KnownSample) {
  // mean 5, sample sd sqrt(32/7) for {2,4,4,4,5,5,7,9}.
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  const Interval ci = mean_interval(xs, 2.0);
  const double half = 2.0 * std::sqrt(32.0 / 7.0) / std::sqrt(8.0);
  EXPECT_NEAR(ci.lower, 5.0 - half, 1e-12);
  EXPECT_NEAR(ci.upper, 5.0 + half, 1e-12);
  EXPECT_THROW((void)mean_interval({1.0}, 2.0), std::invalid_argument);
}

TEST(WilsonInterval, KnownSamples) {
  // 8 of 10 at the exact 95 % quantile: [0.4901625, 0.9433178], the
  // textbook Wilson (1927) interval for this sample.
  const Interval w = wilson_interval(8, 10, 1.959963984540054);
  EXPECT_NEAR(w.lower, 0.4901625, 1e-6);
  EXPECT_NEAR(w.upper, 0.9433178, 1e-6);
  // 0 of 20 keeps a positive upper end: z²/(n + z²).
  const Interval zero = wilson_interval(0, 20, 1.96);
  EXPECT_DOUBLE_EQ(zero.lower, 0.0);
  EXPECT_NEAR(zero.upper, 1.96 * 1.96 / (20 + 1.96 * 1.96), 1e-12);
  // Wider at more standard errors.
  const Interval wide = wilson_interval(800, 1000, 4.0);
  const Interval narrow = wilson_interval(800, 1000, 1.96);
  EXPECT_LT(wide.lower, narrow.lower);
  EXPECT_GT(wide.upper, narrow.upper);
  EXPECT_THROW((void)wilson_interval(3, 2, 1.96), std::invalid_argument);
}

TEST(Checks, PolicyFeasibility) {
  DtrPolicy policy(3);
  policy.set(0, 1, 10);
  policy.set(0, 2, 5);
  policy.set(2, 1, 4);
  EXPECT_EQ(check_policy_feasible(policy, {15, 0, 4}), "");
  // Server 0 sends 15 tasks but holds 14.
  EXPECT_NE(check_policy_feasible(policy, {14, 0, 4}), "");
  // Wrong system size.
  EXPECT_NE(check_policy_feasible(policy, {15, 0}), "");
}

TEST(Checks, SamePolicy) {
  const DtrPolicy a = agedtr::policy::make_two_server_policy(3, 0);
  const DtrPolicy b = agedtr::policy::make_two_server_policy(3, 1);
  EXPECT_EQ(check_same_policy(a, a), "");
  EXPECT_NE(check_same_policy(a, b), "");
}

TEST(Checks, IntervalsAndBrackets) {
  // MC 177.15 ± 0.3 inside the [166.26, 178.90] bracket; a mean pushed
  // above the bracket is rejected.
  EXPECT_EQ(check_overlap("mc", {176.85, 177.45}, 166.26, 178.90), "");
  EXPECT_NE(check_overlap("mc", {179.0, 179.6}, 166.26, 178.90), "");
  EXPECT_EQ(check_inside("mean", 18.198, 18.06, 19.92), "");
  EXPECT_NE(check_inside("mean", 20.5, 18.06, 19.92, 0.4), "");
  EXPECT_EQ(check_inside("mean", 20.2, 18.06, 19.92, 0.4), "");
  EXPECT_EQ(check_below("tbar", 178.9, 203.4), "");
  EXPECT_NE(check_below("tbar", 203.4, 203.4), "");
}

TEST(Checks, ReplyValueOffByOneMillionth) {
  const double expected = 12.345678901234567;
  EXPECT_EQ(check_close("value", expected, expected, 1e-9), "");
  EXPECT_EQ(check_close("value", expected * (1 + 1e-12), expected, 1e-9), "");
  EXPECT_NE(check_close("value", expected + 1e-6, expected, 1e-9), "");
}

TEST(Checks, ReplyIdAndStatus) {
  const std::string ok =
      R"({"id": "c0-1-2", "status": "ok", "kind": "evaluate", "value": 3.5})";
  double value = 0.0;
  EXPECT_EQ(check_reply(ok, "c0-1-2", &value), "");
  EXPECT_DOUBLE_EQ(value, 3.5);
  // A mismatched id, a non-ok status and bytes that are not JSON.
  EXPECT_NE(check_reply(ok, "c0-1-3"), "");
  EXPECT_NE(check_reply(R"({"id": "x", "status": "overloaded"})", "x"), "");
  EXPECT_NE(check_reply("not json", "x"), "");
  EXPECT_NE(check_reply(R"({"id": "x", "status": "ok"})", "x", &value), "");
}

TEST(Checks, SearchOptimum) {
  const std::vector<double> grid = {5.0, 4.0, 4.5, 6.0};
  EXPECT_EQ(check_search_optimum(4.0, grid, false, 1e-9), "");
  EXPECT_NE(check_search_optimum(4.5, grid, false, 1e-9), "");
  EXPECT_EQ(check_search_optimum(6.0, grid, true, 1e-9), "");
  EXPECT_NE(check_search_optimum(5.0, grid, true, 1e-9), "");
}

TEST(Inputs, SameSeedSameInputs) {
  const MixInputs a = make_mix_inputs(7);
  const MixInputs b = make_mix_inputs(7);
  const MixInputs c = make_mix_inputs(8);
  ASSERT_EQ(a.evaluate_pool.size(), 12u);
  EXPECT_EQ(a.evaluate_pool[3].mean1, b.evaluate_pool[3].mean1);
  EXPECT_NE(a.evaluate_pool[3].mean1, c.evaluate_pool[3].mean1);
  const FleetInputs f = make_fleet_inputs(7);
  EXPECT_EQ(f.scenario.size(), kFleetServers);
  EXPECT_EQ(f.total_tasks, 1344);
  EXPECT_EQ(check_policy_feasible(
                f.policy, [&] {
                  std::vector<int> m;
                  for (const auto& s : f.scenario.servers) {
                    m.push_back(s.initial_tasks);
                  }
                  return m;
                }()),
            "");
}

}  // namespace
}  // namespace perfbench

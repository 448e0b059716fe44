// replication_study: sim::run_replication_study on replication_bench
// --smoke's scenario at factor 1. One round is the intensity-0 cell then
// the intensity-2 cell, each its own run_replication_study call (the study
// memoizes bounds per (factor, slowdown) key, which the two cells never
// share, so the split does the same work as the joint grid).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "agedtr/core/convolution.hpp"
#include "agedtr/sim/replication_study.hpp"
#include "agedtr/util/thread_pool.hpp"
#include "checks.hpp"
#include "inputs.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace agedtr;

namespace {

/// replication_bench's bracket slack on the MC mean, and the same rule on
/// the QoS with a Wilson half-width in place of the mean's.
double mean_slack(const sim::ReplicationStudyRow& row) {
  return 0.02 * std::max(row.mc_mean, 1.0) + 1.5 * row.mc_mean_halfwidth;
}
double qos_slack(const sim::ReplicationStudyRow& row, std::size_t reps) {
  const auto successes =
      static_cast<std::size_t>(std::llround(row.mc_qos * static_cast<double>(reps)));
  const Interval w = wilson_interval(successes, reps, 1.96);
  return 0.02 + 1.5 * 0.5 * (w.upper - w.lower);
}

}  // namespace

void run_replication_study(const RunConfig& config, Report& report) {
  ThreadPool& pool = ThreadPool::global();
  StudyInputs in;
  double exact_mean = 0.0;
  EndToEnd e2e;
  e2e.setup_s = median_setup_seconds(config.trace ? 1 : 3, [&](int) {
    in = make_study_inputs(config.seed, &pool);
    const core::ConvolutionSolver solver;
    exact_mean =
        solver.mean_execution_time(core::apply_policy(in.scenario, in.policy));
  });

  const auto round = [&](std::size_t) {
    for (int cell = 0; cell < 2; ++cell) {
      report.attempt();
      sim::ReplicationStudyOptions options = in.options;
      options.slowdown_intensities = {kStudyIntensities[cell]};
      try {
        Span span(cell == 0 ? "sim.run_replication_study.intensity0"
                            : "sim.run_replication_study.intensity2");
        const std::vector<sim::ReplicationStudyRow> rows =
            sim::run_replication_study(in.scenario, in.policy, options);
        (cell == 0 ? e2e.a_seconds : e2e.b_seconds).push_back(span.stop());
        e2e.work_items += 1;
        if (rows.size() != 1) {
          report.fail("replication study returned " +
                      std::to_string(rows.size()) + " rows, expected 1");
          continue;
        }
        const sim::ReplicationStudyRow& row = rows[0];
        const std::string name =
            "cell factor 1 intensity " + std::to_string(cell == 0 ? 0 : 2);
        report.check(check_inside(name + " MC mean", row.mc_mean,
                                  row.bound_lower, row.bound_upper,
                                  mean_slack(row)));
        report.check(check_inside(name + " MC QoS", row.mc_qos, row.qos_lower,
                                  row.qos_upper,
                                  qos_slack(row, options.replications)));
        if (!(row.bound_lower <= row.bound_upper)) {
          report.fail(name + ": mean bounds inverted");
        }
        if (!(row.qos_lower <= row.qos_upper)) {
          report.fail(name + ": QoS bounds inverted");
        }
        if (cell == 0) {
          report.check(check_inside(name + " exact T-bar", exact_mean,
                                    row.bound_lower, row.bound_upper));
        }
        std::printf("replication_study: %s: MC mean %.4f in [%.4f, %.4f], "
                    "QoS %.4f in [%.4f, %.4f], exact T-bar %.4f\n",
                    name.c_str(), row.mc_mean, row.bound_lower,
                    row.bound_upper, row.mc_qos, row.qos_lower, row.qos_upper,
                    exact_mean);
      } catch (const std::exception& e) {
        report.fail(std::string("run_replication_study threw: ") + e.what());
      }
    }
  };

  if (config.trace) {
    run_traced_rounds(config, round, report);
    return;
  }
  const RoundsResult rounds = run_rounds(config.seconds, round);
  e2e.measured_seconds = rounds.elapsed;
  e2e.peak_rss_mb = self_peak_rss_mb();
  report_end_to_end(e2e, report);
}

}  // namespace perfbench

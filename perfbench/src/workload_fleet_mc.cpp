// fleet_mc: Monte-Carlo of the Eq. (5) fair-share policy on a 64-server
// fleet. One round is a plain batch then a replicated batch of kFleetBatch
// trajectories each, on the process-wide nproc-thread pool.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "agedtr/core/convolution.hpp"
#include "agedtr/random/rng.hpp"
#include "agedtr/sim/monte_carlo.hpp"
#include "agedtr/util/thread_pool.hpp"
#include "checks.hpp"
#include "inputs.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace agedtr;

namespace {

/// Standard errors the reliability CI is widened by before it is compared
/// with the solver's bracket.
constexpr double kCheckZ = 4.0;
/// Trajectories compared between a 1-thread and an nproc-thread pool.
constexpr std::size_t kPrefix = 256;
/// Single trajectories whose served-task count is checked, per half.
constexpr std::size_t kServedSamples = 16;
constexpr std::size_t kReferenceCells = 8192;

sim::MonteCarloOptions batch_options(const sim::SimulatorOptions& simulator,
                                     std::size_t replications,
                                     std::uint64_t seed, ThreadPool* pool) {
  sim::MonteCarloOptions mc;
  mc.replications = replications;
  mc.seed = seed;
  mc.pool = pool;
  mc.simulator = simulator;
  mc.stream_split = sim::StreamSplit::kCounter;
  return mc;
}

bool same_interval(const stats::ConfidenceInterval& a,
                   const stats::ConfidenceInterval& b) {
  return a.center == b.center && a.lower == b.lower && a.upper == b.upper;
}

/// Every field of two Monte-Carlo summaries, bit for bit.
std::string compare_metrics(const sim::MonteCarloMetrics& a,
                            const sim::MonteCarloMetrics& b) {
  const sim::FaultStats& fa = a.fault_totals;
  const sim::FaultStats& fb = b.fault_totals;
  const bool same =
      a.replications == b.replications && a.completed == b.completed &&
      a.truncated == b.truncated && a.all_completed == b.all_completed &&
      same_interval(a.reliability, b.reliability) &&
      same_interval(a.qos, b.qos) &&
      same_interval(a.mean_completion_time, b.mean_completion_time) &&
      a.mean_busy_time == b.mean_busy_time &&
      a.replicas_cancelled == b.replicas_cancelled &&
      fa.group_retransmissions == fb.group_retransmissions &&
      fa.fn_retransmissions == fb.fn_retransmissions &&
      fa.tasks_lost_in_network == fb.tasks_lost_in_network &&
      fa.fn_packets_dropped == fb.fn_packets_dropped &&
      fa.shocks == fb.shocks && fa.shock_failures == fb.shock_failures &&
      fa.stalls == fb.stalls && fa.total_stall_time == fb.total_stall_time &&
      fa.slowdowns == fb.slowdowns &&
      fa.total_slowdown_time == fb.total_slowdown_time;
  return same ? "" : "Monte-Carlo metrics differ between 1 and nproc threads";
}

/// Completed trajectories must have served all M tasks. Without
/// replication every task is served once; with factor-2 replication a task
/// can also be completed by the replica that later loses its unit's race
/// (SimResult::tasks_served counts completed work), so the count lies in
/// [M, 2M].
std::string check_served(const FleetInputs& in,
                         const sim::SimulatorOptions& options,
                         std::uint64_t seed, const char* half) {
  const sim::DcsSimulator simulator(in.scenario, options);
  const long long most =
      static_cast<long long>(in.total_tasks) *
      static_cast<long long>(
          options.replication ? options.replication->max_factor() : 1);
  for (std::size_t r = 0; r < kServedSamples; ++r) {
    random::Rng rng = random::make_counter_rng(seed, r);
    const sim::SimResult result = simulator.run(in.policy, rng);
    if (!result.completed) continue;
    long long served = 0;
    for (const int n : result.tasks_served) served += n;
    if (served < in.total_tasks || served > most) {
      return std::string(half) + " trajectory " + std::to_string(r) +
             " completed having served " + std::to_string(served) +
             " tasks, outside [" + std::to_string(in.total_tasks) + ", " +
             std::to_string(most) + "]";
    }
  }
  return "";
}

}  // namespace

void run_fleet_mc(const RunConfig& config, Report& report) {
  ThreadPool& pool = ThreadPool::global();
  FleetInputs in;
  double r_lo = 0.0;
  double r_hi = 0.0;
  EndToEnd e2e;
  e2e.setup_s = median_setup_seconds(config.trace ? 1 : 3, [&](int) {
    in = make_fleet_inputs(config.seed);
    // Independent reference: the exact solver's reliability under both
    // multi-group batch approximations, which bracket the truth.
    double r[2];
    const core::ConvolutionOptions::MultiGroup modes[2] = {
        core::ConvolutionOptions::MultiGroup::kBatchMin,
        core::ConvolutionOptions::MultiGroup::kBatchMax};
    for (int k = 0; k < 2; ++k) {
      core::ConvolutionOptions conv;
      conv.cells = kReferenceCells;
      conv.horizon = in.reference_horizon;
      conv.multi_group = modes[k];
      r[k] = core::ConvolutionSolver(conv).reliability(
          core::apply_policy(in.scenario, in.policy));
    }
    r_lo = std::min(r[0], r[1]);
    r_hi = std::max(r[0], r[1]);
  });

  std::size_t plain_completed = 0;
  std::size_t plain_total = 0;
  const auto round = [&](std::size_t r) {
    report.attempt(2);
    try {
      Span plain_span("sim.run_monte_carlo.plain");
      const sim::MonteCarloMetrics plain = sim::run_monte_carlo(
          in.scenario, in.policy,
          batch_options(in.plain, kFleetBatch,
                        derive_seed(config.seed, 100 + 2 * r), &pool));
      e2e.a_seconds.push_back(plain_span.stop());
      Span replicated_span("sim.run_monte_carlo.replicated");
      const sim::MonteCarloMetrics replicated = sim::run_monte_carlo(
          in.scenario, in.policy,
          batch_options(in.replicated, kFleetBatch,
                        derive_seed(config.seed, 101 + 2 * r), &pool));
      e2e.b_seconds.push_back(replicated_span.stop());
      e2e.work_items += 2.0 * kFleetBatch;
      plain_completed += plain.completed;
      plain_total += plain.replications;
      if (plain.truncated + replicated.truncated > 0) {
        report.fail("fleet trajectories hit the event cap");
      }
    } catch (const std::exception& e) {
      report.fail(std::string("run_monte_carlo threw: ") + e.what());
    }
  };

  if (config.trace) {
    run_traced_rounds(config, round, report);
  } else {
    const RoundsResult rounds = run_rounds(config.seconds, round);
    e2e.measured_seconds = rounds.elapsed;
  }

  // Reliability of the plain half against the solver's bracket.
  if (plain_total > 0) {
    const Interval wilson =
        wilson_interval(plain_completed, plain_total, kCheckZ);
    report.check(check_overlap("fleet reliability (Wilson, 4 SE) vs solver",
                               wilson, r_lo, r_hi));
    std::printf("fleet_mc: reliability %.5f (%zu/%zu, Wilson 4 SE [%.5f, "
                "%.5f]) vs solver bracket [%.5f, %.5f]\n",
                static_cast<double>(plain_completed) /
                    static_cast<double>(plain_total),
                plain_completed, plain_total, wilson.lower, wilson.upper, r_lo,
                r_hi);
  }
  // Schedule independence: a prefix on one thread and on nproc threads.
  {
    ThreadPool single(1);
    for (const sim::SimulatorOptions* half : {&in.plain, &in.replicated}) {
      const std::uint64_t seed = derive_seed(config.seed, 11);
      const sim::MonteCarloMetrics one = sim::run_monte_carlo(
          in.scenario, in.policy, batch_options(*half, kPrefix, seed, &single));
      const sim::MonteCarloMetrics many = sim::run_monte_carlo(
          in.scenario, in.policy, batch_options(*half, kPrefix, seed, &pool));
      report.check(compare_metrics(one, many));
    }
  }
  report.check(check_served(in, in.plain, derive_seed(config.seed, 12),
                            "plain"));
  report.check(check_served(in, in.replicated, derive_seed(config.seed, 13),
                            "replicated"));

  if (!config.trace) {
    e2e.peak_rss_mb = self_peak_rss_mb();
    report_end_to_end(e2e, report);
  }
}

}  // namespace perfbench

// table2_devise: Algorithm 1 on the paper's Table II system. One round is a
// cold devise on a fresh LatticeWorkspace, then a warm devise on the same
// workspace.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <vector>

#include "agedtr/core/convolution.hpp"
#include "agedtr/core/lattice_workspace.hpp"
#include "agedtr/random/rng.hpp"
#include "agedtr/sim/simulator.hpp"
#include "agedtr/util/thread_pool.hpp"
#include "checks.hpp"
#include "inputs.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace agedtr;

namespace {

/// Simulator trajectories behind the Monte-Carlo check, and the number of
/// standard errors its CI is widened by.
constexpr std::size_t kCheckTrajectories = 40000;
constexpr double kCheckZ = 4.0;

double solver_mean(const Table2Inputs& in, const core::DtrPolicy& policy,
                   core::ConvolutionOptions::MultiGroup multi_group) {
  core::ConvolutionOptions conv = in.options.conv;
  conv.multi_group = multi_group;
  const core::ConvolutionSolver solver(conv);
  return solver.mean_execution_time(core::apply_policy(in.scenario, policy));
}

/// Mean completion time of `policy` by simulation, driven here trajectory
/// by trajectory (counter streams), with its own CI.
Interval simulated_mean(const Table2Inputs& in, const core::DtrPolicy& policy,
                        std::uint64_t seed) {
  const sim::DcsSimulator simulator(in.scenario);
  std::vector<double> times(kCheckTrajectories, 0.0);
  std::vector<char> completed(kCheckTrajectories, 0);
  ThreadPool::global().parallel_for(0, kCheckTrajectories, [&](std::size_t r) {
    random::Rng rng = random::make_counter_rng(seed, r);
    const sim::SimResult result = simulator.run(policy, rng);
    times[r] = result.completion_time;
    completed[r] = result.completed ? 1 : 0;
  });
  for (const char c : completed) {
    if (c == 0) return {0.0, -1.0};  // reliable servers: must never happen
  }
  return mean_interval(times, kCheckZ);
}

}  // namespace

void run_table2_devise(const RunConfig& config, Report& report) {
  ThreadPool& pool = ThreadPool::global();
  Table2Inputs in;
  double no_reallocation = 0.0;
  EndToEnd e2e;
  e2e.setup_s = median_setup_seconds(config.trace ? 1 : 3, [&](int) {
    in = make_table2_inputs(&pool);
    no_reallocation = solver_mean(in, core::DtrPolicy(in.scenario.size()),
                                  core::ConvolutionOptions::MultiGroup::kBatchMax);
  });

  std::optional<core::DtrPolicy> devised;
  const auto round = [&](std::size_t) {
    policy::Algorithm1Options options = in.options;
    options.workspace = std::make_shared<core::LatticeWorkspace>();
    const policy::Algorithm1 algorithm(options);
    report.attempt(2);
    try {
      Span cold_span("policy.Algorithm1.devise_cold");
      const policy::Algorithm1Result cold = algorithm.devise(in.scenario);
      e2e.a_seconds.push_back(cold_span.stop());
      Span warm_span("policy.Algorithm1.devise_warm");
      const policy::Algorithm1Result warm = algorithm.devise(in.scenario);
      e2e.b_seconds.push_back(warm_span.stop());
      e2e.work_items += 2;
      report.check(check_policy_feasible(cold.policy, in.tasks));
      report.check(check_same_policy(cold.policy, warm.policy));
      if (devised) report.check(check_same_policy(*devised, cold.policy));
      if (!devised) devised = cold.policy;
    } catch (const std::exception& e) {
      report.fail(std::string("devise threw: ") + e.what());
    }
  };

  if (config.trace) {
    run_traced_rounds(config, round, report);
  } else {
    const RoundsResult rounds = run_rounds(config.seconds, round);
    e2e.measured_seconds = rounds.elapsed;
  }
  if (!devised) return;

  // The devised policy against the exact solver's multi-group bracket, the
  // simulator and the no-reallocation baseline.
  const double lo =
      solver_mean(in, *devised, core::ConvolutionOptions::MultiGroup::kBatchMin);
  const double hi =
      solver_mean(in, *devised, core::ConvolutionOptions::MultiGroup::kBatchMax);
  const Interval mc =
      simulated_mean(in, *devised, derive_seed(config.seed, 10));
  report.check(check_overlap("table2 simulated mean (4 SE) vs solver bracket",
                             mc, std::min(lo, hi), std::max(lo, hi)));
  report.check(check_below("table2 devised T-bar vs no reallocation", hi,
                           no_reallocation));
  std::printf("table2_devise: T-bar bracket [%.4f, %.4f], simulated %.4f "
              "+- %.4f (4 SE), no reallocation %.4f\n",
              lo, hi, mc.center(), 0.5 * (mc.upper - mc.lower),
              no_reallocation);

  if (!config.trace) {
    e2e.peak_rss_mb = self_peak_rss_mb();
    report_end_to_end(e2e, report);
  }
}

}  // namespace perfbench

// Layer probes: per-layer metrics measured by calling each layer's public
// functions directly, each call (or batch of calls, for sub-microsecond
// operations) inside a span. The inputs are the workloads' own (see
// inputs.hpp), so every traced run reports the same set of layer metrics.
// Counters come from what the library already exposes: WorkspaceStats,
// SimResult, QuadratureResult::evaluations, the `stats` reply and the
// engine.evaluations_total registry counter.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "agedtr/core/convolution.hpp"
#include "agedtr/core/lattice_workspace.hpp"
#include "agedtr/core/replication.hpp"
#include "agedtr/core/replication_bounds.hpp"
#include "agedtr/dist/exponential.hpp"
#include "agedtr/dist/sum_iid.hpp"
#include "agedtr/numerics/fft.hpp"
#include "agedtr/numerics/quadrature.hpp"
#include "agedtr/policy/algorithm1.hpp"
#include "agedtr/policy/evaluation_engine.hpp"
#include "agedtr/policy/two_server.hpp"
#include "agedtr/random/rng.hpp"
#include "agedtr/service/daemon.hpp"
#include "agedtr/service/json.hpp"
#include "agedtr/service/request.hpp"
#include "agedtr/sim/monte_carlo.hpp"
#include "agedtr/sim/simulator.hpp"
#include "agedtr/util/metrics.hpp"
#include "agedtr/util/supervisor.hpp"
#include "agedtr/util/thread_pool.hpp"
#include "daemon_client.hpp"
#include "inputs.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace agedtr;

namespace {

/// Median per-call seconds of fn over `batches` spans of `per_batch` calls.
template <typename F>
double per_call(const std::string& name, int batches, int per_batch, F&& fn) {
  std::vector<double> times;
  for (int b = 0; b < batches; ++b) {
    Span span(name);
    for (int i = 0; i < per_batch; ++i) fn(b * per_batch + i);
    times.push_back(span.stop() / per_batch);
  }
  return median(std::move(times));
}

std::string count_base(const char* what, int n) {
  return std::string(what) + ", median of " + std::to_string(n);
}

/// Two servers of the Table II system (server 1: 40 tasks, mean 5 s;
/// server 5: 40 tasks, mean 1 s) with its per-task transfer law.
core::DcsScenario table2_pair(const Table2Inputs& t2) {
  std::vector<core::ServerSpec> servers = {t2.scenario.servers[0],
                                           t2.scenario.servers[4]};
  core::DcsScenario pair = core::make_uniform_network_scenario(
      std::move(servers), t2.scenario.transfer[0][4],
      dist::Exponential::with_mean(1.0));
  pair.transfer_scaling = core::TransferScaling::kPerTask;
  return pair;
}

void numerics_probes(const StudyInputs& study, Report& report) {
  random::SplitMix64 rng(7);
  for (const std::size_t n : {std::size_t{65536}, std::size_t{1024}}) {
    std::vector<double> x(n);
    for (double& v : x) v = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    (void)numerics::rfft(x);  // plan built before timing
    const int calls = n > 8192 ? 30 : 300;
    const std::vector<double> t = timed_calls(
        "numerics.rfft", calls, [&](int) { keep(numerics::rfft(x)[1].real()); });
    report.metric(n > 8192 ? "numerics.rfft_us" : "numerics.rfft_small_us",
                  median(t) * 1e6, "us",
                  "one forward rfft, n = " + std::to_string(n) + " (" +
                      (n > 8192 ? "table2_devise" : "agedtrd_mix") +
                      " padded length), median of " + std::to_string(calls));
  }
  {
    std::vector<double> a(32768), b(32768);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = std::exp(-0.001 * static_cast<double>(i)) * 1e-3;
      b[i] = std::exp(-0.002 * static_cast<double>(i)) * 2e-3;
    }
    const std::vector<double> t = timed_calls("numerics.convolve", 10, [&](int) {
      keep(numerics::convolve(a, b, true).back());
    });
    report.metric("numerics.convolve_ms", median(t) * 1e3, "ms",
                  count_base("numerics::convolve of two 32768-cell densities",
                             10));
  }
  {
    // A bound-style survival: sf of the study's replica completion law
    // (3 tasks moved 1 -> 2: transfer sum then service sum), integrated
    // over the horizon where it falls below 1e-9.
    const std::vector<core::WorkUnit> units =
        core::enumerate_work_units(study.scenario, study.policy);
    const core::WorkUnit& moved = units.back();
    const dist::DistPtr law =
        core::replica_completion_law(study.scenario, moved, moved.destination);
    double horizon = law->mean();
    while (law->sf(horizon) > 1e-9) horizon *= 1.5;
    numerics::QuadratureResult result;
    const std::vector<double> t = timed_calls("numerics.integrate", 3, [&](int) {
      result = numerics::integrate([&](double s) { return law->sf(s); }, 0.0,
                                   horizon, 1e-10, 1e-8);
      keep(result.value);
    });
    report.metric("numerics.integrate_ms", median(t) * 1e3, "ms",
                  "adaptive integrate of a replica-completion survival over "
                  "[0, " + std::to_string(horizon) + "], median of 3");
    report.metric("numerics.integrate_evals", result.evaluations, "count",
                  "integrand evaluations of that integral");

    // dist: one sf of the composed law, warm.
    keep(law->sf(law->mean()));
    const double mean = law->mean();
    report.metric("dist.composed_sf_us",
                  per_call("dist.composed_sf", 20, 10,
                           [&](int i) {
                             keep(law->sf(mean * (0.5 + 0.01 * (i % 100))));
                           }) * 1e6,
                  "us",
                  "one sf of core::replica_completion_law (study unit 1->2, " +
                      std::to_string(moved.tasks) +
                      " tasks), median of 20 batches of 10");
    const dist::DistPtr service = study.scenario.servers[0].service;
    const std::vector<double> first = timed_calls("dist.sum_iid_first_sf", 5,
                                                  [&](int) {
      const dist::DistPtr sum = dist::sum_iid(service, 12);
      keep(sum->sf(sum->mean()));
    });
    report.metric("dist.sum_iid_first_sf_ms", median(first) * 1e3, "ms",
                  count_base("build dist::sum_iid(study server-1 service, 12) "
                             "and its first sf",
                             5));
  }
}

void table2_probes(Report& report) {
  const Table2Inputs t2 = make_table2_inputs(&ThreadPool::global());
  {
    // Cold k-fold ladder of one Table II service law, k = 1..40, on the
    // identity solve's grid.
    const core::ConvolutionSolver identity(t2.options.conv);
    keep(identity.mean_execution_time(
        core::apply_policy(t2.scenario, core::DtrPolicy(5))));
    const double dt = identity.dt();
    const std::vector<double> t = timed_calls("core.workspace_sum", 3, [&](int) {
      core::LatticeWorkspace workspace;
      for (unsigned k = 1; k <= 40; ++k) {
        keep(workspace.sum(t2.scenario.servers[0].service, k, dt,
                           t2.options.conv.cells)
                 .tail());
      }
    });
    report.metric("core.workspace_sum_ms", median(t) * 1e3, "ms",
                  count_base("cold LatticeWorkspace::sum, k = 1..40, "
                             "32768 cells",
                             3));
  }
  {
    // One cold devise: workspace counters and engine evaluations.
    policy::Algorithm1Options options = t2.options;
    options.workspace = std::make_shared<core::LatticeWorkspace>();
    metrics::set_enabled(true);
    const metrics::Counter& evaluations =
        metrics::MetricsRegistry::global().counter("engine.evaluations_total");
    const std::uint64_t before = evaluations.value();
    Span span("policy.Algorithm1.devise_probe");
    const policy::Algorithm1Result result =
        policy::Algorithm1(options).devise(t2.scenario);
    span.stop();
    const std::uint64_t after = evaluations.value();
    metrics::set_enabled(false);
    const core::WorkspaceStats stats = options.workspace->stats();
    const std::string base = "after one cold Table II devise";
    report.metric("core.workspace_hits", static_cast<double>(stats.hits()),
                  "count", base);
    report.metric("core.workspace_misses", static_cast<double>(stats.misses()),
                  "count", base);
    report.metric("core.workspace_laws", static_cast<double>(stats.laws),
                  "count", base);
    report.metric("core.workspace_mb", static_cast<double>(stats.bytes) / 1e6,
                  "MB", base);
    report.metric("policy.evaluations", static_cast<double>(after - before),
                  "count", "engine.evaluations_total over one cold devise");
    report.metric("policy.devise_iterations", result.iterations, "count",
                  "Algorithm 1 iterations of that devise");
  }
  const core::DcsScenario pair = table2_pair(t2);
  {
    const core::ConvolutionSolver solver(t2.options.conv);
    const std::vector<core::ServerWorkload> workloads =
        core::apply_policy(pair, policy::make_two_server_policy(10, 0));
    keep(solver.mean_execution_time(workloads));
    const std::vector<double> t = timed_calls("core.solver_mean", 5, [&](int) {
      keep(solver.mean_execution_time(workloads));
    });
    report.metric("core.solver_mean_ms", median(t) * 1e3, "ms",
                  count_base("warm ConvolutionSolver::mean_execution_time, "
                             "Table II servers 1 and 5, L12 = 10",
                             5));
  }
  {
    policy::EvaluationEngineOptions options;
    options.conv = t2.options.conv;
    const policy::EvaluationEngine engine(pair, options);
    std::vector<core::DtrPolicy> sweep;
    for (int l12 = 0; l12 <= 40; ++l12) {
      sweep.push_back(policy::make_two_server_policy(l12, 0));
    }
    keep(engine.evaluate(sweep).front());
    const std::vector<double> t = timed_calls("policy.engine_batch", 3, [&](int) {
      keep(engine.evaluate(sweep).front());
    });
    report.metric("policy.engine_batch_ms", median(t) * 1e3, "ms",
                  count_base("warm batched EvaluationEngine::evaluate, "
                             "L12 = 0..40 on Table II servers 1 and 5",
                             3));
  }
}

void bounds_probes(const StudyInputs& study, Report& report) {
  const core::ReplicationPlan plan =
      core::make_uniform_replication(study.scenario, study.policy, 1);
  const char* names[2] = {"core.bounds_ms", "core.bounds_slowdown_ms"};
  const double factors[2] = {1.0, study.options.base_slowdown.factor};
  for (int k = 0; k < 2; ++k) {
    core::ReplicationBoundsOptions options;
    options.deadline = study.options.deadline;
    options.slowdown_factor = factors[k];
    const std::vector<double> t = timed_calls(names[k], 1, [&](int) {
      keep(core::replication_completion_bounds(study.scenario, study.policy,
                                               plan, options)
               .mean_upper);
    });
    report.metric(names[k], t[0] * 1e3, "ms",
                  std::string("one direct replication_completion_bounds, "
                              "study cell at slowdown factor ") +
                      (k == 0 ? "1 (intensity 0)" : "0.1 (intensity 2)"));
  }
}

void sim_probes(const RunConfig& config, Report& report) {
  const FleetInputs fleet = make_fleet_inputs(config.seed);
  {
    random::Rng rng = random::make_counter_rng(1, 1);
    const dist::DistPtr laws[4] = {
        fleet.scenario.servers[0].service, fleet.scenario.servers[1].service,
        fleet.scenario.servers[2].service, fleet.scenario.servers[3].service};
    report.metric("dist.sample_ns",
                  per_call("dist.sample", 9, 40000,
                           [&](int i) { keep(laws[i % 4]->sample(rng)); }) *
                      1e9,
                  "ns",
                  "one draw from a fleet service law (the four families in "
                  "turn), median of 9 batches of 40000");
  }
  const char* prefixes[2] = {"sim.", "sim.replicated_"};
  for (int half = 0; half < 2; ++half) {
    const sim::DcsSimulator simulator(
        fleet.scenario, half == 0 ? fleet.plain : fleet.replicated);
    double events = 0.0;
    double cancelled = 0.0;
    const int runs = 200;
    const std::vector<double> t = timed_calls(
        std::string(prefixes[half]) + "run", runs, [&](int r) {
          random::Rng rng = random::make_counter_rng(
              derive_seed(config.seed, 20 + half), static_cast<std::uint64_t>(r));
          const sim::SimResult result = simulator.run(fleet.policy, rng);
          events += static_cast<double>(result.events_processed);
          cancelled += static_cast<double>(result.replicas_cancelled);
        });
    double total = 0.0;
    for (const double s : t) total += s;
    const std::string base = std::string("single-threaded DcsSimulator::run ") +
                             (half == 0 ? "(plain)" : "(replicated)") +
                             " on the fleet, " + std::to_string(runs) + " runs";
    report.metric(std::string(prefixes[half]) + "run_us", median(t) * 1e6,
                  "us", base);
    report.metric(std::string(prefixes[half]) + "events_per_traj",
                  events / runs, "count", base);
    if (half == 0) {
      report.metric("sim.events_per_s", events / total, "1/s", base);
    } else {
      report.metric("sim.replicas_cancelled_per_traj", cancelled / runs,
                    "count", base);
    }
  }
  {
    const std::size_t reps = 512;
    const auto rate = [&](ThreadPool& pool, const char* name) {
      sim::MonteCarloOptions mc;
      mc.replications = reps;
      mc.seed = derive_seed(config.seed, 22);
      mc.pool = &pool;
      mc.simulator = fleet.plain;
      mc.stream_split = sim::StreamSplit::kCounter;
      Span span(name);
      keep(sim::run_monte_carlo(fleet.scenario, fleet.policy, mc).reliability.center);
      return static_cast<double>(reps) / span.stop();
    };
    ThreadPool single(1);
    ThreadPool& all = ThreadPool::global();
    const double one = rate(single, "sim.mc_1thread");
    const double many = rate(all, "sim.mc_nproc");
    const std::string base =
        std::to_string(reps) + " plain fleet trajectories per pool";
    report.metric("sim.mc_1thread_per_s", one, "1/s", base);
    report.metric("sim.mc_nproc_per_s", many, "1/s",
                  base + ", " + std::to_string(all.size()) + " threads");
    report.metric("sim.parallel_efficiency",
                  many / (static_cast<double>(all.size()) * one), "ratio",
                  "sim.mc_nproc_per_s / (nproc x sim.mc_1thread_per_s)");
  }
  {
    report.metric("random.stream_open_ns",
                  per_call("random.stream_open", 9, 100000,
                           [&](int i) {
                             keep(static_cast<double>(
                                 random::make_counter_rng(
                                     5, static_cast<std::uint64_t>(i))()));
                           }) * 1e9,
                  "ns",
                  "make_counter_rng plus its first draw, median of 9 batches "
                  "of 100000");
    random::Rng rng = random::make_counter_rng(5, 5);
    report.metric("random.draw_ns",
                  per_call("random.draw", 9, 1000000,
                           [&](int) { keep(rng.next_double()); }) *
                      1e9,
                  "ns", "one Rng draw, median of 9 batches of 1000000");
  }
}

void policy_service_probes(const RunConfig& config, Report& report) {
  const MixInputs mix = make_mix_inputs(config.seed);
  // One evaluate (pool scenario 0, L12 = 2, L21 = 1) measured at three
  // depths: the engine alone, the in-process daemon, and the socket.
  const MixScenario& probe = mix.evaluate_pool[0];
  const core::DtrPolicy probe_policy = policy::make_two_server_policy(2, 1);
  const std::string text = evaluate_request("probe", probe, 2, 1);
  {
    const policy::EvaluationEngine engine(mix_scenario(probe),
                                          mix_engine_options(probe, mix.cells));
    keep(engine.evaluate(policy::make_two_server_policy(1, 0)));
    report.metric("policy.engine_scalar_us",
                  per_call("policy.engine_scalar", 20, 10,
                           [&](int) { keep(engine.evaluate(probe_policy)); }) *
                      1e6,
                  "us",
                  "warm scalar EvaluationEngine::evaluate, agedtrd_mix pool "
                  "scenario 0 (512 cells), median of 20 batches of 10");
  }
  {
    const MixScenario& s = mix.search_pool[0];
    const policy::EvaluationEngine engine(mix_scenario(s),
                                          mix_engine_options(s, mix.cells));
    const policy::TwoServerPolicySearch search(s.m1, s.m2);
    keep(search.optimize(engine, false).value);
    const std::vector<double> t = timed_calls("policy.search", 5, [&](int) {
      keep(search.optimize(engine, false).value);
    });
    report.metric("policy.search_ms", median(t) * 1e3, "ms",
                  count_base("warm TwoServerPolicySearch::optimize, 4 + 2 "
                             "tasks (15 policies), 512 cells",
                             5));
  }
  // Service layers in process.
  report.metric("service.parse_us",
                per_call("service.parse", 20, 100,
                         [&](int) {
                           const service::Request request =
                               service::parse_request(service::Json::parse(text));
                           keep(request.transfer_mean);
                         }) * 1e6,
                "us",
                "Json::parse + parse_request of an evaluate request (" +
                    std::to_string(text.size()) +
                    " bytes), median of 20 batches of 100");
  const service::Json document = service::Json::parse(text);
  const service::Request request = service::parse_request(document);
  report.metric("service.fingerprint_us",
                per_call("service.fingerprint", 20, 100,
                         [&](int) {
                           keep(static_cast<double>(
                               service::scenario_fingerprint(request).size() +
                               service::work_fingerprint(request).size()));
                         }) * 1e6,
                "us",
                "scenario_fingerprint + work_fingerprint of that request, "
                "median of 20 batches of 100");
  report.metric("service.dump_us",
                per_call("service.dump", 20, 100,
                         [&](int) {
                           keep(static_cast<double>(document.dump().size()));
                         }) * 1e6,
                "us", "Json::dump of that request, median of 20 batches of 100");
  {
    service::DaemonOptions options;
    options.conv.cells = mix.cells;
    service::Daemon daemon(options);
    keep(static_cast<double>(daemon.submit(text).get().size()));
    const std::vector<double> t = timed_calls("service.submit", 200, [&](int) {
      keep(static_cast<double>(daemon.submit(text).get().size()));
    });
    daemon.stop();
    report.metric("service.submit_ms", median(t) * 1e3, "ms",
                  count_base("in-process Daemon::submit().get() of a warm "
                             "evaluate",
                             200));
  }
  {
    const std::string tag = std::to_string(static_cast<long long>(::getpid()));
    DaemonProcess daemon(config.agedtrd,
                         config.work_dir + "/probe-" + tag + ".sock",
                         config.work_dir + "/probe-" + tag + ".log",
                         mix_daemon_args(mix));
    {
      Connection connection(daemon.socket_path(), 10.0);
      keep(static_cast<double>(
          connection.roundtrip("{\"id\": \"p\", \"kind\": \"ping\"}").size()));
      const std::vector<double> t = timed_calls("service.ping", 500, [&](int) {
        keep(static_cast<double>(
            connection.roundtrip("{\"id\": \"p\", \"kind\": \"ping\"}").size()));
      });
      report.metric("service.ping_rtt_us", median(t) * 1e6, "us",
                    count_base("ping round trip over the agedtrd socket", 500));
      // A fixed request sequence: every pool scenario four times.
      for (int pass = 0; pass < 4; ++pass) {
        for (std::size_t i = 0; i < mix.evaluate_pool.size(); ++i) {
          keep(static_cast<double>(
              connection
                  .roundtrip(evaluate_request("e", mix.evaluate_pool[i], pass, 0))
                  .size()));
        }
      }
      const service::Json stats = service::Json::parse(
          connection.roundtrip("{\"id\": \"s\", \"kind\": \"stats\"}"));
      const std::string base =
          "stats reply after 4 passes over the 12 pool scenarios";
      report.metric("service.engine_cache_hits",
                    stats.find("engine_cache_hits")->as_number(), "count", base);
      report.metric("service.engine_cache_misses",
                    stats.find("engine_cache_misses")->as_number(), "count",
                    base);
      for (const MixScenario& s : mix.search_pool) {
        keep(static_cast<double>(
            connection.roundtrip(search_request("w", s)).size()));
      }
    }
    // The agedtrd_mix tail, on the same warm daemon.
    const std::size_t burst = 8192;
    report.metric("service.request_p99_ms",
                  mix_burst_p99(config, mix, daemon.socket_path(), burst,
                                report) *
                      1e3,
                  "ms",
                  "99th percentile of a closed-loop burst of >= " +
                      std::to_string(burst) + " agedtrd_mix requests, " +
                      std::to_string(config.threads) + " clients");
    (void)daemon.shutdown(10.0);
  }
}

void util_probes(Report& report) {
  // The daemon's dispatcher settings (agedtrd defaults).
  const service::DaemonOptions daemon;
  SupervisorOptions options;
  options.max_retries = daemon.max_retries;
  options.backoff_initial_seconds = daemon.backoff_initial_seconds;
  options.deadline_seconds = std::max(8.0 * daemon.max_eval_seconds, 1.0);
  const Supervisor supervisor(options);
  for (const std::size_t size : {std::size_t{1}, daemon.batch_max}) {
    const std::string name =
        "util.supervisor_batch" + std::to_string(size) + "_us";
    const std::vector<double> t = timed_calls(name, 200, [&](int) {
      keep(static_cast<double>(
          supervisor.run(size, [](std::size_t, const CancelToken&) {}).succeeded));
    });
    report.metric(name, median(t) * 1e6, "us",
                  "Supervisor::run over " + std::to_string(size) +
                      " no-op tasks with agedtrd's watchdog settings, median "
                      "of 200");
  }
  ThreadPool& pool = ThreadPool::global();
  const std::vector<double> t = timed_calls("util.parallel_for", 500, [&](int) {
    pool.parallel_for(0, pool.size(), [](std::size_t) {});
  });
  report.metric("util.parallel_for_us", median(t) * 1e6, "us",
                count_base("ThreadPool::parallel_for of nproc no-op tasks",
                           500));
}

}  // namespace

void run_layer_probes(const RunConfig& config, Report& report) {
  const StudyInputs study = make_study_inputs(config.seed, &ThreadPool::global());
  numerics_probes(study, report);
  table2_probes(report);
  bounds_probes(study, report);
  sim_probes(config, report);
  policy_service_probes(config, report);
  util_probes(report);
}

}  // namespace perfbench

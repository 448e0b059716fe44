// agedtrd_mix: the real agedtrd binary on a UNIX socket, driven by nproc
// closed-loop clients (one connection each). Each client sends whole
// cycles of kMixCycle requests: evaluates over the pool and a fixed share
// of searches. The run ends at the first cycle boundary after the run
// length has elapsed and at least kMinRequests requests were answered.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agedtr/policy/evaluation_engine.hpp"
#include "agedtr/policy/objective.hpp"
#include "agedtr/policy/two_server.hpp"
#include "agedtr/service/json.hpp"
#include "checks.hpp"
#include "daemon_client.hpp"
#include "inputs.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace agedtr;

namespace {

constexpr std::size_t kMinRequests = 1024;
/// Every kSampleEvery-th evaluate reply is checked against the reference.
constexpr std::size_t kSampleEvery = 8;
/// Values must match the benchmark's own engines to this relative
/// tolerance (the repository's solver pin).
constexpr double kRtol = 1e-9;

using EnginePtr = std::shared_ptr<const policy::EvaluationEngine>;

/// The benchmark's own engine for one scenario. Callers warm it with the
/// daemon's first request so that both freeze the same lattice grid.
EnginePtr reference_engine(
    const MixScenario& s, std::size_t cells) {
  return std::make_shared<const policy::EvaluationEngine>(
      mix_scenario(s), mix_engine_options(s, cells));
}

struct EvalSample {
  std::size_t pool_index = 0;
  int l12 = 0;
  int l21 = 0;
  double value = 0.0;
};

struct SearchSample {
  std::size_t search_index = 0;
  std::string reply;
};

struct ClientLog {
  std::vector<double> evaluate_s;
  std::vector<double> search_s;
  std::vector<EvalSample> samples;
  std::vector<SearchSample> searches;
  std::vector<std::string> problems;
  std::size_t requests = 0;
};

/// One client's closed loop over whole cycles.
void client_loop(std::size_t client, const MixInputs& mix,
                 const std::string& socket, Clock::time_point deadline,
                 std::size_t min_requests, std::atomic<std::size_t>& answered,
                 ClientLog& log) {
  try {
    Connection connection(socket, 10.0);
    for (std::size_t cycle = 0;; ++cycle) {
      for (std::size_t slot = 0; slot < kMixCycle; ++slot) {
        const std::string id = "c" + std::to_string(client) + "-" +
                               std::to_string(cycle) + "-" +
                               std::to_string(slot);
        if (mix_slot_is_search(slot)) {
          const std::size_t k = (cycle + client) % 2;
          const std::string text = search_request(id, mix.search_pool[k]);
          Span span("service.request.search");
          const std::string reply = connection.roundtrip(text);
          log.search_s.push_back(span.stop());
          const std::string problem = check_reply(reply, id);
          if (!problem.empty()) log.problems.push_back(problem);
          log.searches.push_back({k, reply});
        } else {
          const std::size_t k =
              (client * 5 + cycle * 3 + slot) % mix.evaluate_pool.size();
          const MixScenario& s = mix.evaluate_pool[k];
          const int l12 = static_cast<int>((slot * 7 + cycle + client) %
                                           static_cast<std::size_t>(s.m1 + 1));
          const int l21 = slot % 3 == 0 ? 1 : 0;
          const std::string text = evaluate_request(id, s, l12, l21);
          Span span("service.request.evaluate");
          const std::string reply = connection.roundtrip(text);
          log.evaluate_s.push_back(span.stop());
          double value = 0.0;
          const std::string problem = check_reply(reply, id, &value);
          if (!problem.empty()) log.problems.push_back(problem);
          if (slot % kSampleEvery == 1) log.samples.push_back({k, l12, l21, value});
        }
        ++log.requests;
        answered.fetch_add(1, std::memory_order_relaxed);
      }
      if (Clock::now() >= deadline &&
          answered.load(std::memory_order_relaxed) >= min_requests) {
        return;
      }
    }
  } catch (const std::exception& e) {
    log.problems.push_back(std::string("client ") + std::to_string(client) +
                           ": " + e.what());
  }
}

struct MixRun {
  std::vector<ClientLog> logs;
  double elapsed = 0.0;
};

MixRun drive(const RunConfig& config, const MixInputs& mix,
             const std::string& socket, double seconds,
             std::size_t min_requests) {
  MixRun run;
  run.logs.resize(config.threads);
  std::atomic<std::size_t> answered{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < config.threads; ++c) {
    clients.emplace_back([&, c] {
      client_loop(c, mix, socket, deadline, min_requests, answered,
                  run.logs[c]);
    });
  }
  for (std::thread& t : clients) t.join();
  run.elapsed = seconds_since(start);
  return run;
}

void check_run(const MixRun& run, const MixInputs& mix,
               const std::vector<EnginePtr>& evaluate_refs,
               const std::vector<std::vector<double>>& search_grids,
               Report& report) {
  for (const ClientLog& log : run.logs) {
    report.attempt(log.requests);
    for (const std::string& problem : log.problems) report.fail(problem);
    for (const EvalSample& sample : log.samples) {
      const double expected = evaluate_refs[sample.pool_index]->evaluate(
          policy::make_two_server_policy(sample.l12, sample.l21));
      report.check(check_close(
          "evaluate value (pool " + std::to_string(sample.pool_index) + ", " +
              std::to_string(sample.l12) + "/" + std::to_string(sample.l21) +
              ")",
          sample.value, expected, kRtol));
    }
    for (const SearchSample& search : log.searches) {
      const MixScenario& s = mix.search_pool[search.search_index];
      const service::Json reply = service::Json::parse(search.reply);
      const double value = reply.find("value")->as_number();
      const auto l12 = static_cast<int>(reply.find("l12")->as_number());
      const auto l21 = static_cast<int>(reply.find("l21")->as_number());
      const std::vector<double>& grid = search_grids[search.search_index];
      const bool maximize = s.objective != "mean";
      report.check(check_search_optimum(value, grid, maximize, kRtol));
      if (l12 < 0 || l12 > s.m1 || l21 < 0 || l21 > s.m2) {
        report.fail("search optimum outside the policy grid");
        continue;
      }
      report.check(check_close(
          "search optimum value", value,
          grid[static_cast<std::size_t>(l12 * (s.m2 + 1) + l21)], kRtol));
    }
  }
}

}  // namespace

double mix_burst_p99(const RunConfig& config, const MixInputs& mix,
                     const std::string& socket, std::size_t requests,
                     Report& report) {
  const MixRun run = drive(config, mix, socket, 0.0, requests);
  std::vector<double> latencies;
  for (const ClientLog& log : run.logs) {
    for (const std::string& problem : log.problems) report.fail(problem);
    latencies.insert(latencies.end(), log.evaluate_s.begin(),
                     log.evaluate_s.end());
    latencies.insert(latencies.end(), log.search_s.begin(),
                     log.search_s.end());
  }
  return latencies.empty() ? 0.0 : percentile(latencies, 0.99);
}

void run_agedtrd_mix(const RunConfig& config, Report& report) {
  const MixInputs mix = make_mix_inputs(config.seed);
  std::unique_ptr<DaemonProcess> daemon;
  std::vector<EnginePtr> evaluate_refs;
  std::vector<std::vector<double>> search_grids;
  const std::string tag = std::to_string(static_cast<long long>(::getpid()));
  const std::string log_path = config.work_dir + "/agedtrd-" + tag + ".log";

  EndToEnd e2e;
  // Daemons of earlier set-up repetitions are stopped after the timed
  // set-ups, so that no shutdown is counted as set-up.
  std::vector<std::unique_ptr<DaemonProcess>> spares;
  e2e.setup_s = median_setup_seconds(config.trace ? 1 : 3, [&](int k) {
    if (daemon) spares.push_back(std::move(daemon));
    daemon = std::make_unique<DaemonProcess>(
        config.agedtrd,
        config.work_dir + "/agedtrd-" + tag + "-" + std::to_string(k) + ".sock",
        log_path, mix_daemon_args(mix));
    // Warm the daemon: every scenario's engine, with a fixed first request.
    Connection connection(daemon->socket_path(), 10.0);
    for (std::size_t i = 0; i < mix.evaluate_pool.size(); ++i) {
      const std::string id = "warm-e" + std::to_string(i);
      report.check(check_reply(
          connection.roundtrip(evaluate_request(id, mix.evaluate_pool[i], 1, 0)),
          id));
    }
    for (std::size_t i = 0; i < mix.search_pool.size(); ++i) {
      const std::string id = "warm-s" + std::to_string(i);
      report.check(check_reply(
          connection.roundtrip(search_request(id, mix.search_pool[i])), id));
    }
    // The benchmark's own engines, warmed the same way.
    evaluate_refs.clear();
    for (const MixScenario& s : mix.evaluate_pool) {
      evaluate_refs.push_back(reference_engine(s, mix.cells));
      (void)evaluate_refs.back()->evaluate(policy::make_two_server_policy(1, 0));
    }
    search_grids.clear();
    for (const MixScenario& s : mix.search_pool) {
      const auto engine = reference_engine(s, mix.cells);
      const policy::TwoServerPolicySearch search(s.m1, s.m2);
      (void)search.optimize(*engine, s.objective != "mean");
      std::vector<double> grid;
      for (int l12 = 0; l12 <= s.m1; ++l12) {
        for (int l21 = 0; l21 <= s.m2; ++l21) {
          grid.push_back(
              engine->evaluate(policy::make_two_server_policy(l12, l21)));
        }
      }
      search_grids.push_back(std::move(grid));
    }
  });
  try {
    for (const auto& spare : spares) (void)spare->shutdown(10.0);
  } catch (const std::exception& e) {
    report.fail(std::string("agedtrd_mix: ") + e.what());
  }
  spares.clear();

  try {
    if (config.trace) {
      run_traced_rounds(
          config,
          [&](std::size_t) {
            check_run(drive(config, mix, daemon->socket_path(), 0.0,
                            kMinRequests),
                      mix, evaluate_refs, search_grids, report);
          },
          report);
    } else {
      const MixRun run = drive(config, mix, daemon->socket_path(),
                               config.seconds, kMinRequests);
      check_run(run, mix, evaluate_refs, search_grids, report);
      for (const ClientLog& log : run.logs) {
        e2e.a_seconds.insert(e2e.a_seconds.end(), log.evaluate_s.begin(),
                             log.evaluate_s.end());
        e2e.b_seconds.insert(e2e.b_seconds.end(), log.search_s.begin(),
                             log.search_s.end());
        e2e.work_items += static_cast<double>(log.requests);
      }
      e2e.measured_seconds = run.elapsed;
    }
    {
      Connection connection(daemon->socket_path(), 10.0);
      std::printf("agedtrd_mix: stats %s\n",
                  connection.roundtrip("{\"id\": \"stats\", \"kind\": \"stats\"}")
                      .c_str());
    }
    e2e.peak_rss_mb = daemon->shutdown(10.0);
    daemon.reset();
  } catch (const std::exception& e) {
    report.fail(std::string("agedtrd_mix: ") + e.what());
    return;
  }
  if (!config.trace) report_end_to_end(e2e, report);
}

}  // namespace perfbench

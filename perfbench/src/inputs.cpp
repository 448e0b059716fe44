#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "agedtr/dist/builders.hpp"
#include "agedtr/dist/exponential.hpp"
#include "agedtr/policy/initial_policy.hpp"
#include "agedtr/policy/two_server.hpp"
#include "agedtr/random/rng.hpp"
#include "agedtr/service/json.hpp"
#include "paper_setup.hpp"

namespace perfbench {

using namespace agedtr;
using dist::ModelFamily;

namespace {

/// Uniform double in [lo, hi) from a SplitMix64 stream.
double uniform(random::SplitMix64& rng, double lo, double hi) {
  const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  random::SplitMix64 mix(seed ^ (0x9e3779b97f4a7c15ULL * (tag + 1)));
  return mix();
}

Table2Inputs make_table2_inputs(ThreadPool* pool) {
  Table2Inputs in;
  in.scenario = bench::five_server_scenario(ModelFamily::kExponential,
                                            /*failures=*/false);
  for (const core::ServerSpec& s : in.scenario.servers) {
    in.tasks.push_back(s.initial_tasks);
  }
  in.options.objective = policy::Objective::kMeanExecutionTime;
  in.options.max_iterations = 4;
  in.options.conv.cells = 32768;
  in.options.pool = pool;
  return in;
}

FleetInputs make_fleet_inputs(std::uint64_t seed) {
  random::SplitMix64 rng(derive_seed(seed, 1));
  const ModelFamily families[4] = {
      ModelFamily::kExponential, ModelFamily::kShiftedExponential,
      ModelFamily::kUniform, ModelFamily::kPareto1};

  // Fixed multiset of task counts (6, 8, ..., 36, four times each),
  // permuted by the seed: M stays 1344 for every seed.
  std::vector<int> tasks;
  for (std::size_t j = 0; j < kFleetServers; ++j) {
    tasks.push_back(6 + 2 * static_cast<int>(j % 16));
  }
  for (std::size_t j = tasks.size() - 1; j > 0; --j) {
    const std::size_t k = static_cast<std::size_t>(rng() % (j + 1));
    std::swap(tasks[j], tasks[k]);
  }

  std::vector<double> means;
  double total_speed = 0.0;
  int total_tasks = 0;
  for (std::size_t j = 0; j < kFleetServers; ++j) {
    const double base = 0.5 + 0.25 * static_cast<double>(j % 16);
    means.push_back(base * uniform(rng, 0.95, 1.05));
    total_speed += 1.0 / means.back();
    total_tasks += tasks[j];
  }
  // Balanced finishing time of the fleet; MTTFs are a fixed multiple of it
  // so that Σ_j T*/MTTF_j ≈ −ln 0.8.
  const double balanced = total_tasks / total_speed;
  const double mttf_scale =
      balanced * static_cast<double>(kFleetServers) / -std::log(0.8);

  std::vector<core::ServerSpec> servers;
  for (std::size_t j = 0; j < kFleetServers; ++j) {
    const double weight = 0.75 + 0.25 * static_cast<double>(j % 4);
    servers.push_back(
        {tasks[j], dist::make_model_distribution(families[j % 4], means[j]),
         dist::Exponential::with_mean(mttf_scale * weight)});
  }
  FleetInputs in;
  in.scenario = core::make_uniform_network_scenario(
      std::move(servers), dist::Exponential::with_mean(0.3),
      dist::Exponential::with_mean(0.2));
  in.scenario.transfer_scaling = core::TransferScaling::kPerTask;
  in.scenario.validate();
  in.total_tasks = total_tasks;
  in.policy = policy::initial_policy(in.scenario,
                                     policy::perfect_estimates(in.scenario),
                                     policy::ReallocationCriterion::kSpeed);

  in.plain.model_fn_packets = true;
  in.replicated = in.plain;
  in.replicated.replication =
      core::make_uniform_replication(in.scenario, in.policy, 2);
  in.replicated.faults.slowdown.rate = 0.02;
  in.replicated.faults.slowdown.duration = dist::Exponential::with_mean(5.0);
  in.replicated.faults.slowdown.factor = 0.25;

  // Lattice horizon for the reliability reference: six times the largest
  // expected finishing time of any server under the policy.
  double horizon = 0.0;
  for (std::size_t j = 0; j < kFleetServers; ++j) {
    const int held = tasks[j] - in.policy.outgoing(j) + in.policy.incoming(j);
    horizon = std::max(horizon, held * means[j] + 0.3 * in.policy.incoming(j));
  }
  in.reference_horizon = 6.0 * horizon;
  return in;
}

MixInputs make_mix_inputs(std::uint64_t seed) {
  random::SplitMix64 rng(derive_seed(seed, 2));
  MixInputs in;
  const char* objectives[3] = {"mean", "qos", "reliability"};
  for (int k = 0; k < 12; ++k) {
    MixScenario s;
    s.objective = objectives[k % 3];
    s.m1 = 4 + 2 * (k % 4);
    s.m2 = 2 + k % 3;
    s.mean1 = uniform(rng, 1.5, 3.0);
    s.mean2 = uniform(rng, 0.5, 1.5);
    s.transfer_mean = uniform(rng, 0.5, 1.5);
    if (s.objective != "mean") {
      s.failure1 = uniform(rng, 200.0, 1000.0);
      s.failure2 = uniform(rng, 200.0, 1000.0);
    }
    if (s.objective == "qos") {
      s.qos_deadline = 0.75 * (s.m1 * s.mean1 + s.m2 * s.mean2);
    }
    in.evaluate_pool.push_back(s);
  }
  for (int k = 0; k < 2; ++k) {
    MixScenario s;
    s.objective = k == 0 ? "mean" : "reliability";
    s.m1 = 4;
    s.m2 = 2;
    s.mean1 = uniform(rng, 1.5, 3.0);
    s.mean2 = uniform(rng, 0.5, 1.5);
    s.transfer_mean = uniform(rng, 0.5, 1.5);
    if (k == 1) {
      s.failure1 = uniform(rng, 200.0, 1000.0);
      s.failure2 = uniform(rng, 200.0, 1000.0);
    }
    in.search_pool.push_back(s);
  }
  return in;
}

namespace {

service::Json scenario_json(const MixScenario& s) {
  using service::Json;
  Json servers = Json::array();
  const int tasks[2] = {s.m1, s.m2};
  const double means[2] = {s.mean1, s.mean2};
  const double failures[2] = {s.failure1, s.failure2};
  for (int j = 0; j < 2; ++j) {
    Json server = Json::object();
    server.set("tasks", Json::number(tasks[j]));
    server.set("service_model", Json::string("exponential"));
    server.set("service_mean", Json::number(means[j]));
    server.set("failure_mean", Json::number(failures[j]));
    servers.push_back(std::move(server));
  }
  Json scenario = Json::object();
  scenario.set("servers", std::move(servers));
  scenario.set("transfer_model", Json::string("exponential"));
  scenario.set("transfer_mean", Json::number(s.transfer_mean));
  return scenario;
}

service::Json request_skeleton(const std::string& id, const char* kind,
                               const MixScenario& s) {
  using service::Json;
  Json request = Json::object();
  request.set("id", Json::string(id));
  request.set("kind", Json::string(kind));
  request.set("class", Json::string("interactive"));
  request.set("scenario", scenario_json(s));
  request.set("objective", Json::string(s.objective));
  if (s.objective == "qos") {
    request.set("qos_deadline", Json::number(s.qos_deadline));
  }
  return request;
}

}  // namespace

std::string evaluate_request(const std::string& id, const MixScenario& s,
                             int l12, int l21) {
  using service::Json;
  Json request = request_skeleton(id, "evaluate", s);
  Json policy = Json::array();
  Json row0 = Json::array();
  row0.push_back(Json::number(0));
  row0.push_back(Json::number(l12));
  Json row1 = Json::array();
  row1.push_back(Json::number(l21));
  row1.push_back(Json::number(0));
  policy.push_back(std::move(row0));
  policy.push_back(std::move(row1));
  request.set("policy", std::move(policy));
  return request.dump();
}

std::string search_request(const std::string& id, const MixScenario& s) {
  return request_skeleton(id, "search", s).dump();
}

core::DcsScenario mix_scenario(const MixScenario& s) {
  std::vector<core::ServerSpec> servers;
  const int tasks[2] = {s.m1, s.m2};
  const double means[2] = {s.mean1, s.mean2};
  const double failures[2] = {s.failure1, s.failure2};
  for (int j = 0; j < 2; ++j) {
    servers.push_back({tasks[j], dist::Exponential::with_mean(means[j]),
                       failures[j] > 0.0
                           ? dist::Exponential::with_mean(failures[j])
                           : nullptr});
  }
  // The service's network: one transfer law on every link and FN packets
  // of mean 1 s; transfers scale per group.
  return core::make_uniform_network_scenario(
      std::move(servers), dist::Exponential::with_mean(s.transfer_mean),
      dist::Exponential::with_mean(1.0));
}

policy::EvaluationEngineOptions mix_engine_options(const MixScenario& s,
                                                   std::size_t cells) {
  policy::EvaluationEngineOptions options;
  options.objective = s.objective == "qos" ? policy::Objective::kQos
                      : s.objective == "reliability"
                          ? policy::Objective::kReliability
                          : policy::Objective::kMeanExecutionTime;
  options.deadline = s.qos_deadline;
  options.conv.cells = cells;
  return options;
}

std::vector<std::string> mix_daemon_args(const MixInputs& mix) {
  return {"--lattice-cells", std::to_string(mix.cells)};
}

StudyInputs make_study_inputs(std::uint64_t seed, ThreadPool* pool) {
  StudyInputs in;
  in.scenario = bench::two_server_scenario(
      ModelFamily::kExponential, bench::Delay::kLow, /*failures=*/false);
  in.scenario.servers[0].initial_tasks = 12;
  in.scenario.servers[1].initial_tasks = 6;
  in.policy = policy::make_two_server_policy(3, 0);
  in.options.factors = {1};
  in.options.base_slowdown.rate = 0.02;
  in.options.base_slowdown.duration = dist::Exponential::with_mean(40.0);
  in.options.base_slowdown.factor = 0.1;
  in.options.replications = 300;
  in.options.deadline = 60.0;
  in.options.seed = derive_seed(seed, 3);
  in.options.pool = pool;
  return in;
}

}  // namespace perfbench

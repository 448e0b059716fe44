// The inputs of the four workloads, built from --seed (the same seed gives
// the same inputs). Shared by the workloads and the layer probes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "agedtr/core/replication.hpp"
#include "agedtr/core/scenario.hpp"
#include "agedtr/policy/algorithm1.hpp"
#include "agedtr/policy/evaluation_engine.hpp"
#include "agedtr/sim/replication_study.hpp"
#include "agedtr/sim/simulator.hpp"

namespace perfbench {

/// A 64-bit mix of the run seed with a stream tag (SplitMix64 finalizer),
/// so every random input has its own reproducible stream.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t tag);

// ---------------------------------------------------------------- Table II
/// The paper's Table II five-server system (bench/paper_setup.hpp,
/// exponential laws, no failures) and the Algorithm 1 settings of
/// table2_multiserver: T-bar objective, K = 4, 32768 lattice cells.
struct Table2Inputs {
  agedtr::core::DcsScenario scenario;
  std::vector<int> tasks;
  agedtr::policy::Algorithm1Options options;
};
[[nodiscard]] Table2Inputs make_table2_inputs(agedtr::ThreadPool* pool);

// ------------------------------------------------------------------ fleet
/// A 64-server heterogeneous fleet: four service families in turn, task
/// counts 6..36 (a seeded permutation of a fixed multiset, M = 1344),
/// service means 0.5..4.25 s jittered by ±5 %, per-task exponential
/// transfers (mean 0.3 s), exponential FN packets (mean 0.2 s) and
/// exponential failures whose MTTFs put the fleet's reliability near 0.8.
/// The policy is the Eq. (5) fair share (speed criterion).
struct FleetInputs {
  agedtr::core::DcsScenario scenario;
  agedtr::core::DtrPolicy policy{1};
  int total_tasks = 0;
  /// Plain half: FN packets on, no replication, no slowdowns.
  agedtr::sim::SimulatorOptions plain;
  /// Replicated half: make_uniform_replication(scenario, policy, 2) plus a
  /// slowdown process (rate 0.02/s per server, exponential windows of mean
  /// 5 s at a quarter of the service rate).
  agedtr::sim::SimulatorOptions replicated;
  /// Horizon for the lattice reliability reference.
  double reference_horizon = 0.0;
};
[[nodiscard]] FleetInputs make_fleet_inputs(std::uint64_t seed);
inline constexpr std::size_t kFleetServers = 64;
/// Trajectories per Monte-Carlo batch (one operation of fleet_mc).
inline constexpr std::size_t kFleetBatch = 1024;

// ------------------------------------------------------------ agedtrd mix
/// One two-server scenario of the request pool.
struct MixScenario {
  std::string objective;  // mean | qos | reliability
  int m1 = 0;
  int m2 = 0;
  double mean1 = 1.0;
  double mean2 = 1.0;
  double failure1 = 0.0;  // 0 = reliable
  double failure2 = 0.0;
  double transfer_mean = 1.0;
  double qos_deadline = 0.0;
};
/// Twelve evaluate scenarios (four per objective, fixed task counts, means
/// drawn from the seed) and two search scenarios (4 + 2 tasks, 15 policies,
/// objectives mean and reliability). The daemon runs a 512-cell lattice, so
/// the service layers, not the solver, carry most of an evaluate.
struct MixInputs {
  std::vector<MixScenario> evaluate_pool;
  std::vector<MixScenario> search_pool;
  std::size_t cells = 512;
};
[[nodiscard]] MixInputs make_mix_inputs(std::uint64_t seed);
/// Requests per client cycle; one slot of each cycle is a search.
inline constexpr std::size_t kMixCycle = 32;
[[nodiscard]] inline bool mix_slot_is_search(std::size_t slot) {
  return slot == 15;
}

[[nodiscard]] std::string evaluate_request(const std::string& id,
                                           const MixScenario& scenario,
                                           int l12, int l21);
[[nodiscard]] std::string search_request(const std::string& id,
                                         const MixScenario& scenario);
/// The scenario built by the benchmark itself (not through the service's
/// request layer), for the reference engines.
[[nodiscard]] agedtr::core::DcsScenario mix_scenario(const MixScenario& s);
[[nodiscard]] agedtr::policy::EvaluationEngineOptions mix_engine_options(
    const MixScenario& s, std::size_t cells);
/// Daemon flags: small lattice, no journal, no test faults.
[[nodiscard]] std::vector<std::string> mix_daemon_args(const MixInputs& mix);

// ------------------------------------------------------ replication study
/// replication_bench --smoke's scenario: the two-server system with
/// exponential laws and low delay, 12 + 6 tasks, L12 = 3, 300 replications,
/// deadline 60, slowdowns (rate 0.02, mean window 40 s, factor 0.1);
/// factor 1 only.
struct StudyInputs {
  agedtr::core::DcsScenario scenario;
  agedtr::core::DtrPolicy policy{2};
  agedtr::sim::ReplicationStudyOptions options;
};
[[nodiscard]] StudyInputs make_study_inputs(std::uint64_t seed,
                                            agedtr::ThreadPool* pool);
/// The two study cells (one operation each): intensity 0 and 2.
inline constexpr double kStudyIntensities[2] = {0.0, 2.0};

}  // namespace perfbench

// The four workloads and the layer probes.
//
// Every workload reports the same end-to-end metrics, each read against
// the workload's two operation kinds A and B:
//
//   workload            operation A            operation B          work item
//   table2_devise       cold devise            warm devise          devise
//   fleet_mc            plain batch (1024)     replicated batch     trajectory
//   agedtrd_mix         evaluate request       search request       request
//   replication_study   intensity-0 cell       intensity-2 cell     study cell
//
//   setup_s       median of the workload's repeated set-up
//   peak_rss_mb   peak resident set (agedtrd_mix: of the daemon process)
//   op_a_p50_ms   median wall time of an A operation
//   op_b_p50_ms   median wall time of a B operation
//   work_per_s    work items completed per second of measured time
//
// agedtrd_mix's request tail is not among them: on a shared 4-vCPU machine
// its run-to-run spread exceeds any bound the benchmark may set. The
// traced run reports it as service.request_p99_ms (mix_burst_p99).
//
// In a traced run (--trace 1) a workload runs run_traced_rounds and the
// layer probes then add every other per-layer metric.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"
#include "trace.hpp"

namespace perfbench {

void run_table2_devise(const RunConfig& config, Report& report);
void run_fleet_mc(const RunConfig& config, Report& report);
void run_agedtrd_mix(const RunConfig& config, Report& report);
void run_replication_study(const RunConfig& config, Report& report);

/// Per-layer metrics (see README.md for the layer → end-to-end mapping).
void run_layer_probes(const RunConfig& config, Report& report);

/// Adds the end-to-end metrics shared by every workload.
struct EndToEnd {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<double> a_seconds;
  std::vector<double> b_seconds;
  double work_items = 0.0;
  double measured_seconds = 0.0;
};
void report_end_to_end(const EndToEnd& e2e, Report& report);

/// A closed-loop burst of the agedtrd_mix request cycle (nproc clients, at
/// least `requests` requests) against the warm daemon at `socket`; returns
/// the 99th-percentile request latency in seconds. A bad reply fails
/// `report`.
double mix_burst_p99(const RunConfig& config, const MixInputs& mix,
                     const std::string& socket, std::size_t requests,
                     Report& report);

/// Traced mode: a warm-up round, an untraced round, then a traced round;
/// bench.trace_overhead_s is the traced round's time minus the untraced
/// round's.
template <typename F>
void run_traced_rounds(const RunConfig& config, F&& round, Report& report) {
  (void)run_rounds(0.0, round);
  const double untraced = run_rounds(0.0, round).elapsed;
  Tracer::global().enable(config.workload);
  const double traced = run_rounds(0.0, round).elapsed;
  report.metric("bench.trace_overhead_s", traced - untraced, "s",
                "traced round " + std::to_string(traced) +
                    " s minus untraced round " + std::to_string(untraced) +
                    " s");
}

}  // namespace perfbench

// agedtr_perfbench: one workload of the benchmark per invocation.
//
//   agedtr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --agedtrd <path> --work-dir <dir>
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when an operation
// failed or an output check did not hold, 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

void report_end_to_end(const EndToEnd& e2e, Report& report) {
  if (e2e.a_seconds.empty() || e2e.b_seconds.empty()) {
    report.fail("no operation of each kind completed");
    return;
  }
  report.metric("setup_s", e2e.setup_s, "s");
  report.metric("peak_rss_mb", e2e.peak_rss_mb, "MB");
  report.metric("op_a_p50_ms", median(e2e.a_seconds) * 1e3, "ms",
                std::to_string(e2e.a_seconds.size()) + " samples");
  report.metric("op_b_p50_ms", median(e2e.b_seconds) * 1e3, "ms",
                std::to_string(e2e.b_seconds.size()) + " samples");
  report.metric("work_per_s", e2e.work_items / e2e.measured_seconds, "1/s",
                std::to_string(static_cast<long long>(e2e.work_items)) +
                    " items in " + std::to_string(e2e.measured_seconds) + " s");
}

}  // namespace perfbench

namespace {

int usage(const std::string& problem) {
  std::cerr << "agedtr_perfbench: " << problem
            << "\nusage: agedtr_perfbench --workload "
               "<table2_devise|fleet_mc|agedtrd_mix|replication_study> "
               "--seed <n> --seconds <s> --trace <0|1> --agedtrd <path> "
               "--work-dir <dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage("bad argument '" + key + "'");
    }
    args[key.substr(2)] = argv[++i];
  }
  RunConfig config;
  try {
    config.workload = args.at("workload");
    config.seed = std::stoull(args.at("seed"));
    config.seconds = std::stod(args.at("seconds"));
    config.trace = args.at("trace") == "1";
    config.agedtrd = args.at("agedtrd");
    config.work_dir = args.at("work-dir");
  } catch (const std::exception&) {
    return usage("missing or malformed option");
  }
  config.threads = std::max(1u, std::thread::hardware_concurrency());

  const std::map<std::string, void (*)(const RunConfig&, Report&)> workloads =
      {{"table2_devise", run_table2_devise},
       {"fleet_mc", run_fleet_mc},
       {"agedtrd_mix", run_agedtrd_mix},
       {"replication_study", run_replication_study}};
  const auto found = workloads.find(config.workload);
  if (found == workloads.end()) {
    return usage("unknown workload '" + config.workload + "'");
  }

  Report report;
  try {
    found->second(config, report);
    if (config.trace) {
      run_layer_probes(config, report);
      const std::string path = config.work_dir + "/trace-" + config.workload +
                               "-" + std::to_string(config.seed) + ".json";
      if (!Tracer::global().write(path)) report.fail("could not write " + path);
      std::printf("chrome trace: %s (%zu spans)\n", path.c_str(),
                  Tracer::global().spans().size());
    }
  } catch (const std::exception& e) {
    std::cerr << "agedtr_perfbench: " << config.workload
              << " aborted: " << e.what() << "\n";
    return 1;
  }
  std::printf("%s: %zu operations, %zu failed\n%s", config.workload.c_str(),
              report.attempted(), report.failed(), report.table().c_str());
  std::printf("%s\n", report.json_line().c_str());
  std::fflush(stdout);
  return report.correct() && report.attempted() > 0 ? 0 : 1;
}

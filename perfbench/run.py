#!/usr/bin/env python3
"""Build agedtr in Release from perfbench/CMakeLists.txt and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test     # the benchmark's own unit tests

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and is a no-op once up to date. The workload binary prints
human-readable lines and, as its last line, the JSON result; this script
passes its output and exit code through.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table2_devise", "fleet_mc", "agedtrd_mix", "replication_study")


def build(build_dir, targets):
    """Configure (once) and build the targets; build output goes to a log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no agedtr sources at %s/src; run from a full "
                 "checkout" % ROOT)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                sys.exit("perfbench: cmake configure failed, see " + log_path)
        command = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                   "--target"] + targets
        if subprocess.call(command, stdout=log, stderr=log) != 0:
            sys.exit("perfbench: build failed, see " + log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if args.self_test:
        build(build_dir, ["perfbench_tests"])
        return subprocess.call([os.path.join(build_dir, "perfbench_tests")])
    if args.workload is None:
        parser.error("--workload is required")

    build(build_dir, ["agedtr_perfbench", "agedtrd"])
    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    # Relative paths keep the daemon's UNIX socket path short.
    command = [os.path.join(build_dir, "agedtr_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--agedtrd", os.path.join(build_dir, "agedtr", "src",
                                         "service", "agedtrd"),
               "--work-dir", os.path.relpath(work_dir, ROOT)]
    return subprocess.call(command, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())

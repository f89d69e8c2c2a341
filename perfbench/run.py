#!/usr/bin/env python3
"""Repository benchmark: builds the measured programs from this checkout
and runs one workload once.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds a
Release tree in .bench_build/ (libmrperf, predictd, predict_router and
the runner in perfbench/src/); later runs rebuild only what changed. The
last line of standard output is the result object of the runner; build
output goes to standard error. See perfbench/README.md for the workloads
and metrics.
"""

import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# The runner itself must end well inside the 180 s a run is allowed.
RUNNER_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the Release tree; False on failure."""
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", "4"],
                       stdout=sys.stderr) != 0:
        return False
    # Timings from a debug or sanitizer build would not be comparable.
    with open(cache) as f:
        settings = f.read()
    for required in ("CMAKE_BUILD_TYPE:STRING=Release",
                     "MRPERF_SANITIZE:BOOL=OFF", "MRPERF_TSAN:BOOL=OFF"):
        if required not in settings:
            print(f"perfbench: build is not {required}", file=sys.stderr)
            return False
    return True


def die_with_parent():
    """Runs in the runner before exec: SIGKILL it if this script dies, so
    the runner (and, through its own setting, every server) never
    outlives a killed run."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def stop(signo, _frame):
    raise KeyboardInterrupt(f"signal {signo}")


def main():
    for signo in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signo, stop)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src")) or not build():
        print("perfbench: cannot build the programs under test",
              file=sys.stderr)
        return 1

    command = [
        os.path.join(BUILD_DIR, "perfbench_runner"),
        f"--workload={args.workload}", f"--seed={args.seed}",
        f"--seconds={args.seconds}", f"--trace={args.trace}",
        f"--bin-dir={os.path.join(BUILD_DIR, 'mrperf')}",
        f"--reference={os.path.join(HERE, 'paper_reference.json')}",
    ]
    # Own process group, so every server the runner spawned goes with it
    # if the runner has to be stopped.
    runner = subprocess.Popen(command, stdout=subprocess.PIPE,
                              start_new_session=True,
                              preexec_fn=die_with_parent)
    try:
        out, _ = runner.communicate(timeout=RUNNER_TIMEOUT_S)
    except BaseException:
        os.killpg(runner.pid, signal.SIGKILL)
        runner.wait()
        print("perfbench: runner timed out or was interrupted",
              file=sys.stderr)
        return 1
    lines = out.decode().strip().splitlines()
    if runner.returncode != 0 or not lines:
        print(f"perfbench: runner failed with {runner.returncode}",
              file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())

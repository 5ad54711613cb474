#!/usr/bin/env python3
"""Campaign benchmark: builds campaign_bench from source and runs one workload.

    python3 perfbench/run.py --workload full|bank --seed N \\
        --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
simulator libraries plus campaign_bench into .bench_build/perfbench
(RelWithDebInfo, the repository's default build type); later calls only
re-run the incremental build. The timed campaigns write a scratch journal
there, which campaign_bench deletes. campaign_bench's JSON result is
re-printed as the last line of stdout; build chatter goes to stderr. Exits
non-zero, printing no result, when the build or the run fails or the result
is malformed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("full", "bank")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, stdout=None):
    """Runs cmd in its own process group, killing the whole group if it
    outlives `timeout`; fails the benchmark on error. Returns its stdout
    when `stdout` is subprocess.PIPE."""
    with subprocess.Popen(cmd, stdout=stdout or sys.stderr, stderr=sys.stderr,
                          text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit {proc.returncode}: {' '.join(cmd)}")
    return out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run(cmd, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", BUILD, "--target", "campaign_bench",
         "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "campaign_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           "--journal=" + os.path.join(BUILD, f"journal-{args.workload}.jsonl")]
    lines = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE).strip().splitlines()
    if not lines:
        fail("campaign_bench printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("campaign_bench printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            result["attempted"] < 1:
        fail("malformed result: " + lines[-1])
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

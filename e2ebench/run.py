#!/usr/bin/env python3
"""Builds and runs the s3lb end-to-end benchmark for one workload.

usage: python3 e2ebench/run.py --workload replay-s3|pipeline-full|all
                               --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
s3lb libraries, the s3lb CLI and the benchmark (Release) into
.bench_build/; later runs rebuild only what changed. Each run executes
the benchmark's self-test, then the workload, and prints the workload's
JSON summary as the last line of stdout (`all` runs both in turn, one
summary line each). The human-readable report goes to stderr;
result and span files go to .bench_out/.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("replay-s3", "pipeline-full")
RUN_TIMEOUT_S = 170


_running = []  # the child process of the current step, if any


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout=None, **kwargs):
    """Runs `cmd` in its own process group and waits for it; on a
    timeout or a signal to this script the whole group is killed."""
    child = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    _running.append(child)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop()
    _running.pop()
    return child.returncode, out


def stop(*_):
    for child in _running:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    fail("stopped before the run finished")


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    """Configures (once) and builds; serialised by a lock so concurrent
    runs in one checkout never build over each other."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"s3lb sources not found under {ROOT}/src")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(OUT_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", str(jobs())])
        for cmd in steps:
            if run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)[0]:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (see .bench_out/build.log)")


def commit():
    if os.path.exists(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    return "unknown (not a git checkout)"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(workload, args):
    """Runs one workload; returns its exit code and summary line."""
    cmd = [os.path.join(BUILD_DIR, "e2ebench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", OUT_DIR, "--cli", os.path.join(BUILD_DIR, "s3lb"),
           "--commit", commit()]
    # The CLI the benchmark spawns joins its process group.
    code, out = run(cmd, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                    text=True, cwd=ROOT)
    lines = out.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result (exit {code})")
    result = json.loads(lines[-1])
    got = list(result["metrics"])
    want = expected_metrics(args.trace == "1")
    if got != want:
        fail(f"metrics {got} do not match BENCHMARK.json {want}")
    return code, lines[-1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    os.makedirs(OUT_DIR, exist_ok=True)
    build()
    if run([os.path.join(BUILD_DIR, "e2ebench_selftest")])[0]:
        fail("benchmark self-test failed")

    worst = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        code, line = run_workload(workload, args)
        print(line, flush=True)
        worst = max(worst, code)
    sys.exit(worst)


if __name__ == "__main__":
    main()

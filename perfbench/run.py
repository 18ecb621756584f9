#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

    python3 perfbench/run.py --workload mix_cold --seed 1 --seconds 10 --trace 0

Run from the repository root. The build (Release, from ../src) lives in
.bench_build/perfbench; each run works in its own .bench_build/run-<pid>
directory, which is removed afterwards. Traced runs keep their span log in
.bench_build/spans/. The last line of stdout is the JSON result.
"""

import argparse
import fcntl
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BENCH_BUILD, "perfbench")
SPAN_DIR = os.path.join(BENCH_BUILD, "spans")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once and rebuilds incrementally; serialized by a lock."""
    os.makedirs(BENCH_BUILD, exist_ok=True)
    with open(os.path.join(BENCH_BUILD, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 2

    run_dir = os.path.join(BENCH_BUILD, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # Relative paths keep the server's unix-socket path short.
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", os.path.relpath(run_dir, ROOT)]
    os.sync()  # settle earlier runs' write-back before measuring
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        os.makedirs(SPAN_DIR, exist_ok=True)
        for spans in glob.glob(os.path.join(run_dir, "spans-*.jsonl")):
            shutil.move(spans, os.path.join(SPAN_DIR, os.path.basename(spans)))
        shutil.rmtree(run_dir, ignore_errors=True)
        os.sync()  # let the deleted files' blocks be freed now, not later

    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1], file=sys.stderr)
        log("perfbench exited with %d" % proc.returncode)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log("malformed result line: " + lines[-1])
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

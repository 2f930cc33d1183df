#!/usr/bin/env python3
"""Locus search benchmark: build, run one workload, print one JSON result.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke     # every workload once, reduced size
  python3 perfbench/run.py --all --seed N --seconds S   # every workload

The first call builds the Locus library from src/ and the benchmark driver
into .bench_build/ (an optimized RelWithDebInfo build; locus_perfbench
refuses to measure sanitizer or unoptimized builds). Everything a run writes stays
under .bench_build/: the build, scratch state, per-run records
(.bench_build/results/) and traces (.bench_build/traces/).

The last line of standard output is locus_perfbench's JSON result; this script
checks its schema against BENCHMARK.json before passing it on. Workloads,
metrics and the layer each one measures are described in perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN_DIR = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(BIN_DIR, "locus_perfbench")
WORKLOADS = ["dgemm-fig7", "polybench-cold", "dgemm-serve"]
# A run must end within 180 s; this leaves margin for the build check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Locus sources at %s/src; run from a repository checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = [
            ["cmake", "-S", HERE, "-B", BIN_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", BIN_DIR, "-j", jobs],
        ]
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        with open(log_path, "w") as log:
            for cmd in steps:
                left = deadline - time.monotonic()
                try:
                    rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                        timeout=max(1, left)).returncode
                except (OSError, subprocess.TimeoutExpired) as e:
                    fail("build step %s failed: %s" % (cmd[:2], e))
                if rc != 0:
                    with open(log_path) as f:
                        sys.stderr.write("".join(f.readlines()[-30:]))
                    fail("build failed (log: %s)" % log_path)
    if not os.access(BINARY, os.X_OK):
        fail("build produced no %s" % BINARY)


def commit_id():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_schema(result, trace):
    """Returns a list of problems with one result object."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool):
            problems.append("%s is not a whole number" % k)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s"
                        % (sorted(set(want) - set(got)),
                           sorted(set(got) - set(want))))
    for name, m in got.items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            problems.append("metric %s is malformed" % name)
        elif name in want and m["unit"] != want[name]:
            problems.append("metric %s has unit %s, want %s"
                            % (name, m["unit"], want[name]))
    return problems


def run_workload(workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs locus_perfbench once; returns (exit code, parsed result or None)."""
    for sub in ("tmp", "work", "results", "traces"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    tag = "%s-seed%s-trace%d%s" % (workload, seed, trace, "-smoke" if smoke else "")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(BUILD, "work", "%s-%d" % (tag, os.getpid())),
           "--record", os.path.join(BUILD, "results", tag + ".json"),
           "--commit", commit_id()]
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD, "traces", tag + ".json")]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: %s timed out after %d s" % (tag, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, None
    lines = out.rstrip("\n").split("\n")
    if echo:
        # Everything but the result line goes to stderr, so that the result
        # is the last line of standard output whatever happens below.
        sys.stderr.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print("perfbench: %s printed no result line" % tag, file=sys.stderr)
        return proc.returncode or 1, None
    problems = check_schema(result, trace)
    if problems:
        print("perfbench: %s result schema: %s" % (tag, "; ".join(problems)),
              file=sys.stderr)
        return proc.returncode or 1, None
    return proc.returncode, result


def smoke():
    """The benchmark's own test: every workload once, both result kinds."""
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.monotonic()
            rc, result = run_workload(workload, 1, 0, trace, smoke=True,
                                      echo=False)
            ok = rc == 0 and result is not None and result["correct"]
            failures += not ok
            print("smoke %-15s trace=%d %s (%.1f s)"
                  % (workload, trace, "ok" if ok else "FAILED rc=%d" % rc,
                     time.monotonic() - t0))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--all", action="store_true")
    args = ap.parse_args()
    if not (args.smoke or args.all or args.workload):
        ap.error("give --workload, --all or --smoke")
    build()
    if args.smoke:
        return smoke()
    if args.all:
        rc_all = 0
        for workload in WORKLOADS:
            rc, result = run_workload(workload, args.seed, args.seconds,
                                      args.trace, echo=False)
            rc_all |= rc != 0 or result is None
            if result is None:
                print("%-15s FAILED" % workload)
                continue
            cells = ["%s %.6g %s" % (k, m["value"], m["unit"])
                     for k, m in result["metrics"].items()]
            print("%-15s correct=%s attempted=%d failed=%d | %s"
                  % (workload, result["correct"], result["attempted"],
                     result["failed"], ", ".join(cells)))
        return 1 if rc_all else 0
    rc, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return rc or 1
    print(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())

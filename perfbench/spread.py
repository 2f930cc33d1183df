#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, judged against their bounds.

Usage (from the repository root):

  python3 perfbench/spread.py [--workloads W,...] [--seeds 1-10] [--out FILE]

Runs `perfbench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0` once per seed, then reports for every end-to-end metric its
median and its spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. A benchmark is steady
when every spread, setup_s's too, stays below a third of the metric's
bound in BENCHMARK.json. The time metrics are stated at the reference
host's speed (host factor, perfbench/README.md); the spread of the same
runs' times as measured is printed beside them, the with/without comparison
the host factor has to win. --out writes every run's record (header: build
type, compiler, machine model, nproc, seed, commit; host factor, measured
times and result) and the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def spread_of(vals):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        measured = {}
        runs = []
        for seed in seeds_of(args.seeds):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = proc.stdout.strip().split("\n")
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            wall = time.monotonic() - t0
            if result is None or not result["correct"]:
                print("%s seed %d: FAILED (rc %d)" % (workload, seed,
                                                      proc.returncode))
                steady = False
                continue
            record = os.path.join(ROOT, ".bench_build", "results",
                                  "%s-seed%d-trace0.json" % (workload, seed))
            with open(record) as f:
                runs.append({"wall_s": wall, "record": json.load(f)})
            for name, v in runs[-1]["record"]["measured"].items():
                measured.setdefault(name, []).append(v)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s (%.0f s)" % (
                workload, seed, ", ".join("%s %.5g" % (n, v[-1])
                                          for n, v in values.items()), wall),
                  flush=True)
        summary = {}
        for name, vals in values.items():
            if len(vals) < 4:
                continue
            spread = spread_of(vals)
            ok = spread < bounds[name] / 3
            steady &= ok
            summary[name] = {"median": statistics.median(vals),
                             "spread": spread, "bound": bounds[name],
                             "steady": ok}
            note = ""
            if name in measured:
                summary[name]["measured_spread"] = spread_of(measured[name])
                note = " (as measured: %.4f)" % summary[name]["measured_spread"]
            print("  %-13s median %-12.6g spread %.4f (bound %.2f, 1/3 = "
                  "%.4f) %s%s" % (name, statistics.median(vals), spread,
                                  bounds[name], bounds[name] / 3,
                                  "ok" if ok else "WIDE", note), flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness report: runs each workload repeatedly (one seed per run) and
prints, for every end-to-end metric, the median, the quartiles and the
spreads against the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10]
                                    [--seconds N] [--out report.json]
                                    [--compare earlier-report.json]

Run from the root of the checkout. The quartile spread is
(q3 - q1) / median with Python's statistics.quantiles(values, n=4); a
metric is steady when that spread is below a third of its bound. Every
run must also report correct=true and failed=0. The exit status is 0 when
every spread (setup_s excepted) is within its bound. With --compare, each
median is also set against the same metric's median in an earlier report
of the same code: it must not be worse by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d: exit %d" % (workload, seed,
                                                    out.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="also write the report as JSON here")
    ap.add_argument("--compare", help="earlier report (--out) to set the "
                    "medians against")
    args = ap.parse_args()
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    report = {}
    # within: what a run set must meet (spread within the bound, no median
    # worse than the earlier report's by more than the bound, every run
    # correct). steady: every spread also below a third of its bound.
    within = steady_all = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            res = run_once(workload, seed, args.seconds)
            runs.append(res)
            print("%s seed %d: correct=%s attempted=%d failed=%d" %
                  (workload, seed, res["correct"], res["attempted"],
                   res["failed"]), flush=True)
            within &= res["correct"] and res["failed"] == 0
        print("\n%s (%d runs, --seconds %d)" % (workload, len(runs),
                                                args.seconds))
        print("%-20s %12s %12s %12s %8s %8s %6s %8s  %s" %
              ("metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound",
               "worse", "verdict"))
        rows = {}
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            iqr = (q3 - q1) / med if med else float("inf")
            rng = (max(vals) - min(vals)) / med if med else float("inf")
            steady = iqr < m["bound"] / 3
            if m["name"] != "setup_s":
                within &= iqr <= m["bound"]
                steady_all &= steady
            verdict = "steady" if steady else (
                "within bound" if iqr <= m["bound"] else "TOO NOISY")
            # How much worse this median is than the earlier report's.
            worse = float("nan")
            prev = earlier.get(workload, {}).get(m["name"])
            if prev and prev["median"]:
                sign = 1 if m["better"] == "lower" else -1
                worse = sign * (med - prev["median"]) / prev["median"]
                if worse > m["bound"]:
                    verdict += ", MEDIAN WORSE THAN EARLIER"
                    within = False
            print("%-20s %12.6g %12.6g %12.6g %8.4f %8.4f %6.3f %8.4f  %s" %
                  (m["name"], med, q1, q3, iqr, rng, m["bound"], worse,
                   verdict))
            rows[m["name"]] = {"values": vals, "median": med, "q1": q1,
                               "q3": q3, "iqr_over_median": iqr,
                               "range_over_median": rng, "bound": m["bound"]}
        report[workload] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    print("\nresult: %s, %s" %
          ("within bounds" if within else "NOT within bounds",
           "every spread below a third of its bound" if steady_all else
           "some spreads above a third of their bound"))
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())

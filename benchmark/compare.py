#!/usr/bin/env python3
"""Compare two sets of benchmark result directories.

    benchmark/compare.py A_DIR [A_DIR ...] -- B_DIR [B_DIR ...]

Each DIR is searched recursively for result.json files written by untraced
runs of benchmark/run.sh (traced runs are skipped). Side A is the baseline
(the parent commit, or the first half of an A/A check), side B the change.
For every (workload, end-to-end metric) pair the script prints each side's
median and quartiles (statistics.quantiles, n=4), the run-to-run spread
(the distance between the quartiles as a share of the median) and a
verdict against the metric's bound in BENCHMARK.json:

  ok           B's median is not worse than A's by more than the bound
  REGRESSION   B's median is worse than A's by more than the bound
  unresolved   a side's spread exceeds the bound, so the data cannot tell
               (unless every B run beats every A run: then "better")
  better       B beats A by more than A's own spread

Runs flagged invalid (more than 1% of nominal sends left over 1 ms late)
are listed and left out of the medians and quartiles; a workload with no
valid run on a side is unresolved. Result sets whose host stamps (CPU
count, CPU model, ISA flags, compiler) differ are refused. Exit codes: 0
all ok/better, 1 any REGRESSION, unresolved pair or incorrect run, 2 bad
usage or refused comparison.
"""

import json
import os
import statistics
import sys

HOST_KEYS = ("nproc", "cpu_model", "isa", "compiler")
BUILD_KEYS = ("build_type", "pnp_native", "pnp_parallel")


def load_results(dirs):
    out = []
    for d in dirs:
        if not os.path.isdir(d):
            sys.exit(f"compare.py: no such directory: {d}")
        for root, _, files in os.walk(d):
            if "result.json" in files:
                path = os.path.join(root, "result.json")
                with open(path) as f:
                    r = json.load(f)
                if not r.get("trace"):
                    r["_path"] = path
                    out.append(r)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    cut = argv.index("--")
    side_a, side_b = load_results(argv[:cut]), load_results(argv[cut + 1:])
    if not side_a or not side_b:
        print("compare.py: each side needs at least one untraced result.json",
              file=sys.stderr)
        return 2

    stamps = {tuple(r["stamp"][k] for k in HOST_KEYS) for r in side_a + side_b}
    if len(stamps) > 1:
        print("compare.py: refusing to compare results from different hosts:",
              file=sys.stderr)
        for s in sorted(stamps, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, s)),
                  file=sys.stderr)
        return 2
    builds = {tuple(r["stamp"][k] for k in BUILD_KEYS) for r in side_a + side_b}
    if len(builds) > 1:
        print("note: build options differ between runs: "
              + "; ".join(", ".join(f"{k}={v}" for k, v in zip(BUILD_KEYS, b))
                          for b in sorted(builds, key=str)))

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]

    status = 0
    for side, runs in (("A", side_a), ("B", side_b)):
        for r in runs:
            if not r["correct"]:
                print(f"INCORRECT run on side {side}: {r['_path']}")
                status = 1
            if not r.get("valid", True):
                print(f"left out: side {side} run flagged invalid "
                      f"(late generator): {r['_path']}")
    workloads = sorted({r["workload"] for r in side_a} |
                       {r["workload"] for r in side_b})
    # Invalid runs measured the host, not the code: they take no part in
    # the medians and quartiles.
    side_a = [r for r in side_a if r.get("valid", True)]
    side_b = [r for r in side_b if r.get("valid", True)]
    header = (f"{'workload':16} {'metric':16} {'A median [q1, q3]':>36} "
              f"{'B median [q1, q3]':>36} {'worse':>8} {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    for w in workloads:
        ra = [r for r in side_a if r["workload"] == w]
        rb = [r for r in side_b if r["workload"] == w]
        if not ra or not rb:
            print(f"{w:16} unresolved: no valid run on side "
                  f"{'B' if ra else 'A'}")
            status = 1
            continue
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            va = [r["metrics"][name]["value"] for r in ra if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in rb if name in r["metrics"]]
            if not va or not vb:
                print(f"{w:16} {name:16} missing on a side")
                status = 1
                continue
            a1, am, a3 = quartiles(va)
            b1, bm, b3 = quartiles(vb)
            spread_a = (a3 - a1) / am if am else 0.0
            spread_b = (b3 - b1) / bm if bm else 0.0
            worse = ((bm - am) if lower else (am - bm)) / am if am else 0.0
            all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
            if spread_a > bound or spread_b > bound:
                verdict = "better" if all_better else "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
            elif -worse > spread_a and spread_a > 0:
                verdict = "better"
            else:
                verdict = "ok"
            if verdict in ("REGRESSION", "unresolved"):
                status = 1
            print(f"{w:16} {name:16} "
                  f"{am:14.6g} [{a1:9.4g}, {a3:9.4g}] "
                  f"{bm:14.6g} [{b1:9.4g}, {b3:9.4g}] "
                  f"{worse * 100:+7.1f}% {bound:6.3f}  {verdict}"
                  f"  (spread A {spread_a * 100:.1f}%, B {spread_b * 100:.1f}%;"
                  f" n={len(va)}/{len(vb)})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

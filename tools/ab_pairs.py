#!/usr/bin/env python3
"""Alternating pairs of benchmark runs on two checkouts, and their verdict.

    python3 tools/ab_pairs.py PARENT CHANGE --workload wide-samples \\
        --seed 0 --seconds 35 --pairs 10 [--metric pass_s]

PARENT and CHANGE are two checkouts of the repository.  Each pair runs
``perfbench/run.py --trace 0`` once in each, one run at a time; even
pairs run the parent first and odd pairs the change, so drift of the
machine falls on both sides alike.  Every run's end-to-end metrics are
printed as it finishes, then each side's median and quartiles of every
metric, and the pairs the change won on ``--metric`` (ties count for
neither side).  The verdict follows the rule for claiming a gain: the
change must win at least nine tenths of the pairs, and the medians must
differ, in the metric's better direction, by more than the distance
between the parent's quartiles.  The better direction of each metric is
read from the change's BENCHMARK.json.  Standard library only; exits 2
when a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, args) -> dict:
    """The JSON result line of one untraced benchmark run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {checkout}: benchmark exited {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        sys.exit(2)
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--metric", default="pass_s")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.metric not in better:
        ap.error(f"--metric must be one of {sorted(better)}")

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change")[:: 1 if i % 2 == 0 else -1]:
            res = run_once(getattr(args, side), args)
            runs[side].append(res)
            shown = " ".join(f"{k}={v['value']:.6g}"
                             for k, v in res["metrics"].items())
            print(f"pair {i} {side}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {shown}",
                  flush=True)

    def values(side, name):
        return [r["metrics"][name]["value"] for r in runs[side]]

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs: median [q1, q3]")
    for name in runs["parent"][0]["metrics"]:
        cells = []
        for side in ("parent", "change"):
            q1, med, q3 = quartiles(values(side, name))
            cells.append(f"{side} {med:.6g} [{q1:.6g}, {q3:.6g}]")
        print(f"  {name} ({better.get(name, '?')} is better): "
              + "  ".join(cells))

    sign = -1.0 if better[args.metric] == "lower" else 1.0
    par, chg = values("parent", args.metric), values("change", args.metric)
    wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
    losses = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
    q1, p_med, q3 = quartiles(par)
    c_med = statistics.median(chg)
    gap = sign * (c_med - p_med)
    print(f"{args.metric}: change won {wins} of {args.pairs} pairs "
          f"({losses} lost); median gap {gap:.6g} in the better direction "
          f"against the parent's quartile distance {q3 - q1:.6g}")
    gain = wins >= 0.9 * args.pairs and gap > q3 - q1
    print(f"verdict: {'gain' if gain else 'no gain'} on {args.metric}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

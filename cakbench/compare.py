#!/usr/bin/env python3
"""Compare two sets of benchmark records (``run.py --out``) metric by metric.

    python3 cakbench/compare.py --base base/*.json --head head/*.json

For every workload and end-to-end metric it prints each side's median and
quartiles, the change of the head's median as a share of the base's, and a
verdict against the metric's bound in BENCHMARK.json: ``worse`` beyond the
bound, ``unresolved`` when the base's own quartile spread exceeds the bound,
``ok`` otherwise.  Records whose kernel backend differs are refused (exit 2):
the compiled and pure kernels differ by about 1.25x on their own.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    by_workload = {}
    for path in paths:
        rec = json.loads(Path(path).read_text())
        by_workload.setdefault(rec["provenance"]["workload"], []).append(rec)
    return by_workload


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, head = load(args.base), load(args.head)
    settings = {
        (r["provenance"]["kernel_backend"], r["provenance"]["seconds"], r["provenance"]["trace"])
        for recs in (*base.values(), *head.values())
        for r in recs
    }
    if len(settings) != 1:
        print(f"refusing to compare runs with different (backend, seconds, trace): {sorted(settings)}",
              file=sys.stderr)
        return 2
    metrics = {m["name"]: m for m in json.loads(SPEC.read_text())["end_to_end"]}
    worse = False
    for workload in sorted(set(base) & set(head)):
        b_recs, h_recs = base[workload], head[workload]
        failed = sum(r["failed"] for r in h_recs) - sum(r["failed"] for r in b_recs)
        print(f"{workload}: {len(b_recs)} base runs, {len(h_recs)} head runs, "
              f"{failed:+d} failed ops in head")
        for name, m in metrics.items():
            b = [r["metrics"][name]["value"] for r in b_recs]
            h = [r["metrics"][name]["value"] for r in h_recs]
            bq, hq = quartiles(b), quartiles(h)
            change = (hq[1] - bq[1]) / bq[1]
            loss = change if m["better"] == "lower" else -change
            spread = (bq[2] - bq[0]) / bq[1]
            if spread > m["bound"]:
                verdict = "unresolved"
            elif loss > m["bound"]:
                verdict, worse = "worse", True
            else:
                verdict = "ok"
            print(f"  {name:<12} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                  f"head {hq[1]:.6g} [{hq[0]:.6g}, {hq[2]:.6g}]  {change:+.1%} {m['unit']}  "
                  f"bound {m['bound']:.0%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

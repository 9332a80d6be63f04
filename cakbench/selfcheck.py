#!/usr/bin/env python3
"""Check the benchmark itself.

    python3 cakbench/selfcheck.py [--seed 7]

1. BENCHMARK.json is exactly what ``run.py`` defines.
2. Each workload's traced run, made twice in fresh processes with the same
   seed, reports identical work counters (every per-layer metric that is a
   count or a ratio of counts), and both runs are correct.
Exit status 0 when both hold.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def traced_counts(workload, seed, path):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1", "--out", str(path)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    rec = json.loads(path.read_text())
    counts = {k: v["value"] for k, v in rec["metrics"].items() if v["unit"] in ("count", "ratio")
              and not k.startswith("trace.")}
    return rec["correct"], rec["provenance"]["kernel_backend"], counts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    ok = True
    if json.loads(run.SPEC.read_text()) != run.spec():
        print("BENCHMARK.json differs from run.spec(); rewrite it with run.py --write-spec")
        ok = False
    tmp = run.ROOT / ".cakbench_tmp" / f"selfcheck-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for name in run.WORKLOADS:
            first = traced_counts(name, args.seed, tmp / f"{name}.1.json")
            second = traced_counts(name, args.seed, tmp / f"{name}.2.json")
            differ = sorted(k for k in first[2] if first[2][k] != second[2][k])
            good = first[0] and second[0] and first[1] == second[1] and not differ
            print(f"{name}: {'identical counters' if good else 'MISMATCH'} "
                  f"({len(first[2])} counters, backend {first[1]}){' ' + str(differ) if differ else ''}")
            ok = ok and good
    finally:
        for f in tmp.glob("*"):
            f.unlink()
        tmp.rmdir()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

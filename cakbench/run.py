#!/usr/bin/env python3
"""The cak benchmark: one closed-loop client, one workload per process.

    python3 cakbench/run.py --workload gb-dense --seed 3 --seconds 20 --trace 0
    python3 cakbench/run.py --seed 3              # all four, one process each

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes over a fixed set of
ops and reports per-layer work counters and self times.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md in this directory for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))

from tracing import HIGHER_IS_BETTER, LAYER_METRICS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

RUN_SECONDS = 25
SETUP_REPEATS = 7
OP_BUDGET = 10**7  # pair budget per op; exceeding it fails the op

# end-to-end metrics: name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "op_s.p50": ("s", "lower", 0.25),
    "op_s.p90": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.15),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
}


def spec():
    """The BENCHMARK.json this benchmark implements."""
    return {
        "command": ["python3", "cakbench/run.py"],
        "paths": ["cakbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "higher" if n in HIGHER_IS_BETTER else "lower"}
            for n, u in LAYER_METRICS.items()
        ],
    }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def input_digest(workload, inp) -> str:
    return digest(json.dumps([workload.name, inp], sort_keys=True))


# -- provenance ------------------------------------------------------------------


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git alone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cak").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(cak, args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": cak.KERNEL_BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "source_digest": source_digest(),
    }


# -- calibrated time ----------------------------------------------------------------

# The host's speed drifts by tens of percent over minutes (other tenants,
# frequency changes), far more than the bounds.  So every timed interval is
# bracketed by calibration slices -- a fixed sparse polynomial product in
# plain Python, independent of cak -- and scaled to the reference speed at
# which one slice takes CAL_REF_S.  Raw wall times are reported beside.
CAL_REF_S = 0.0005
_CAL_POLY = {i * 7919 % 1000003: (i * 31 + 1) % 32003 for i in range(48)}


def _cal_kernel():
    out = {}
    for ka, ca in _CAL_POLY.items():
        for kb, cb in _CAL_POLY.items():
            k = ka + kb
            out[k] = (out.get(k, 0) + ca * cb) % 32003
    return out


def calibration_slice():
    """Fastest of three runs of the calibration kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _cal_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Times calls and scales each to the reference speed, using the
    calibration slices taken just before and just after it."""

    def __init__(self):
        self.last = calibration_slice()

    def time(self, fn):
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        after = calibration_slice()
        scaled = raw * CAL_REF_S / ((self.last + after) / 2)
        self.last = after
        return result, raw, scaled


# -- set-up ----------------------------------------------------------------------


def import_fresh(names):
    for mod in [m for m in sys.modules if m == "cak" or m.startswith("cak.")]:
        del sys.modules[mod]
    for name in names:
        importlib.import_module(name)
    return sys.modules["cak"]


def setup(workload, seed, workdir):
    """Import cak and write the workload's files SETUP_REPEATS times.
    Returns the median set-up time (calibrated, raw); the last import is
    the one measured."""
    clock = Clock()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        (cak, state), r, s = clock.time(
            lambda: (import_fresh(workload.modules), workload.setup(seed, workdir))
        )
        raw.append(r)
        scaled.append(s)
    where = Path(cak.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"error: imported cak from {where}, not from {SRC}")
    return cak, state, statistics.median(scaled), statistics.median(raw)


# -- the closed loop ---------------------------------------------------------------


class Ledger:
    """Outcome of every op: times, failures, and the digests seen."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.seen = {}  # input digest -> output digest, within this run
        self.raw = []
        self.scaled = []
        self.failures = {}  # op key -> problems
        self.referenced = 0
        self.pairs = 0

    def fail(self, key, problems):
        if problems:
            self.failures.setdefault(key, []).extend(problems)

    def record(self, key, inp, raw, scaled, output, error, pairs):
        w = self.workload
        self.raw.append(raw)
        self.scaled.append(scaled)
        self.pairs += pairs
        problems = [error] if error else []
        if output is not None:
            inp_digest, got = input_digest(w, inp), digest(output)
            want = self.reference.get(inp_digest)
            if want is not None:
                self.referenced += 1
                if got != want:
                    problems.append("output differs from the reference")
            if self.seen.setdefault(inp_digest, got) != got:
                problems.append("output differs from an earlier run of the same input")
            problems += w.check(inp, output)
        self.fail(key, problems)


def run_one(workload, state, inp, clock=None, tracer=None, op_id=0):
    """One op.  Returns (raw s, calibrated s, canonical output or None,
    error or None, kept objects, pairs); untimed when clock is None."""
    from cak.groebner import Budget

    budget = Budget(OP_BUDGET)

    def op():
        try:
            if tracer:
                return tracer.run_op(op_id, lambda: workload.run(state, inp, budget)), None
            return workload.run(state, inp, budget), None
        except Exception as e:  # any exception, ResourceLimitError included, fails the op
            return (None, None), f"{type(e).__name__}: {e}"

    if clock:
        ((output, kept), error), raw, scaled = clock.time(op)
    else:
        ((output, kept), error), raw, scaled = op(), 0.0, 0.0
    return raw, scaled, output, error, kept, budget.used


def closed_loop(workload, state, seed, seconds, ledger):
    clock = Clock()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        inp = workload.make_input(state, seed, i)
        raw, scaled, output, error, _, pairs = run_one(workload, state, inp, clock)
        ledger.record(i, inp, raw, scaled, output, error, pairs)
        i += 1


def certify(workload, state, seed, n_ops, ledger):
    """Outside the timed region: re-run a seeded sample of the ops, require
    the same output digest, and check each by the workload's independent
    route."""
    rng = random.Random(f"{seed}:certify:{workload.name}")
    sample = sorted(rng.sample(range(n_ops), min(workload.certify_ops, n_ops)))
    for i in sample:
        inp = workload.make_input(state, seed, i)
        _, _, output, error, kept, _ = run_one(workload, state, inp)
        problems = [error] if error else []
        if output is not None:
            if ledger.seen.get(input_digest(workload, inp)) != digest(output):
                problems.append("re-run output differs")
            problems += workload.certify(inp, kept)
        ledger.fail(i, [f"certify: {p}" for p in problems])
    return len(sample)


def quantile90(times):
    return statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]


def end_to_end(args, workload, state, setup_s, reference):
    ledger = Ledger(workload, reference)
    closed_loop(workload, state, args.seed, args.seconds, ledger)
    n = len(ledger.raw)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    certified = certify(workload, state, args.seed, n, ledger)
    ok = n - len(ledger.failures)
    p90 = quantile90(ledger.scaled)
    metrics = {
        "op_s.p50": statistics.median(ledger.scaled),
        "op_s.p90": p90,
        "ops_per_s": ok / sum(ledger.scaled),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s[0],
    }
    beyond = sum(t > p90 for t in ledger.scaled)
    info = {
        "ops": n,
        "failed": len(ledger.failures),
        "error_rate": len(ledger.failures) / n,
        "samples_beyond_p90": beyond,
        "reference_checked": ledger.referenced,
        "certified": certified,
        "pairs": ledger.pairs,
        "wall": {
            "op_s.p50": statistics.median(ledger.raw),
            "op_s.p90": quantile90(ledger.raw),
            "ops_per_s": ok / sum(ledger.raw),
            "setup_s": setup_s[1],
        },
    }
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p90; lengthen --seconds", file=sys.stderr)
    return metrics, info, ledger


# -- the traced run ------------------------------------------------------------------


def traced(args, workload, state, reference):
    """Alternate traced and untraced passes over the workload's first cycle
    of ops until --seconds have passed.  Work counters come from the first traced
    pass (they are exact); self times are averaged over traced passes."""
    n_ops = workload.cycle(state)
    inputs = [workload.make_input(state, args.seed, i) for i in range(n_ops)]
    ledger = Ledger(workload, reference)
    clock = Clock()
    op_times = {True: [], False: []}  # traced? -> calibrated op times
    self_times, counts, passes = [], None, 0
    start = time.perf_counter()
    while passes < 2 or time.perf_counter() - start < args.seconds:
        tracer = Tracer(keep_spans=bool(args.spans)) if passes % 2 == 0 else None
        if tracer:
            tracer.install()
        pairs = 0
        try:
            for i, inp in enumerate(inputs):
                raw, scaled, output, error, _, used = run_one(workload, state, inp, clock, tracer, i)
                pairs += used
                ledger.record(f"{passes}:{i}", inp, raw, scaled, output, error, used)
                op_times[tracer is not None].append(scaled)
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            self_times.append(tracer.self_times())
            if counts is None:
                counts = {"groebner.pairs": pairs, **tracer.exact_counts()}
                if args.spans:
                    tracer.dump_spans(args.spans)
        passes += 1
    metrics = dict(counts)
    for name in self_times[0]:
        metrics[name] = statistics.fmean(st[name] for st in self_times)
    metrics["trace.op_s.p50"] = statistics.median(op_times[True])
    metrics["trace.untraced_op_s.p50"] = statistics.median(op_times[False])
    metrics["trace.overhead_ratio"] = metrics["trace.op_s.p50"] / metrics["trace.untraced_op_s.p50"]
    info = {
        "ops": len(ledger.raw),
        "failed": len(ledger.failures),
        "error_rate": len(ledger.failures) / len(ledger.raw),
        "passes": passes,
        "ops_per_pass": n_ops,
        "reference_checked": ledger.referenced,
    }
    return {k: metrics[k] for k in LAYER_METRICS}, info, ledger


# -- modes ---------------------------------------------------------------------------


def run_workload(args):
    workload = WORKLOADS[args.workload]
    reference = load_reference().get(workload.name, {})
    workdir = ROOT / ".cakbench_tmp" / str(os.getpid())
    try:
        cak, state, *setup_s = setup(workload, args.seed, str(workdir))
        prov = provenance(cak, args)
        print("provenance " + json.dumps(prov, sort_keys=True))
        if args.trace:
            metrics, info, ledger = traced(args, workload, state, reference)
            units = LAYER_METRICS
        else:
            metrics, info, ledger = end_to_end(args, workload, state, setup_s, reference)
            units = {k: v[0] for k, v in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, problems in list(ledger.failures.items())[:20]:
        print(f"FAILED op {key}: " + "; ".join(problems))
    for name, value in metrics.items():
        print(f"{name:<36} {value:<14.6g} {units[name]}")
    for name, value in info.get("wall", {}).items():
        print(f"{'wall.' + name:<36} {value:<14.6g} {units[name]} (uncalibrated)")
    print(f"{'error_rate':<36} {info['error_rate']:<14.6g} ratio ({info['failed']} of {info['ops']} ops)")
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": not ledger.failures,
        "attempted": info["ops"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump({"provenance": prov, "info": info, **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own fresh process, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", f"{args.out}.{name}.json"]
        print(f"== {name}", flush=True)
        done = subprocess.run(cmd)
        status = status or done.returncode
    return status


def load_reference():
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())["digests"]


def record_reference():
    """Digest the first ``reference_cycles`` cycles of ops of every workload
    at the default seed: about three times what a run reaches now, so a
    faster cak still meets references."""
    out = {}
    for name, workload in WORKLOADS.items():
        workdir = ROOT / ".cakbench_tmp" / str(os.getpid())
        try:
            cak = import_fresh(workload.modules)
            state = workload.setup(DEFAULT_SEED, str(workdir))
            table = {}
            for i in range(workload.reference_cycles * workload.cycle(state)):
                inp = workload.make_input(state, DEFAULT_SEED, i)
                _, _, output, error, _, _ = run_one(workload, state, inp)
                if error or workload.check(inp, output):
                    raise SystemExit(f"{name} op {i} failed: {error or workload.check(inp, output)}")
                table[input_digest(workload, inp)] = digest(output)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        out[name] = table
        print(f"{name}: {len(table)} reference digests", flush=True)
    payload = {"seed": DEFAULT_SEED, "kernel_backend": cak.KERNEL_BACKEND, "digests": out}
    REFERENCE.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="one workload; omitted, all four run, each in its own process")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the full record (provenance included) here")
    ap.add_argument("--spans", default=None, help="traced run: write the raw spans here as JSON lines")
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json from the default seed")
    ap.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    args = ap.parse_args(argv)
    if not (SRC / "cak" / "__init__.py").is_file():
        print(f"error: no cak sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_spec:
        SPEC.write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

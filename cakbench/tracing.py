"""Spans and counters around the ``cak`` layers, installed from outside.

The tracer replaces functions at the names the calling module looks them
up: every ``cak`` module attribute that refers to a traced function, and the
class attribute for traced methods.  ``install`` does the swap and
``uninstall`` restores the originals, so untraced passes run the unmodified
code.  Nothing under ``src/cak`` changes.

A span is (span id, name, start, end, parent span id, op id).  Each op runs
inside a root span ``bench.op``; a layer's self time is its spans' durations
minus the time covered by their child spans.  Spans are aggregated as they
close; the raw records are kept only when asked for (``keep_spans``).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

SPAN_CAP = 1_000_000  # raw span records kept at most (memory bound)

# (span name, defining module, function, calling modules to patch or None for
# every cak module that refers to the function)
FUNCTION_SPANS = (
    ("kernel.normal_form", "cak._kernel", "normal_form_terms", None),
    ("polyring.parse", "cak.polyring", "parse_poly", None),
    ("polyring.parse", "cak.polyring", "parse_poly_list", None),
    ("groebner.buchberger", "cak.groebner", "buchberger", None),
    ("resolve.syzygy_step", "cak.groebner", "module_syzygies", ("cak.resolve",)),
    ("resolve.min_subset", "cak.groebner", "minimal_generating_subset", ("cak.resolve",)),
    ("resolve.minimalize", "cak.resolve", "presentation_minimalize", None),
    ("resolve.minimalize", "cak.resolve", "minimalize", None),
    ("quotient.standard_basis", "cak.quotient", "module_standard_basis", None),
    ("quotient.hom_rank", "cak.quotient", "_hom_rank", None),
    ("quotient.tensor_rank", "cak.quotient", "_tensor_rank", None),
    ("linalg.matrix_rank", "cak._linalg", "matrix_rank", None),
    ("ulrich.ar_check", "cak.ulrich", "ar_instance_check", None),
    ("cli.main", "cak.cli", "main", None),
    ("fileio.load", "cak.fileio", "load_ring", None),
    ("fileio.load", "cak.fileio", "load_module", None),
)
# span name -> (module, class, method)
METHOD_SPANS = (
    ("polyring.lcm_key", "cak.polyring", "RingPresentation", "lcm_key"),
    ("quotient.artinian_module", "cak.quotient", "ArtinianModule", "__init__"),
    ("quotient.standard_basis", "cak.quotient", "QuotientRing", "standard_basis"),
    ("resolve.resolutions", "cak.resolve", "ResolutionBuilder", "__init__"),
)

# per-layer metrics: name -> unit
LAYER_METRICS = {
    "kernel.normal_form.calls": "count",
    "kernel.normal_form.self_s": "s",
    "kernel.mul.calls": "count",
    "polyring.lcm_key.calls": "count",
    "polyring.lcm_key.self_s": "s",
    "polyring.parse.self_s": "s",
    "groebner.pairs": "count",
    "groebner.buchberger.calls": "count",
    "groebner.buchberger.self_s": "s",
    "groebner.reduce.calls": "count",
    "groebner.reduce.zero_ratio": "ratio",
    "groebner.basis_size": "count",
    "resolve.resolutions.calls": "count",
    "resolve.resolutions.distinct_ratio": "ratio",
    "resolve.syzygy_step.calls": "count",
    "resolve.syzygy_step.self_s": "s",
    "resolve.min_subset.calls": "count",
    "resolve.min_subset.self_s": "s",
    "resolve.minimalize.self_s": "s",
    "resolve.rank_sum": "count",
    "quotient.artinian_module.self_s": "s",
    "quotient.standard_basis.self_s": "s",
    "quotient.basis_times.calls": "count",
    "quotient.basis_times.hit_ratio": "ratio",
    "quotient.hom_rank.self_s": "s",
    "quotient.tensor_rank.self_s": "s",
    "linalg.matrix_rank.calls": "count",
    "linalg.matrix_rank.self_s": "s",
    "linalg.matrix_rank.cells": "count",
    "ulrich.ar_check.self_s": "s",
    "cli.main.self_s": "s",
    "fileio.load.self_s": "s",
    "bench.op.self_s": "s",
    "trace.op_s.p50": "s",
    "trace.untraced_op_s.p50": "s",
    "trace.overhead_ratio": "ratio",
}
# a higher value is better for these; lower for every other metric
HIGHER_IS_BETTER = {"resolve.resolutions.distinct_ratio", "quotient.basis_times.hit_ratio"}


def _module_key(module, over_quotient):
    """Canonical text of a module presentation, for the distinct-input ratio."""
    ring = module.ring
    return repr((
        ring.vars, ring.weights, str(ring.field), [str(r) for r in ring.relations],
        tuple(module.ambient.twists), [[str(p) for p in row] for row in module.relations.entries],
        bool(over_quotient),
    ))


class Tracer:
    def __init__(self, keep_spans=False):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()  # exact work counters that are not span counts
        self.module_keys = []
        self.builders = []  # ResolutionBuilder objects of the current op
        self.spans = [] if keep_spans else None
        self._stack = []  # open spans: [span id, time covered by children]
        self._next_id = 0
        self._op_id = -1
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def _enter(self):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        return frame, parent

    def _leave(self, name, frame, parent, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        if self.spans is not None and len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], name, t0, t1, parent, self._op_id))

    def span(self, name, fn):
        perf = time.perf_counter

        def traced(*args, **kwargs):
            frame, parent = self._enter()
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(name, frame, parent, t0, perf())

        return traced

    def run_op(self, op_id, fn):
        """Run one op under the root span; returns fn()."""
        self._op_id = op_id
        self.builders = []
        try:
            return self.span("bench.op", fn)()
        finally:
            for b in self.builders:
                self.counts["resolve.rank_sum"] += sum(m.rank for m in b.modules)
            self.builders = []

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_everywhere(self, original, wrapper, callers=None):
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "cak" or name.startswith("cak.")):
                continue
            if callers is not None and name not in callers:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        groebner = importlib.import_module("cak.groebner")
        kernel = importlib.import_module("cak._kernel")
        for name, modname, fname, callers in FUNCTION_SPANS:
            original = getattr(importlib.import_module(modname), fname)
            wrapper = self.span(name, original)
            if name == "groebner.buchberger":
                wrapper = self._after(wrapper, lambda args, res: self.counts.update(
                    {"groebner.basis_size": len(res)}))
            elif name == "linalg.matrix_rank":
                wrapper = self._before(wrapper, self._count_cells)
            self._wrap_everywhere(original, wrapper, callers)
        for name, modname, cls_name, method in METHOD_SPANS:
            cls = getattr(importlib.import_module(modname), cls_name)
            original = cls.__dict__[method]
            wrapper = self.span(name, original)
            if name == "resolve.resolutions":
                wrapper = self._after(wrapper, self._record_builder)
            self._set(cls, method, wrapper)

        # count-only wrappers for the hottest small calls
        mul = kernel.mul_terms
        self._wrap_everywhere(mul, self._before(mul, lambda args, kw: self.calls.update(
            ["kernel.mul"])))
        reduce = groebner.GroebnerEngine.reduce

        def counted_reduce(engine, terms):
            out = reduce(engine, terms)
            self.calls["groebner.reduce"] += 1
            if not out:
                self.counts["groebner.reduce.zero"] += 1
            return out

        self._set(groebner.GroebnerEngine, "reduce", counted_reduce)
        am = importlib.import_module("cak.quotient").ArtinianModule
        basis_times = am.basis_times

        def counted_basis_times(module, f, b):
            self.calls["quotient.basis_times"] += 1
            if b in getattr(module, "_op_cache", {}).get(f, ()):
                self.counts["quotient.basis_times.hits"] += 1
            return basis_times(module, f, b)

        self._set(am, "basis_times", counted_basis_times)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @staticmethod
    def _before(fn, hook):
        def wrapped(*args, **kwargs):
            hook(args, kwargs)
            return fn(*args, **kwargs)

        return wrapped

    @staticmethod
    def _after(fn, hook):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, result)
            return result

        return wrapped

    def _count_cells(self, args, kwargs):
        rows = args[0] if args else kwargs["rows"]
        self.counts["linalg.matrix_rank.cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def _record_builder(self, args, result):
        builder, module = args[0], args[1]
        self.module_keys.append(_module_key(module, builder.qrels))
        self.builders.append(builder)

    # -- metrics -----------------------------------------------------------------

    def exact_counts(self):
        """Work counters of this tracer's pass: identical for identical inputs."""
        calls, counts = self.calls, self.counts
        return {
            "kernel.normal_form.calls": calls["kernel.normal_form"],
            "kernel.mul.calls": calls["kernel.mul"],
            "polyring.lcm_key.calls": calls["polyring.lcm_key"],
            "groebner.buchberger.calls": calls["groebner.buchberger"],
            "groebner.reduce.calls": calls["groebner.reduce"],
            "groebner.reduce.zero_ratio": _ratio(counts["groebner.reduce.zero"], calls["groebner.reduce"]),
            "groebner.basis_size": counts["groebner.basis_size"],
            "resolve.resolutions.calls": calls["resolve.resolutions"],
            "resolve.resolutions.distinct_ratio": _ratio(len(set(self.module_keys)), len(self.module_keys)),
            "resolve.syzygy_step.calls": calls["resolve.syzygy_step"],
            "resolve.min_subset.calls": calls["resolve.min_subset"],
            "resolve.rank_sum": counts["resolve.rank_sum"],
            "quotient.basis_times.calls": calls["quotient.basis_times"],
            "quotient.basis_times.hit_ratio": _ratio(
                counts["quotient.basis_times.hits"], calls["quotient.basis_times"]
            ),
            "linalg.matrix_rank.calls": calls["linalg.matrix_rank"],
            "linalg.matrix_rank.cells": counts["linalg.matrix_rank.cells"],
        }

    def self_times(self):
        return {f"{name}.self_s": self.self_s[name] for name in _SELF_TIME_LAYERS}

    def dump_spans(self, path):
        with open(path, "w") as fh:
            for rec in self.spans or ():
                fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "op"), rec))))
                fh.write("\n")


_SELF_TIME_LAYERS = sorted(
    m[: -len(".self_s")] for m in LAYER_METRICS if m.endswith(".self_s")
)


def _ratio(num, den):
    return num / den if den else 0.0

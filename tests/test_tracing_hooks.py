"""The benchmark's tracer patches cak functions and methods by name; a
rename in cak must fail here rather than break ``cakbench/run.py --trace 1``."""

import importlib.util
import json
from pathlib import Path

import cak
from cak import RingPresentation
from cak import quotient, resolve
from cak.quotient import QuotientRing, ext_dims, residue_field_presentation, tor_dims

CAKBENCH = Path(__file__).resolve().parents[1] / "cakbench"
TRACING = CAKBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("cakbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_sees_every_hook_and_uninstalls():
    tracing = _load_tracing()
    originals = (
        quotient._hom_rank,
        quotient._tensor_rank,
        quotient.module_standard_basis,
        resolve.ResolutionBuilder.__dict__["__init__"],
        quotient.ArtinianModule.__dict__["__init__"],
        quotient.ArtinianModule.basis_times,
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert quotient._hom_rank is not originals[0]
        ring = RingPresentation(["X", "Y"], [1, 1], relations=["X^2", "X*Y", "Y^2"])
        R = QuotientRing(ring)
        k = residue_field_presentation(ring)

        def op():
            M = residue_field_presentation(ring)
            return ext_dims(R, M, k, 2), tor_dims(R, M, k, 2)

        assert tracer.run_op(0, op) == ([2, 4], [2, 4])
    finally:
        tracer.uninstall()
    assert (
        quotient._hom_rank,
        quotient._tensor_rank,
        quotient.module_standard_basis,
        resolve.ResolutionBuilder.__dict__["__init__"],
        quotient.ArtinianModule.__dict__["__init__"],
        quotient.ArtinianModule.basis_times,
    ) == originals
    for name in (
        "quotient.hom_rank",
        "quotient.tensor_rank",
        "quotient.standard_basis",
        "quotient.artinian_module",
        "quotient.basis_times",
    ):
        assert tracer.calls[name] > 0, name
    counts = tracer.exact_counts()
    assert counts["resolve.resolutions.calls"] == 1
    assert counts["resolve.resolutions.distinct_ratio"] == 1.0
    assert counts["resolve.rank_sum"] > 0
    assert counts["quotient.basis_times.hit_ratio"] > 0


def test_kernel_backend_matches_benchmark_reference():
    # cakbench/run.py records cak.KERNEL_BACKEND and compare.py matches it
    reference = json.loads((CAKBENCH / "reference.json").read_text())
    assert cak.KERNEL_BACKEND == reference["kernel_backend"]

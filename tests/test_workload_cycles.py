"""The seed-0 cycles of the four benchmark workloads, pinned.

Ops 0-19 of each workload in ``cakbench/workloads.py`` run at the default
seed, each with a fresh ``Budget``, and the sha256 of their concatenated
outputs (first 16 hex digits) and their summed budget units must stay as
pinned.  The workload file is read, never imported from its directory, so
the benchmark tree is left as it is.  A change that moves a pin re-pins it
here and names the edit, as with ``UNITS`` in ``test_acceptance.py``.
"""

import hashlib
import pathlib
import types

import pytest

from cak.groebner import Budget
from conftest import deadline

WORKLOADS_PY = pathlib.Path(__file__).resolve().parent.parent / "cakbench" / "workloads.py"

CYCLES = {  # workload: (hash of the outputs of ops 0-19, summed units)
    "gb-dense": ("c0a84c063caa76da", 595),
    "resolve-poly": ("89f1c2b151f8595b", 744),
    "ext-tor-artinian": ("2a19fdb1cd6cc0cf", 28582),
    "cli-small": ("84854063009471a4", 0),
}


@pytest.fixture(scope="module")
def workloads():
    module = types.ModuleType("cakbench_workloads")
    module.__file__ = str(WORKLOADS_PY)
    exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"), module.__dict__)
    return module.WORKLOADS


@pytest.mark.parametrize("name", sorted(CYCLES))
def test_seed_zero_cycle_is_pinned(workloads, name, tmp_path):
    workload = workloads[name]
    digest, units = hashlib.sha256(), 0
    with deadline(60):
        state = workload.setup(0, str(tmp_path))
        for i in range(20):
            budget = Budget()
            output, _ = workload.run(state, workload.make_input(state, 0, i), budget)
            digest.update(output.encode())
            units += budget.used
    assert (digest.hexdigest()[:16], units) == CYCLES[name]

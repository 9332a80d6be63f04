"""Acceptance gate: one test per verification criterion, each with a
wall-clock budget; all numeric comparisons are exact.

One test per criterion, printing a PASS/FAIL line with the timing and
checking the budget units the case spends at seed 0; the twelfth
criterion checks that the seed-0 report matches its pinned hash and that
two runs in one process give byte-identical reports (timing fields
excluded).
"""

import hashlib
import json

import pytest

from cak import verify
from cak.groebner import Budget
from cak.verify import CASES, DEFAULT_SEED, run_case, run_suite

CASE_FNS = dict(CASES)

# criterion number -> (case id, wall-clock bound in seconds)
CRITERIA = {
    1: ("c01_minimal_resolution", 10.0),
    2: ("c02_betti_formula", 60.0),
    3: ("c03_toric_kernel", 10.0),
    4: ("c04_ulrich_instances", 30.0),
    5: ("c05_power_minors", 20.0),
    6: ("c06_eagon_northcott", 30.0),
    7: ("c07_type_relation", 20.0),
    8: ("c08_duality_transfer", 60.0),
    9: ("c09_family_2x3", 60.0),
    10: ("c10_det_reduction", 30.0),
    11: ("c11_ar_checker", 60.0),
}

# case id -> budget units the case spends at seed 0: the work of each case,
# pinned, so a change that does more or less work shows here
UNITS = {
    "c01_minimal_resolution": 13,
    "c02_betti_formula": 420,
    "c03_toric_kernel": 75,
    "c04_ulrich_instances": 351,
    "c05_power_minors": 620,
    "c06_eagon_northcott": 355,
    "c07_type_relation": 283,
    "c08_duality_transfer": 63188,
    "c09_family_2x3": 441,
    "c10_det_reduction": 191,
    "c11_ar_checker": 2106,
}


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number, capsys, monkeypatch):
    case_id, bound = CRITERIA[number]
    budgets = []

    class RecordedBudget(Budget):
        def __init__(self, limit=None):
            super().__init__(limit)
            budgets.append(self)

    monkeypatch.setattr(verify, "Budget", RecordedBudget)
    result = run_case(case_id, CASE_FNS[case_id], DEFAULT_SEED, None)
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {number:>2}: {status}  ({result.elapsed:.2f}s)  {case_id}")
    assert result.passed, f"criterion {number} failed: {result.error}"
    assert result.elapsed < bound, (
        f"criterion {number} exceeded its {bound}s bound ({result.elapsed:.1f}s)"
    )
    assert [b.used for b in budgets] == [UNITS[case_id]]


# sha256 of the seed-0 report without timing fields: every number the suite
# prints, pinned
REPORT_SHA256 = "fddfa480d2e4fc8ca7760be08d37a12eb9fe3b75e66ccca52cfb68fdd4722609"


def test_criterion_12_determinism(capsys):
    first = run_suite(seed=DEFAULT_SEED)
    second = run_suite(seed=DEFAULT_SEED)
    assert hashlib.sha256(first.to_json(timing=False).encode()).hexdigest() == REPORT_SHA256
    blob_first = json.dumps(first.as_dict(timing=False), sort_keys=True)
    blob_second = json.dumps(second.as_dict(timing=False), sort_keys=True)
    with capsys.disabled():
        status = "PASS" if blob_first == blob_second else "FAIL"
        print(f"\ncriterion 12: {status}  (byte-identical reports across two runs)")
    assert first.passed and second.passed
    assert blob_first == blob_second

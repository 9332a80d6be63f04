"""The failure path of ``verify-paper``: a case whose checks fail and a case
that raises are both reported, and the suite runs the cases after them."""

import json

from cak import verify
from cak.cli import main


def _fails(check, seed, budget):
    """A case whose checks fail."""
    check.expect(False, "a false expectation")
    check.equal(1, 2, "count")
    check.equal(3, 3, "kept")


def _raises(check, seed, budget):
    """A case that raises."""
    raise ValueError("not a case")


def _passes(check, seed, budget):
    """A case that passes."""
    check.expect(True, "never shown")
    check.details["seed"] = seed


CASES = [("x1_fails", _fails), ("x2_raises", _raises), ("x3_passes", _passes)]


def test_failing_and_raising_cases_are_reported_and_the_suite_goes_on(monkeypatch):
    monkeypatch.setattr(verify, "CASES", CASES)
    result = verify.run_suite(seed=5)
    assert not result.passed
    assert [(c.id, c.passed, c.error) for c in result.cases] == [
        ("x1_fails", False, "a false expectation; count: got 1, want 2"),
        ("x2_raises", False, "ValueError: not a case"),
        ("x3_passes", True, None),
    ]
    lines = result.summary().splitlines()
    assert [line.split("  ")[0] for line in lines[::2][:3]] == ["FAIL", "FAIL", "PASS"]
    assert lines[1] == "      a false expectation; count: got 1, want 2"
    assert lines[3] == "      ValueError: not a case"
    assert lines[-1] == "1/3 cases passed (FAILURES)"
    payload = json.loads(result.to_json(timing=False))
    assert payload["passed"] is False
    assert [c["title"] for c in payload["cases"]] == [
        "A case whose checks fail.", "A case that raises.", "A case that passes.",
    ]
    assert payload["cases"][2]["details"] == {"seed": 5}


def test_cli_verify_paper_exits_1_on_a_failing_case(monkeypatch, capsys):
    monkeypatch.setattr(verify, "CASES", CASES)
    assert main(["verify-paper", "--filter", "x[12]*", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [c["error"] for c in payload["cases"]] == [
        "a false expectation; count: got 1, want 2",
        "ValueError: not a case",
    ]

"""The staircase enumerator behind ``standard_monomials`` and
``module_standard_basis``, checked against a brute-force bounding-box
enumeration and, for the count, against the Hilbert numerator."""

import itertools
import random
from collections import Counter

import pytest

from cak import RingPresentation
from cak.groebner import (
    Budget,
    IdealHandle,
    ModuleContext,
    lead_exponents,
    module_membership_engine,
    staircase,
    standard_monomials,
)
from cak.quotient import module_standard_basis
from cak.resolve import hilbert_numerator
from conftest import PL


def box_oracle(leads, nvars):
    """Every monomial of the box cut out by the pure powers that no lead
    divides, sorted; None when some variable has no pure power."""
    if any(sum(e) == 0 for e in leads):
        return []
    bounds = []
    for i in range(nvars):
        pure = [e[i] for e in leads if e[i] and sum(e) == e[i]]
        if not pure:
            return None
        bounds.append(min(pure))
    return sorted(
        expo
        for expo in itertools.product(*[range(b) for b in bounds])
        if not any(all(a >= b for a, b in zip(expo, e)) for e in leads)
    )


def hilbert_counts(leads, weights):
    """Coefficients of the Hilbert series K(t) / prod(1 - t^w) of S/(leads),
    a polynomial when the quotient has finite length."""
    num = hilbert_numerator(leads, weights)
    if not num:
        return {}
    poly = [0] * (max(num) + 1)
    for d, c in num.items():
        poly[d] = c
    for w in weights:
        # exact division by 1 - t^w: q_d = p_d + q_(d-w)
        q = [0] * (len(poly) - w)
        for d in range(len(q)):
            q[d] = poly[d] + (q[d - w] if d >= w else 0)
        back = q + [0] * w  # q * (1 - t^w)
        for d, c in enumerate(q):
            back[d + w] -= c
        assert back == poly, "Hilbert numerator not divisible by 1 - t^w"
        poly = q
    return {d: c for d, c in enumerate(poly) if c}


def random_leads(rng, nvars, finite=True):
    leads = []
    for i in range(nvars):
        if finite or rng.random() < 0.6:
            leads.append(tuple(rng.randint(1, 5) if j == i else 0 for j in range(nvars)))
    for _ in range(rng.randint(0, 3)):
        e = tuple(rng.randint(0, 3) for _ in range(nvars))
        if sum(e):
            leads.append(e)
    return leads


def weighted_degree_counts(monos, weights):
    return Counter(sum(a * w for a, w in zip(e, weights)) for e in monos)


@pytest.mark.parametrize("seed", range(40))
def test_staircase_matches_box_oracle(seed):
    rng = random.Random(seed)
    nvars = rng.randint(1, 3)
    leads = random_leads(rng, nvars, finite=seed % 4 != 3)
    want = box_oracle(leads, nvars)
    budget = Budget()
    monos, missing = staircase(leads, nvars, budget)
    if want is None:
        no_pure_power = [i for i in range(nvars) if not any(e[i] == sum(e) for e in leads)]
        assert (monos, missing) == ([], no_pure_power)
        return
    assert missing == []
    assert sorted(monos) == want
    assert budget.used == len(monos)  # each monomial visited and charged once


@pytest.mark.parametrize("seed", range(20))
def test_standard_monomials_match_oracle_and_hilbert_series(seed):
    rng = random.Random(1000 + seed)
    nvars = rng.randint(1, 3)
    names = ["x", "y", "z"][:nvars]
    weights = [rng.randint(1, 3) for _ in range(nvars)]
    ring = RingPresentation(names, weights)
    leads = random_leads(rng, nvars)
    gens = ["*".join(f"{v}^{a}" for v, a in zip(names, e) if a) for e in leads]
    budget = Budget()
    ideal = IdealHandle(ring, PL(ring, "; ".join(gens)))
    got = [m.exponents for m in standard_monomials(ideal, budget)]
    assert got == sorted(box_oracle(leads, nvars), key=ring.encode)
    assert weighted_degree_counts(got, weights) == hilbert_counts(leads, weights)
    assert budget.used >= len(got)  # every enumerated monomial is charged


def test_standard_monomials_count_matches_hilbert_series_non_monomial():
    ring = RingPresentation(["x", "y", "z"], [1, 2, 3])
    ideal = IdealHandle(ring, PL(ring, "x^4 - y^2; y^3 - x^2*y^2 + z^2; z^3; x*z - y^2"))
    got = [m.exponents for m in standard_monomials(ideal)]
    leads = lead_exponents(ideal)
    assert weighted_degree_counts(got, ring.weights) == hilbert_counts(leads, ring.weights)


def test_unit_ideal_has_no_standard_monomials():
    ring = RingPresentation(["x", "y"], [1, 2])
    assert staircase([(0, 0), (3, 0)], 2, Budget()) == ([], [])
    assert standard_monomials(IdealHandle(ring, PL(ring, "x^2; x + x^3*y - 1"))) == []


def test_module_standard_basis_rank_two_with_dead_component():
    # over R = k[x,y,z]/(x^3, y^2 z, z^2) (weights 1, 2, 1), the cokernel of
    # e0 (a unit: component 0 dies) and x*y e1, y^3 e1, x^2 z e1 is
    # R/(x*y, y^3, x^2 z) in component 1
    ring = RingPresentation(["x", "y", "z"], [1, 2, 1], relations=["x^3", "y^2*z", "z^2"])
    columns = [PL(ring, "1; 0"), PL(ring, "0; x*y"), PL(ring, "0; y^3"), PL(ring, "0; x^2*z")]
    ctx = ModuleContext(ring, 2)
    ctx, engine = module_membership_engine(ring, [ctx.from_column(c) for c in columns], 2)
    budget = Budget()
    got = module_standard_basis(ctx, engine, budget)
    leads = [(3, 0, 0), (0, 2, 1), (0, 0, 2), (1, 1, 0), (0, 3, 0), (2, 0, 1)]
    want = sorted(box_oracle(leads, 3), key=ring.encode)
    assert got == [(1, e) for e in want]
    degrees = Counter(ring.key_degree(ring.encode(e)) for _, e in got)
    assert degrees == hilbert_counts(leads, ring.weights)
    assert budget.used >= len(got)

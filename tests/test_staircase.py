"""The staircase walk behind ``standard_monomials`` and
``module_standard_basis``, driven through a divisor index of the leads and
checked against a brute-force bounding-box enumeration and, for the count,
against the Hilbert numerator."""

import itertools
import random
from collections import Counter

import pytest

from cak import RingPresentation
from cak.groebner import (
    Budget,
    IdealHandle,
    ModuleContext,
    RingContext,
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


def walk(ring, leads):
    """The staircase of the monomial ideal generated by the exponent tuples
    ``leads``, walked on a divisor index of their keys: (exponent tuples in
    the order visited, missing variables, the budget charged)."""
    index = RingContext(ring).index((ring.encode(e), None) for e in leads)
    deltas = [ring.var_key(i) - ring.one_key for i in range(len(ring.vars))]
    budget = Budget()
    keys, missing = staircase(index, ring.one_key, deltas, budget)
    return [ring.decode(k) for k in keys], missing, budget


def check_walk(ring, leads):
    nvars = len(ring.vars)
    want = box_oracle(leads, nvars)
    monos, missing, budget = walk(ring, leads)
    if want is None:
        no_pure_power = [i for i in range(nvars) if not any(e[i] == sum(e) for e in leads)]
        assert (monos, missing) == ([], no_pure_power)
        return
    assert missing == []
    assert sorted(monos) == want
    assert budget.used == len(monos)  # each monomial visited and charged once


@pytest.mark.parametrize("seed", range(40))
def test_staircase_matches_box_oracle(seed):
    rng = random.Random(seed)
    nvars = rng.randint(1, 3)
    ring = RingPresentation(["x", "y", "z"][:nvars], [rng.randint(1, 3) for _ in range(nvars)])
    check_walk(ring, random_leads(rng, nvars, finite=seed % 4 != 3))


@pytest.mark.parametrize("seed", range(10))
def test_staircase_above_the_index_clamp(seed):
    """Exponents above the divisor index's clamp of 15, where a lead may be
    a candidate that does not divide."""
    rng = random.Random(f"clamp {seed}")
    nvars = rng.randint(1, 2)
    ring = RingPresentation(["x", "y"][:nvars], [1] * nvars)
    leads = [tuple(rng.randint(14, 24) if j == i else 0 for j in range(nvars)) for i in range(nvars)]
    for _ in range(rng.randint(0, 3)):
        leads.append(tuple(rng.randint(0, 20) for _ in range(nvars)))
    check_walk(ring, [e for e in leads if sum(e)])


@pytest.mark.parametrize("seed", range(10))
def test_staircase_in_a_two_block_ring(seed):
    """In an elimination order the key fields of a and b sit above those of
    x and y, not in variable order."""
    rng = random.Random(f"blocks {seed}")
    ring = RingPresentation(["a", "b", "x", "y"], [1, 2, 1, 1], blocks=((0, 1), (2, 3)))
    check_walk(ring, random_leads(rng, 4, finite=seed % 3 != 2))


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
    keys = standard_monomials(ideal, budget)
    assert keys == sorted(map(ring.encode, box_oracle(leads, nvars)))
    got = [ring.decode(k) for k in keys]
    assert weighted_degree_counts(got, weights) == hilbert_counts(leads, weights)
    assert budget.used >= len(got)  # every enumerated monomial is charged


def test_standard_monomials_count_matches_hilbert_series_non_monomial():
    ring = RingPresentation(["x", "y", "z"], [1, 2, 3])
    ideal = IdealHandle(ring, PL(ring, "x^4 - y^2; y^3 - x^2*y^2 + z^2; z^3; x*z - y^2"))
    got = [ring.decode(k) for k in standard_monomials(ideal)]
    leads = [ring.decode(g.lead_key()) for g in ideal.groebner_basis()]
    assert weighted_degree_counts(got, ring.weights) == hilbert_counts(leads, ring.weights)


def test_unit_ideal_has_no_standard_monomials():
    ring = RingPresentation(["x", "y"], [1, 2])
    assert walk(ring, [(0, 0), (3, 0)])[:2] == ([], [])
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
    assert got == [ctx.key(1, k) for k in sorted(map(ring.encode, box_oracle(leads, 3)))]
    degrees = Counter(ctx.degree(k) for k in got)
    assert degrees == hilbert_counts(leads, ring.weights)
    assert budget.used >= len(got)

"""Oracle tests for the rank-one signature-based completion.

Every basis is checked two ways: it equals the basis that the module-path
Buchberger loop computes over the rank-one free module (mapped back to the
ring), and every S-pair of it reduces to zero under a division written here
on exponent tuples, with no ``cak`` kernel.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cak import RingPresentation, parse_poly_list
from cak.groebner import (
    Budget,
    GroebnerEngine,
    IdealHandle,
    ModuleContext,
    RingContext,
    buchberger,
)
from cak.polyring import QQ, Polynomial
from test_min_subset import random_form

P = 32003


def module_path(ring, gens):
    """Reduced basis from the Buchberger loop over ModuleContext(ring, 1)."""
    ctx = ModuleContext(ring, 1)
    gb = buchberger([ctx.from_column([g]) for g in gens], ctx, ring.field)
    return [{ctx.decode(k)[1]: c for k, c in g.items()} for g in gb]


def _tuples(ring, terms):
    return {ring.decode(k): c for k, c in terms.items()}


def reduces_to_zero(ring, f, divisors):
    """Top-reduce ``f`` (exponent tuple -> coefficient) by the monic
    ``divisors``; False as soon as a lead term has no divisor."""
    p = ring.field.p
    work = dict(f)
    while work:
        lead = max(work, key=ring.encode)
        for g in divisors:
            g_lead = max(g, key=ring.encode)
            if all(a <= b for a, b in zip(g_lead, lead)):
                break
        else:
            return False
        factor = work[lead]
        shift = tuple(b - a for a, b in zip(g_lead, lead))
        for e, c in g.items():
            e2 = tuple(x + y for x, y in zip(e, shift))
            v = work.get(e2, 0) - factor * c
            if p is not None:
                v %= p
            if v:
                work[e2] = v
            else:
                work.pop(e2, None)
    return True


def check_basis(ring, gens):
    basis = [g.terms for g in IdealHandle(ring, gens).groebner_basis()]
    assert basis == module_path(ring, gens)
    divisors = [_tuples(ring, g) for g in basis]
    assert all(g[max(g, key=ring.encode)] == 1 for g in divisors)
    for a, b in itertools.combinations(divisors, 2):
        la, lb = max(a, key=ring.encode), max(b, key=ring.encode)
        lcm = tuple(max(x, y) for x, y in zip(la, lb))
        s = {}
        for g, lead, sign in ((a, la, 1), (b, lb, -1)):
            shift = tuple(x - y for x, y in zip(lcm, lead))
            for e, c in g.items():
                e2 = tuple(x + y for x, y in zip(e, shift))
                s[e2] = s.get(e2, 0) + sign * c
        s = {e: (c % ring.field.p if ring.field.p else c) for e, c in s.items()}
        assert reduces_to_zero(ring, {e: c for e, c in s.items() if c}, divisors)
    for g in gens:
        assert reduces_to_zero(ring, _tuples(ring, g.terms), divisors)
    return basis


# -- seeded ideals -----------------------------------------------------------------


def _poly(ring, rng, degrees, density=1.0, coeff=None):
    """Random polynomial with every monomial of the given weighted degrees
    kept with probability ``density``."""
    n = len(ring.vars)
    coeff = coeff or (lambda: rng.randrange(1, P))
    terms = []
    for d in degrees:
        for e in itertools.product(range(d + 1), repeat=n):
            if sum(w * x for w, x in zip(ring.weights, e)) == d and rng.random() < density:
                terms.append((e, coeff()))
    return ring.from_terms(terms)


def regular_quadrics(rng):
    ring = RingPresentation([f"x{i}" for i in range(5)], [1] * 5)
    return ring, [_poly(ring, rng, [2]) for _ in range(4)]


def minors_then_linear(rng):
    # 2x2 minors of a 2x3 matrix of linear forms, listed before two linear forms
    ring = RingPresentation([f"x{i}" for i in range(5)], [1] * 5)
    m = [[_poly(ring, rng, [1], 0.6) for _ in range(3)] for _ in range(2)]
    minors = [m[0][i] * m[1][j] - m[0][j] * m[1][i] for i, j in ((0, 1), (0, 2), (1, 2))]
    return ring, minors + [_poly(ring, rng, [1]) for _ in range(2)]


def shared_factors(rng):
    ring = RingPresentation(["x", "y", "z", "w"], [1] * 4)
    f, g, h = (_poly(ring, rng, [1], 0.7) for _ in range(3))
    return ring, [f * g, f * h, g * h, _poly(ring, rng, [2], 0.5)]


def inhomogeneous(rng):
    ring = RingPresentation(["x", "y", "z"], [1] * 3)
    return ring, [_poly(ring, rng, [0, 1, 2, 3], 0.3) for _ in range(3)]


def weighted(rng):
    ring = RingPresentation(["x", "y", "z"], [1, 2, 3])
    return ring, [_poly(ring, rng, [d], 0.7) for d in (4, 5, 6)] + [
        _poly(ring, rng, [1, 3, 6], 0.4)
    ]


def rationals(rng):
    ring = RingPresentation(["a", "b", "c"], [1, 1, 1], QQ)
    coeff = lambda: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))  # noqa: E731
    return ring, [_poly(ring, rng, [2], 0.6, coeff) for _ in range(3)]


def two_block_elimination(rng):
    ring = RingPresentation(["t", "u", "x", "y", "z"], [1, 1, 1, 1, 1], blocks=((0, 1), (2, 3, 4)))
    t, u, x, y, z = ring.gens()
    return ring, [x - t * t, y - t * u, z - u * u + _poly(ring, rng, [1], 0.5)]


def zero_and_duplicates(rng):
    ring = RingPresentation(["x", "y", "z"], [1] * 3)
    f, g = _poly(ring, rng, [2], 0.6), _poly(ring, rng, [3], 0.4)
    return ring, [ring.zero(), f, g, f, ring.zero(), g * f]


CASES = {
    f.__name__: f
    for f in (
        regular_quadrics,
        minors_then_linear,
        shared_factors,
        inhomogeneous,
        weighted,
        rationals,
        two_block_elimination,
        zero_and_duplicates,
    )
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", sorted(CASES))
def test_signature_basis_matches_oracles(case, seed):
    ring, gens = CASES[case](random.Random(f"{case}:{seed}"))
    check_basis(ring, gens)


def test_unit_and_zero_generators():
    ring = RingPresentation(["x", "y"], [1, 1])
    x, y = ring.gens()
    one = ring.one()
    assert check_basis(ring, [x * x + y, one.scale(5), x * y - 1]) == [one.terms]
    assert check_basis(ring, [ring.zero(), ring.zero()]) == []
    assert check_basis(ring, []) == []


@pytest.mark.parametrize(
    "gens, unit",
    [("z^2; x^2*y*z + 1; y^2 + x", True), ("y^2*z + x*y; x^2*z^2; x^2*y*z + z^2", False)],
)
def test_rewritable_pair_is_reduced_through_its_rewriter(gens, unit):
    # J-pairs whose signature the signature of a later element divides; the
    # later element's own pair at a smaller signature was singular, so
    # skipping them lost the unit from the first ideal
    ring = RingPresentation(["x", "y", "z"], [1, 2, 1])
    basis = check_basis(ring, parse_poly_list(gens, ring))
    assert (basis == [ring.one().terms]) == unit


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_signature_basis_ignores_generator_order(data):
    case = data.draw(st.sampled_from(sorted(CASES)))
    ring, gens = CASES[case](random.Random(f"{case}:perm"))
    perm = data.draw(st.permutations(range(len(gens))))
    base = [g.terms for g in IdealHandle(ring, gens).groebner_basis()]
    shuffled = [gens[i] for i in perm]
    assert [g.terms for g in IdealHandle(ring, shuffled).groebner_basis()] == base


# -- the mechanism ---------------------------------------------------------------------


def test_generic_quadrics_complete_without_reductions_to_zero():
    rng = random.Random("five quadrics")
    ring = RingPresentation([f"x{i}" for i in range(6)], [1] * 6)
    gens = [_poly(ring, rng, [2]).terms for _ in range(5)]
    engine = GroebnerEngine(RingContext(ring), ring.field, Budget())
    engine.add_generators(gens)
    assert engine.zero_reductions == 0
    # the pair loop on the same generators wastes reductions on Koszul syzygies
    ctx = ModuleContext(ring, 1)
    loop = GroebnerEngine(ctx, ring.field, Budget())
    for g in gens:
        loop.add_raw(ctx.from_column([Polynomial(ring, g)]))
    loop.complete()
    assert loop.zero_reductions > 0
    assert engine.reduced_basis() == [
        {ctx.decode(k)[1]: c for k, c in g.items()} for g in loop.reduced_basis()
    ]


def test_non_koszul_syzygy_reduces_to_zero_once():
    # x*y and x*z share the factor x: their syzygy z*e1 - y*e2 is not principal
    ring = RingPresentation(["x", "y", "z"], [1] * 3)
    x, y, z = ring.gens()
    engine = GroebnerEngine(RingContext(ring), ring.field, Budget())
    engine.add_generators([(x * y).terms, (x * z).terms])
    assert engine.zero_reductions == 1
    assert sorted(engine.reduced_basis(), key=max) == sorted([(x * y).terms, (x * z).terms], key=max)


def pinned_ideal(name):
    """(ring, generators) of a seeded ideal: dense quadrics with m <= n and
    m > n, sparse mixed degrees, weights, QQ and a two-block order."""
    xs = [f"x{i}" for i in range(6)]
    ring, degrees, zero_chance = {
        "dense-5x5": (RingPresentation(xs[:5], [1] * 5), [2] * 5, 0.0),
        "dense-6x6": (RingPresentation(xs, [1] * 6), [2] * 6, 0.0),
        "over-4x6": (RingPresentation(xs[:4], [1] * 4), [2] * 6, 0.0),
        "sparse-6": (RingPresentation(xs, [1] * 6), [2, 2, 3, 3, 2], 0.7),
        "weighted": (RingPresentation(["x", "y", "z", "w"], [1, 2, 3, 1]), [3, 4, 4, 5], 0.3),
        "qq": (RingPresentation(["x", "y", "z", "w"], [1] * 4, QQ), [2, 2, 3], 0.3),
        "blocks": (
            RingPresentation(["a", "b", "x", "y", "z"], [1] * 5, blocks=((0, 1), (2, 3, 4))),
            [2, 2, 2, 2],
            0.5,
        ),
    }[name]
    rng = random.Random(f"sig pins {name}")
    return ring, [random_form(ring, d, rng, zero_chance) for d in degrees]


@pytest.mark.parametrize(
    "name, units, size, digest, lcms, lcms_before",
    [
        ("dense-5x5", 51, 21, "66c7ec3771ac6bc0", 314, 465),
        ("dense-6x6", 135, 39, "a8a52f9b0d12e875", 1296, 1891),
        ("over-4x6", 56, 10, "21d93ac27de0427d", 149, 231),
        ("sparse-6", 126, 32, "8767828f28dfa973", 1025, 1176),
        ("weighted", 30, 15, "df9142da532ec05f", 105, 136),
        ("qq", 4, 7, "5da86225c384030e", 15, 21),
        ("blocks", 310, 21, "bdea9544c92cdb5c", 1531, 1711),
    ],
)
def test_coprime_earlier_leads_are_skipped_before_any_lcm(
    monkeypatch, name, units, size, digest, lcms, lcms_before
):
    """An earlier-basis lead coprime to a new lead gives a principal
    J-pair, so it is skipped before its lcm is formed.  The budget units
    and the reduced basis (the sha256 of its rendering) are pinned as they
    were when every earlier lead was paired and made ``lcms_before`` lcm
    calls."""
    ring, gens = pinned_ideal(name)
    calls = []
    lcm_key = RingPresentation.lcm_key

    def counting(self, ka, kb):
        calls.append(1)
        return lcm_key(self, ka, kb)

    monkeypatch.setattr(RingPresentation, "lcm_key", counting)
    budget = Budget()
    basis = IdealHandle(ring, gens).groebner_basis(budget)
    assert (budget.used, len(basis)) == (units, size)
    assert hashlib.sha256("\n".join(map(str, basis)).encode()).hexdigest()[:16] == digest
    assert len(calls) == lcms < lcms_before

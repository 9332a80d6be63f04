"""The ring's one handle of J owns two data of R = S/J that the checks keep
reading: normal forms of packed module elements modulo J*F
(``IdealHandle.module_normal_form``), which `minimalize` and R's free view
read, and R's Hilbert numerator (``resolve.quotient_hilbert_numerator``),
which the dimension and the regular-sequence test read.

The reference for the normal forms is a divisor index over J's basis in a
layout with no component bits, ``RingContext(ring, COMP_BITS)``: a multiple
of a reducer keeps the component code below the exponent fields of a module
key, so one ring-level basis reduces every component at once.  A normal
form modulo a Groebner basis is unique, so both must agree term for term.
"""

import random
from fractions import Fraction

import pytest

from cak import resolve
from cak._kernel import DivisorIndex, axpy_terms, normal_form_terms
from cak.errors import DegreeOverflowError
from cak.groebner import Budget, IdealHandle, ModuleContext, RingContext, relations_ideal
from cak.polyring import GF, MAX_EXP, QQ, RingPresentation
from cak.quotient import QuotientRing
from cak.resolve import ChainComplex, GradedFreeModule, PolyMatrix, is_regular_sequence, minimalize
from conftest import R1_RELATIONS, R1_WEIGHTS, PL

COMP_BITS = ModuleContext.COMP_BITS
FIELDS = {"GF(32003)": GF(32003), "QQ": QQ}
# the three rings of the ext-tor-artinian workload, the R1 curve ring and
# verify-paper c04's first circulant ring
RINGS = {
    "m_cubed": (["X", "Y"], [1, 1], "X^3; X^2*Y; X*Y^2; Y^3"),
    "x2_xy_y3": (["X", "Y"], [1, 1], "X^2; X*Y; Y^3"),
    "x3_x2y_y2": (["X", "Y"], [1, 1], "X^3; X^2*Y; Y^2"),
    "r1": (["X", "Y", "Z", "W"], R1_WEIGHTS, R1_RELATIONS),
    "circulant": (["X", "Y", "Z"], [1, 1, 1], "X^2 - Y*Z; Y^2 - Z*X; Z^2 - X*Y"),
}
CASES = [pytest.param(name, field, id=f"{name}-{fid}") for name in RINGS for fid, field in FIELDS.items()]


def make_ring(name, field):
    names, weights, relations = RINGS[name]
    ring = RingPresentation(names, weights, field)
    return ring.extend_relations(PL(ring, relations))


def blind_reference(ring):
    """Normal forms of x^s * vec modulo J*F by J's basis in the
    component-blind layout, as a function of (vec, s)."""
    layout = RingContext(ring, COMP_BITS)
    basis = relations_ideal(ring).groebner_basis()
    index = layout.index((g.lead_key() << COMP_BITS, {k << COMP_BITS: c for k, c in g.terms.items()})
                         for g in basis)
    p = ring.field.p

    def normal_form(vec, s=None):
        if s is not None:
            shifted = {}
            axpy_terms(shifted, vec, 1, (s - ring.one_key) << COMP_BITS, p, layout.guard)
            vec = shifted
        return normal_form_terms(vec, index, p, layout.guard)

    return normal_form


def random_coeff(field, rng):
    if field.p is None:
        return field.coerce(Fraction(rng.choice([-1, 1]) * rng.randrange(1, 40), rng.randrange(1, 5)))
    return field.coerce(rng.randrange(1, field.p))


def random_element(ring, rng, rank, size=5):
    """A packed element of R^rank with up to ``size`` terms of small
    exponents, none of them reduced first."""
    ctx = ModuleContext(ring, rank)
    return {
        ctx.key(rng.randrange(rank), ring.encode([rng.randrange(4) for _ in ring.vars])): random_coeff(ring.field, rng)
        for _ in range(rng.randrange(1, size + 1))
    }


def random_complex(ring, rng):
    """Three free modules of rank 1-3 and two maps of random columns, half
    of them with a nonzero constant entry (d o d is not asked for)."""
    ranks = [rng.randrange(1, 4) for _ in range(3)]
    maps = []
    for lo, hi in zip(ranks, ranks[1:]):
        cols = []
        for _ in range(hi):
            col = random_element(ring, rng, lo, 3)
            if rng.random() < 0.5:
                col[ModuleContext(ring, lo).key(rng.randrange(lo), ring.one_key)] = random_coeff(ring.field, rng)
            cols.append(col)
        maps.append(PolyMatrix.packed(ring, lo, cols))
    return ChainComplex(ring, [GradedFreeModule(ring, [0] * r) for r in ranks], maps)


@pytest.mark.parametrize("name, field", CASES)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_module_normal_form_matches_the_blind_index(name, field, rank):
    ring = make_ring(name, field)
    reference, handle = blind_reference(ring), relations_ideal(ring)
    rng = random.Random(f"{name}-{rank}-{field.p}")
    moved = 0
    for _ in range(25):
        vec = random_element(ring, rng, rank)
        s = ring.encode([rng.randrange(3) for _ in ring.vars])
        for shift in (None, s):
            got = handle.module_normal_form(vec, shift)
            assert got == reference(vec, shift)
            moved += got != vec
    assert moved  # some element is not in normal form as drawn


@pytest.mark.parametrize("name, field", CASES)
def test_minimalize_reduces_as_the_blind_index_does(name, field, monkeypatch):
    """``minimalize`` over a quotient gives the same complex when its normal
    forms come from the blind index instead of the handle."""
    ring = make_ring(name, field)
    rng = random.Random(f"{name}-{field.p}")
    complexes = [random_complex(ring, rng) for _ in range(8)]
    got = [minimalize(cx) for cx in complexes]
    reference = blind_reference(ring)
    monkeypatch.setattr(IdealHandle, "module_normal_form", lambda self, vec, s=None, budget=None: reference(vec, s))
    want = [minimalize(cx) for cx in complexes]
    assert [([m.twists for m in c.modules], [m.cols for m in c.maps]) for c in got] == [
        ([m.twists for m in c.modules], [m.cols for m in c.maps]) for c in want
    ]
    assert any(g.ranks() != cx.ranks() for g, cx in zip(got, complexes))  # some unit cancelled


def test_minimalize_over_a_quotient_builds_no_divisor_index(monkeypatch):
    ring = make_ring("r1", GF(32003))
    relations_ideal(ring).divisor_index()  # the handle's own, built once per ring
    built = []
    init = DivisorIndex.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(DivisorIndex, "__init__", counting_init)
    rng = random.Random(5)
    cancelled = 0
    for _ in range(10):
        cx = random_complex(ring, rng)
        cancelled += minimalize(cx).ranks() != cx.ranks()
    assert cancelled and built == []


def test_module_normal_form_overflow():
    ring = RingPresentation(["x", "y"], [1, 1], relations=["x^2", "y^2"])
    ctx, handle = ModuleContext(ring, 2), relations_ideal(ring)
    y = {ctx.key(1, ring.var_key(1)): 1}
    assert handle.module_normal_form(y, ring.var_key(0)) == {ctx.key(1, ring.encode((1, 1))): 1}
    assert handle.module_normal_form(y, ring.var_key(1)) == {}
    with pytest.raises(DegreeOverflowError, match="exponent overflow in monomial product"):
        handle.module_normal_form(y, ring.encode((0, MAX_EXP)))


def test_hilbert_numerator_of_the_ring_is_computed_once(monkeypatch):
    """Two wrappers' dimensions and a regular-sequence test over one ring run
    the recursion on J's leads once; the test runs it once more, on the
    leads of (X) + J."""
    ring = make_ring("r1", GF(32003))
    calls = []
    numerator = resolve.hilbert_numerator

    def counting(gens, weights, budget=None):
        calls.append(sorted(map(tuple, gens)))
        return numerator(gens, weights, budget)

    monkeypatch.setattr(resolve, "hilbert_numerator", counting)
    assert QuotientRing(ring).dimension() == QuotientRing(ring).dimension() == 1
    assert is_regular_sequence(ring, PL(ring, "X"))
    leads = sorted(ring.decode(g.lead_key()) for g in relations_ideal(ring).groebner_basis())
    assert calls.count(leads) == 1 and len(calls) == 2
    budget = Budget()
    assert QuotientRing(ring).dimension(budget) == 1 and budget.used == 0

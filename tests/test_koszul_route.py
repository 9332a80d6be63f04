"""The Koszul route of ``ResolutionBuilder`` against the Groebner route.

A cyclic R/(f) over a graded ring R that is not Artinian, with f a
homogeneous regular sequence of m <= n elements of positive degree, is
resolved by the Koszul complex on f (Bruns-Herzog 1.6.19), with no syzygy
step.  The oracle is the Groebner syzygy step ``resolve._syzygy_step``,
iterated from the 1 x m matrix of f with the column degrees carried along.
Both Betti tables must agree, and ``verify_resolution`` must certify the
Koszul one.  Inputs outside the route keep the Groebner route, whose tables
are pinned here too.
"""

import random

import pytest

from cak import QQ, RingPresentation, parse_poly_list
from cak import resolve
from cak.complexes import verify_resolution
from cak.errors import CakError
from cak.groebner import Budget
from cak.polyring import Polynomial
from cak.resolve import (
    GradedFreeModule,
    PolyMatrix,
    PresentedModule,
    _minimal_columns,
    _syzygy_step,
    minimal_free_resolution,
)
from conftest import deadline
from test_min_subset import random_form


@pytest.fixture
def groebner_passes(monkeypatch):
    """Counts the minimal-subset passes of the Groebner route, which opens
    the first step and closes every syzygy step; the Koszul and Artinian
    routes take none.  The tests read the count before the oracle runs."""
    calls = []
    original = resolve._minimal_columns

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(resolve, "_minimal_columns", counting)
    return calls


def oracle_betti(ring, gens, twist):
    """Betti rows of R/(gens), ambient twist ``twist``, from the Groebner
    route: the minimal subset of the generators, then syzygy steps
    iterated until the kernel vanishes."""
    rows = {(0, twist): 1}
    cols = PolyMatrix(ring, [list(gens)]).cols
    mat, degs = _minimal_columns(ring, cols, [twist + g.degree() for g in gens], [twist], None)
    for i in range(1, len(ring.vars) + 2):
        for d in degs:
            rows[(i, d)] = rows.get((i, d), 0) + 1
        mat, degs = _syzygy_step(mat, degs, None)
        if not degs:
            return [[i, j, r] for (i, j), r in sorted(rows.items())]
    raise AssertionError("the Groebner route did not stop")


def cyclic(ring, gens, twist=0):
    return PresentedModule(ring, GradedFreeModule(ring, (twist,)), PolyMatrix(ring, [list(gens)]))


def resolve_both(ring, gens, twist, passes):
    """(builder's Betti rows, oracle's Betti rows, Groebner-route passes the
    builder took), after certifying the builder's resolution."""
    module = cyclic(ring, gens, twist)
    passes.clear()
    length = None if not ring.relations else len(ring.vars) + 1
    res = minimal_free_resolution(module, max_length=length)
    taken = len(passes)
    assert res.complete
    report = verify_resolution(res.complex, module)
    assert report.ok, report.as_dict()
    return res.betti.as_rows(), oracle_betti(ring, gens, twist), taken


def route_bases():
    for field, tag in ((None, "fp"), (QQ, "qq")):
        for n in (2, 3, 4):
            yield f"n{n}-{tag}", RingPresentation([f"x{i}" for i in range(n)], [1] * n, field)
        yield f"w123-{tag}", RingPresentation(["x", "y", "z"], [1, 2, 3], field)


def test_koszul_route_matches_the_groebner_route(groebner_passes):
    """Seeded sequences of 1..n forms of mixed degrees 1..3 (1..2 in four
    variables, where the Groebner route over QQ slows down; weighted degree
    up to 6 over weights (1, 2, 3)), with an ambient twist drawn from
    -2..2.  Regular ones take the route; the rest fall back."""
    routed = fallen_back = 0
    with deadline(120):
        for name, ring in route_bases():
            rng = random.Random(f"koszul route {name}")
            top = 6 if ring.weights != (1,) * len(ring.vars) else 3 if len(ring.vars) < 4 else 2
            for _ in range(10):
                m = rng.randint(1, len(ring.vars))
                gens = [random_form(ring, rng.randint(1, top), rng, zero_chance=0.2) for _ in range(m)]
                gens = [g for g in gens if not g.is_zero()]
                if not gens:
                    continue
                twist = rng.randint(-2, 2)
                got, want, passes = resolve_both(ring, gens, twist, groebner_passes)
                assert got == want, (name, [str(g) for g in gens], twist)
                routed += passes == 0
                fallen_back += passes > 0
    assert (routed, fallen_back) == (76, 4)


def test_curve_modulo_x_takes_the_koszul_route(r1_ring, groebner_passes):
    """R1/(X): X is regular on the one-dimensional domain R1, which is
    graded by the weights (6, 11, 16, 26) and not Artinian."""
    got, want, passes = resolve_both(r1_ring, parse_poly_list("X", r1_ring), 0, groebner_passes)
    assert got == want == [[0, 0, 1], [1, 6, 1]]
    assert passes == 0
    got, want, passes = resolve_both(r1_ring, parse_poly_list("Y", r1_ring), 3, groebner_passes)
    assert got == want == [[0, 3, 1], [1, 14, 1]]
    assert passes == 0


@pytest.mark.parametrize(
    "gens, twist, rows",
    [
        # m <= n, not regular: the syzygy (y, -x) has degree 3, not 4
        ("x^2; x*y", 0, [[0, 0, 1], [1, 2, 2], [2, 3, 1]]),
        # m > n
        ("x^2; x*y; y^2", 0, [[0, 0, 1], [1, 2, 3], [2, 3, 2]]),
        # a unit generator: the module is zero
        ("1; x", 0, []),
    ],
    ids=["not-regular", "m-greater-than-n", "unit"],
)
def test_fallbacks_keep_the_groebner_route(kxy, groebner_passes, gens, twist, rows):
    gens = parse_poly_list(gens, kxy)
    calls = groebner_passes
    module = cyclic(kxy, gens, twist)
    calls.clear()
    res = minimal_free_resolution(module)
    assert calls  # a Groebner minimal-subset pass was taken
    assert res.betti.as_rows() == rows
    if rows:  # the zero module is no cokernel of a map to the rank-one ambient
        assert verify_resolution(res.complex, module).ok
        assert rows == oracle_betti(kxy, gens, twist)


def test_inhomogeneous_generator_is_refused_as_before(kxy):
    """An inhomogeneous generator has no column degree, so the module is
    refused when it is presented, before any route is chosen."""
    with pytest.raises(CakError, match="not homogeneous"):
        cyclic(kxy, parse_poly_list("x^2 + y; y^2", kxy))


def test_rank_two_module_keeps_the_groebner_route(kxy, groebner_passes):
    calls = groebner_passes
    x2, y2 = parse_poly_list("x^2; y^2", kxy)
    z = kxy.zero()
    module = PresentedModule(kxy, GradedFreeModule(kxy, (0, 1)), PolyMatrix(kxy, [[x2, z], [z, y2]]))
    res = minimal_free_resolution(module)
    assert calls
    assert res.betti.as_rows() == [[0, 0, 1], [0, 1, 1], [1, 2, 1], [1, 3, 1]]
    assert verify_resolution(res.complex, module).ok


def test_zero_generator_is_dropped_before_the_route(kxy, groebner_passes):
    """A zero column is dropped with the presentation's other redundancy,
    so R/(x^2, 0, y^3) is resolved as R/(x^2, y^3), by the Koszul route,
    with the table of the Groebner route."""
    calls = groebner_passes
    x2, y3 = parse_poly_list("x^2; y^3", kxy)
    module = PresentedModule(kxy, GradedFreeModule(kxy, (0,)), PolyMatrix(kxy, [[x2, kxy.zero(), y3]]))
    calls.clear()
    res = minimal_free_resolution(module)
    assert not calls
    rows = [[0, 0, 1], [1, 2, 1], [1, 3, 1], [2, 5, 1]]
    assert res.betti.as_rows() == rows == oracle_betti(kxy, [x2, y3], 0)
    assert verify_resolution(res.complex, module).ok


def test_artinian_and_inhomogeneous_rings_never_reach_the_route(monkeypatch):
    """Over a graded Artinian ring the linear-algebra route runs; over a
    ring with an inhomogeneous relation the Groebner route runs.  Neither
    asks for the regular-sequence test."""

    def refuse(*args, **kwargs):
        raise AssertionError("regular-sequence test reached")

    monkeypatch.setattr(resolve, "is_regular_sequence", refuse)
    artinian = RingPresentation(["x", "y"], [1, 1], relations=["x^3", "y^3"])
    res = minimal_free_resolution(cyclic(artinian, parse_poly_list("x", artinian)), max_length=2)
    assert res.betti.as_rows() == [[0, 0, 1], [1, 1, 1], [2, 3, 1]]
    inhomogeneous = RingPresentation(["x", "y"], [1, 1], relations=["y^2 - x"])
    res = minimal_free_resolution(cyclic(inhomogeneous, parse_poly_list("y", inhomogeneous)), max_length=1)
    assert res.betti.as_rows() == [[0, 0, 1], [1, 1, 1]]


def test_the_route_is_one_resolution_per_module(r1_ambient):
    """The Koszul route fills the module's one builder, every twist shifted
    by the ambient one; reading it to a shorter length and then in full
    computes nothing more, so a zero budget pays for both."""
    ring = r1_ambient
    module = cyclic(ring, parse_poly_list("X^2; Y; Z", ring), 1)
    builder = module.resolution()
    assert builder.complete
    assert [m.twists for m in builder.modules] == [(1,), (13, 12, 17), (24, 29, 28), (40,)]
    short = minimal_free_resolution(module, max_length=2, budget=Budget(0))
    assert module.resolution() is builder
    assert short.complex.ranks() == (1, 3, 3) and not short.complete
    full = minimal_free_resolution(module, budget=Budget(0))
    assert full.complete and full.complex.ranks() == (1, 3, 3, 1)


def test_the_route_reads_each_degree_once(r1_ambient, monkeypatch):
    """The route reads each form's degree once and passes it down to the
    regular-sequence test and the Koszul complex."""
    calls = []
    original = Polynomial.homogeneous_degree

    def counting(self):
        calls.append(self)
        return original(self)

    module = cyclic(r1_ambient, parse_poly_list("X^2; Y; Z", r1_ambient), 1)
    monkeypatch.setattr(Polynomial, "homogeneous_degree", counting)
    assert module.resolution().complete
    assert len(calls) == 3


@pytest.mark.parametrize("n, m, ranks, units", [(5, 4, (1, 4, 6, 4, 1), 36), (6, 3, (1, 3, 3, 1), 15)])
def test_generic_complete_intersection_pays_for_the_face_test_only(groebner_passes, n, m, ranks, units):
    """m generic quadrics in n variables are certified by the face test,
    whose basis lives in x_1..x_m: with the Koszul complex's basis elements
    this costs 36 and 15 units, against 138 and 39 when the basis of (f) in
    all n variables and two Hilbert numerators certified them."""
    rng = random.Random(f"generic ci {n} {m}")
    ring = RingPresentation([f"x{v}" for v in range(n)], [1] * n)
    quadrics = [random_form(ring, 2, rng, zero_chance=0.0) for _ in range(m)]
    budget = Budget()
    res = minimal_free_resolution(PresentedModule.cyclic(ring, quadrics), budget=budget)
    assert not groebner_passes  # the Koszul route
    assert res.complete and res.total_ranks() == ranks
    assert budget.used == units

import math
import random

import pytest

from cak import RingPresentation, parse_poly_list
from cak.errors import CakError, NotArtinianError, PreconditionError, ResourceLimitError
from cak.groebner import (
    Budget,
    IdealHandle,
    ModuleContext,
    module_membership_engine,
    module_syzygies,
)
from cak.resolve import (
    ChainComplex,
    GradedFreeModule,
    PolyMatrix,
    PresentedModule,
    alternating_twist_sum,
    graded_rank_check,
    is_regular_sequence,
    lead_module_hilbert_numerator,
    minimal_free_resolution,
    minimalize,
    module_length,
    presentation_minimalize,
    _syzygy_step,
)
from conftest import P, PL, R1_RELATIONS, column_lists, deadline
from test_min_subset import c04_ring, random_column


def test_syzygy_koszul_pair(kxy):
    mat = PolyMatrix(kxy, [PL(kxy, "x; y")])
    out, degrees = _syzygy_step(mat, (1, 1), None)
    assert out.ncols == 1
    assert degrees == [2]
    assert [str(p) for p in column_lists(out)[0]] == ["-y", "x"]


def test_syzygy_nonzerodivisor(kxy):
    out, _ = _syzygy_step(PolyMatrix(kxy, [[P(kxy, "x")]]), (1,), None)
    assert out.ncols == 0


def test_syzygy_hilbert_burch():
    # minors ordered (d12, d13, d23): the syzygy of row (a1, a2, a3) is the
    # cofactor vector (a3, -a2, a1)
    ring = RingPresentation(["X", "Y", "Z"], [10, 14, 16])
    minors = PL(ring, "X*Z^2 - Y^3; X^3 - Y*Z; X^2*Y^2 - Z^3")
    mat = PolyMatrix(ring, [minors])
    syz, _ = _syzygy_step(mat, (42, 30, 48), None)
    assert syz.ncols == 2
    cofactor_rows = [
        PL(ring, "Z; -Y^2; X"),
        PL(ring, "X^2; -Z^2; Y"),
    ]
    from cak.groebner import Budget, GroebnerEngine, ModuleContext

    def engine_for(cols):
        ctx = ModuleContext(ring, 3)
        eng = GroebnerEngine(ctx, ring.field, Budget())
        for col in cols:
            eng.add_raw(ctx.from_column(col))
        eng.complete()
        return ctx, eng

    ctx, eng = engine_for(cofactor_rows)
    for j in range(2):
        assert eng.contains(ctx.from_column(column_lists(syz)[j]))
    ctx2, eng2 = engine_for(column_lists(syz))
    for col in cofactor_rows:
        assert eng2.contains(ctx2.from_column(col))


def test_syzygy_steps_carry_the_twists(kxy):
    # the columns x^2, y^3 have degrees 2 and 3: one syzygy (y^3, -x^2) of
    # degree 5, and the step on it, with twist 5, finds none
    mat = PolyMatrix(kxy, [PL(kxy, "x^2; y^3")])
    syz, degrees = _syzygy_step(mat, (2, 3), None)
    assert degrees == [5]
    assert [str(p) for p in column_lists(syz)[0]] == ["y^3", "-x^2"]
    out, degrees = _syzygy_step(syz, tuple(degrees), None)
    assert (out.ncols, degrees) == (0, [])


def test_resolution_monomial_curve(r1_ambient):
    res = minimal_free_resolution(
        PresentedModule.cyclic(r1_ambient, PL(r1_ambient, R1_RELATIONS))
    )
    assert res.total_ranks() == (1, 4, 5, 2)
    assert res.complex.length == 3
    assert res.complete
    assert res.complex.composition_defect() is None


def test_resolution_residue_field(kxy):
    res = minimal_free_resolution(PresentedModule.cyclic(kxy, PL(kxy, "x; y")))
    assert res.total_ranks() == (1, 2, 1)


def test_resolution_square_three_vars():
    ring = RingPresentation(["x1", "x2", "x3"], [1, 1, 1])
    Q2 = IdealHandle(ring, PL(ring, "x1; x2; x3")).power(2)
    res = minimal_free_resolution(PresentedModule.cyclic(ring, Q2.gens))
    assert res.total_ranks() == (1, 6, 8, 3)


def test_resolution_minimality_positive_degrees(r1_ambient):
    res = minimal_free_resolution(
        PresentedModule.cyclic(r1_ambient, PL(r1_ambient, R1_RELATIONS))
    )
    for mat in res.complex.maps:
        for row in mat.entries:
            for p in row:
                assert p.is_zero() or p.degree() > 0


def test_betti_invariance_redundant_generators(r1_ambient):
    gens = PL(r1_ambient, R1_RELATIONS)
    redundant = gens + [gens[0] * gens[1], gens[2].scale(7)]
    shuffled = redundant[::-1]
    res = minimal_free_resolution(PresentedModule.cyclic(r1_ambient, shuffled))
    base = minimal_free_resolution(PresentedModule.cyclic(r1_ambient, gens))
    assert res.betti.entries == base.betti.entries


def test_presentation_unit_cancellation(kxy):
    amb = GradedFreeModule(kxy, (0, -1))
    mat = PolyMatrix(kxy, [[kxy.one(), P(kxy, "x^2")], [kxy.zero(), P(kxy, "x^3")]])
    res = minimal_free_resolution(PresentedModule(kxy, amb, mat))
    # the unit entry folds the presentation down to one generator
    assert res.total_ranks() == (1, 1)
    assert str(res.complex.differential(1).entries[0][0]) == "x^3"
    # a unit relation on one generator empties the ambient: the zero module
    unit = PresentedModule(kxy, GradedFreeModule(kxy, (0,)), PolyMatrix(kxy, [[kxy.one()]]))
    out = presentation_minimalize(unit)
    assert (out.ambient.rank, out.relations.ncols) == (0, 0)
    assert minimal_free_resolution(unit).total_ranks() == (0,)


def test_minimalize_unit_complex(kxy):
    modules = [GradedFreeModule(kxy, (0,)), GradedFreeModule(kxy, (0,))]
    maps = [PolyMatrix(kxy, [[kxy.one()]])]
    out = minimalize(ChainComplex(kxy, modules, maps))
    assert out.ranks() == (0,)


def test_minimalize_idempotent_on_minimal(r1_ambient):
    res = minimal_free_resolution(
        PresentedModule.cyclic(r1_ambient, PL(r1_ambient, R1_RELATIONS))
    )
    out = minimalize(res.complex)
    assert out.ranks() == res.complex.ranks()


def unit_laden_complex(ring, rank, plain, laden):
    """``plain`` unit-free maps (every entry x) followed by ``laden`` maps
    alternating the identity and zero, all of the given rank; not a
    complex (d o d != 0 in the unit-free part), which minimalize ignores."""
    one, zero, x = ring.one(), ring.zero(), P(ring, "x")
    ident = [[one if i == j else zero for j in range(rank)] for i in range(rank)]
    nil = [[zero] * rank for _ in range(rank)]
    mats = [[[x] * rank for _ in range(rank)]] * plain
    mats += [ident if k % 2 == 0 else nil for k in range(laden)]
    modules = [GradedFreeModule(ring, (0,) * rank) for _ in range(len(mats) + 1)]
    return ChainComplex(ring, modules, [PolyMatrix(ring, m) for m in mats])


def test_minimalize_charges_one_unit_per_cancellation(kxy):
    budget = Budget()
    out = minimalize(unit_laden_complex(kxy, 3, 2, 6), budget)
    # three identity maps of rank 3 cancel entry by entry
    assert budget.used == 9
    assert out.ranks() == (3, 3, 0, 0, 0, 0, 0, 0, 3)
    assert [str(p) for p in out.maps[0].entries[0]] == ["x"] * 3


def test_minimalize_budget_bounds_unit_cancellation(kxy):
    # 2,400 cancellations, each followed by a rescan of the 120 unit-free
    # maps in front when the scan restarts at the first map
    cx = unit_laden_complex(kxy, 12, 120, 400)
    with deadline(5), pytest.raises(ResourceLimitError):
        minimalize(cx, Budget(100))


def test_minimalize_resumes_at_the_last_hit(kxy):
    # 800 cancellations behind 400 unit-free maps: rescanning those maps
    # after every cancellation takes about ten seconds
    budget = Budget()
    with deadline(5):
        out = minimalize(unit_laden_complex(kxy, 8, 400, 200), budget)
    assert budget.used == 800
    assert out.ranks() == (8,) * 400 + (0,) * 200 + (8,)


def test_module_length_examples(kxy, r1_ambient):
    assert module_length(IdealHandle(kxy, PL(kxy, "x^2; x*y; y^2"))) == 3
    ring3 = RingPresentation(["x1", "x2", "x3"], [1, 1, 1])
    assert module_length(IdealHandle(ring3, PL(ring3, "x1; x2; x3"))) == 1
    gens = PL(r1_ambient, R1_RELATIONS) + PL(r1_ambient, "X; Z; W")
    assert module_length(IdealHandle(r1_ambient, gens)) == 2
    with pytest.raises(NotArtinianError, match="not Artinian at origin"):
        module_length(IdealHandle(kxy, PL(kxy, "x")))


@pytest.mark.parametrize(
    "n,i,expected",
    [(2, 1, 2), (3, 2, 6), (2, 3, 4), (1, 2, 1), (3, 1, 3)],
)
def test_graded_rank_check(n, i, expected):
    ring = RingPresentation([f"x{k}" for k in range(1, n + 1)], [1] * n)
    Q = IdealHandle(ring, ring.gens())
    assert graded_rank_check(ring, Q, i) == expected
    assert expected == math.comb(i + n - 1, n - 1)


def test_graded_rank_check_rejects_nonregular():
    ring = RingPresentation(["x1", "x2", "x3"], [1, 1, 1])
    bad = IdealHandle(ring, PL(ring, "x1; x1*x2"))
    with pytest.raises(PreconditionError, match="non-regular"):
        graded_rank_check(ring, bad, 1)


def test_graded_rank_check_non_artinian_branch():
    # a regular sequence shorter than the variable count: no layer length
    ring = RingPresentation(["x1", "x2", "x3"], [1, 1, 1])
    Q = IdealHandle(ring, PL(ring, "x1; x2"))
    assert graded_rank_check(ring, Q, 2) == 3


def test_is_regular_sequence(kxy, kxyz):
    assert is_regular_sequence(kxy, PL(kxy, "x; y"))
    assert not is_regular_sequence(kxy, PL(kxy, "x; x*y"))
    assert is_regular_sequence(kxyz, PL(kxyz, "x; y; z"))
    quotient = kxyz.extend_relations(PL(kxyz, "z"))
    assert not is_regular_sequence(
        quotient, PL(quotient, "x; y; z")
    )


def test_is_regular_sequence_rejects_constants_and_wants_homogeneous_elements(kxy):
    assert not is_regular_sequence(kxy, PL(kxy, "x; 3"))  # a unit is never regular here
    with pytest.raises(PreconditionError, match="wants homogeneous elements"):
        is_regular_sequence(kxy, PL(kxy, "x + y^2"))


def test_is_regular_sequence_wants_homogeneous_relations(kxy):
    # an inhomogeneous relation leaves R ungraded: no Hilbert series to compare
    ring = kxy.extend_relations(PL(kxy, "x^2 - y"))
    with pytest.raises(PreconditionError, match="homogeneous relations"):
        is_regular_sequence(ring, PL(ring, "x"))


def test_filtration_length_additivity():
    # len(S/Q^l) = sum of binom(i+n-1, n-1) * len(S/Q) over i < l
    for n in (2, 3):
        ring = RingPresentation([f"x{k}" for k in range(1, n + 1)], [1] * n)
        Q = IdealHandle(ring, ring.gens())
        len_sq = module_length(Q)
        for ell in (2, 3):
            total = module_length(Q.power(ell))
            expected = sum(
                math.comb(i + n - 1, n - 1) * len_sq for i in range(ell)
            )
            assert total == expected


def test_euler_characteristic_identity(r1_ambient):
    gens = PL(r1_ambient, R1_RELATIONS)
    res = minimal_free_resolution(PresentedModule.cyclic(r1_ambient, gens))
    lhs = alternating_twist_sum(res.complex)
    cols = [ModuleContext(r1_ambient, 1).from_column([g]) for g in gens]
    ctx, engine = module_membership_engine(r1_ambient, cols, 1)
    rhs = lead_module_hilbert_numerator(ctx, engine, (0,), Budget())
    assert lhs == rhs


def test_resolution_over_quotient_requires_bound(r1_ring):
    M = PresentedModule.cyclic(r1_ring, PL(r1_ring, "X"))
    with pytest.raises(PreconditionError):
        minimal_free_resolution(M)


def test_a_finite_resolution_over_a_quotient_ends_in_extend():
    """R^2/(x e_1, x e_2) over the domain k[x,y,z]/(xz - y^2) takes the
    syzygy steps: x is a nonzerodivisor, so the step after d_1 finds no
    kernel and the resolution ends there, complete inside its bound.  Only
    an extension past one map takes that step, so the end is seen at the
    bound 2 and not at 1, its length."""
    ring = RingPresentation(["x", "y", "z"], [1, 1, 1], relations=["x*z - y^2"])
    mat = PolyMatrix(ring, [PL(ring, "x; 0"), PL(ring, "0; x")])
    module = PresentedModule(ring, GradedFreeModule(ring, (0, 0)), mat)
    assert not minimal_free_resolution(module, max_length=1).complete
    assert module.resolution().known_at is None
    res = minimal_free_resolution(module, max_length=3)
    assert res.complete and res.total_ranks() == (2, 2)
    assert res.betti.as_rows() == [[0, 0, 2], [1, 1, 2]]
    assert module.resolution().known_at == 2


def test_resolution_of_rank_two_module(kxy):
    # coker of [[x, y^2], [y, 0]]: a non-cyclic graded module
    amb = GradedFreeModule(kxy, (0, 0))
    mat = PolyMatrix(kxy, [PL(kxy, "x; y^2"), PL(kxy, "y; 0")])
    res = minimal_free_resolution(PresentedModule(kxy, amb, mat))
    assert res.complete
    cx = res.complex
    assert cx.composition_defect() is None
    assert cx.modules[0].rank == 2
    from cak.complexes import verify_resolution

    rep = verify_resolution(cx, PresentedModule(kxy, amb, mat))
    assert rep.ok, rep.messages


def test_computed_resolution_self_verifies(r1_ambient):
    from cak.complexes import verify_resolution

    target = PresentedModule.cyclic(r1_ambient, PL(r1_ambient, R1_RELATIONS))
    res = minimal_free_resolution(target)
    rep = verify_resolution(res.complex, target)
    assert rep.ok, rep.messages


def _call_order_cases():
    """(name, fresh-module factory): finite and infinite
    resolutions over a polynomial ring and over an Artinian quotient, and
    two finite ones over the cone k[x,y,z]/(xz - y^2), which is not
    Artinian: R^2/(x e_1, x e_2) by syzygy steps, which ends in ``extend``
    when the step after its one map comes back empty, and R/(x) by the
    Koszul route, which knows its length at construction.  At every bound
    0..4 a shared module must give what a fresh one gives, also at the
    bound equal to a step route's length, where it is not yet complete."""
    s = RingPresentation(["x", "y", "z", "w"], [1, 1, 1, 1])
    q = RingPresentation(["X", "Y"], [1, 1], relations=["X^2", "X*Y", "Y^2"])
    c = RingPresentation(["x", "y", "z"], [1, 1, 1], relations=["x*z - y^2"])
    return [
        ("poly_cyclic", lambda: PresentedModule.cyclic(s, PL(s, "x; y^2"))),
        ("poly_free", lambda: PresentedModule.free(s, (0, 1))),
        ("quot_residue", lambda: PresentedModule.cyclic(q, q.gens())),
        (
            "quot_free_after_unit",
            lambda: PresentedModule(
                q,
                GradedFreeModule(q, (0, -1)),
                PolyMatrix(q, [[P(q, "1")], [P(q, "X")]]),
            ),
        ),
        (
            "cone_steps_end_in_extend",
            lambda: PresentedModule(
                c, GradedFreeModule(c, (0, 0)), PolyMatrix(c, [PL(c, "x; 0"), PL(c, "0; x")])
            ),
        ),
        ("cone_koszul", lambda: PresentedModule.cyclic(c, PL(c, "x"))),
    ]


def _resolution_summary(res):
    return res.betti.entries, res.total_ranks(), res.complete


@pytest.mark.parametrize("case", _call_order_cases(), ids=lambda c: c[0])
@pytest.mark.parametrize(
    "order", [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]],
    ids=["ascending", "descending", "shuffled"],
)
def test_shared_resolution_independent_of_call_order(case, order):
    _name, make = case
    shared = make()
    for n in order:
        got = minimal_free_resolution(shared, max_length=n)
        want = minimal_free_resolution(make(), max_length=n)
        assert _resolution_summary(got) == _resolution_summary(want), n
        assert got.complex.length == want.complex.length


def _known_length_cases():
    """(name, fresh-module factory, length): modules whose route knows the
    length of the resolution at construction."""
    s = RingPresentation(["x", "y", "z", "w"], [1, 1, 1, 1])
    t = RingPresentation(["x", "y", "z"], [1, 1, 1])
    c = RingPresentation(["x", "y", "z"], [1, 1, 1], relations=["x*z - y^2"])
    return [
        ("koszul", lambda: PresentedModule.cyclic(s, PL(s, "x; y^2")), 2),
        ("frame", lambda: PresentedModule.cyclic(t, PL(t, "x^2; x*y; y*z")), 2),
        ("koszul_over_cone", lambda: PresentedModule.cyclic(c, PL(c, "x")), 1),
    ]


@pytest.mark.parametrize("case", _known_length_cases(), ids=lambda c: c[0])
def test_complete_exactly_from_the_length_on(case):
    """A resolution whose length equals ``max_length`` is complete there,
    and one map short of it is not."""
    _name, make, length = case
    full = minimal_free_resolution(make(), max_length=length)
    assert full.complete and len(full.total_ranks()) == length + 1
    short = minimal_free_resolution(make(), max_length=length - 1)
    assert not short.complete and len(short.total_ranks()) == length
    assert make().resolution().known_at == length


def test_free_module_resolution_complete_at_length_zero():
    s = RingPresentation(["x", "y"], [1, 1])
    free = PresentedModule.free(s, (0, 2))
    assert minimal_free_resolution(free, max_length=3).complete
    res = minimal_free_resolution(free, max_length=0)
    assert res.complete and res.total_ranks() == (2,)


@pytest.mark.parametrize("resolve_first", [False, True], ids=["fresh", "after_full"])
def test_negative_max_length_is_rejected(kxyz, resolve_first):
    # k = k[x,y,z]/(x,y,z): a slice of the cached resolution must not pass
    # for a resolution of length -1
    residue = PresentedModule.cyclic(kxyz, PL(kxyz, "x; y; z"))
    if resolve_first:
        assert minimal_free_resolution(residue).total_ranks() == (1, 3, 3, 1)
    with pytest.raises(PreconditionError, match="max_length"):
        minimal_free_resolution(residue, max_length=-1)


def test_call_order_cases_reach_both_completion_states():
    # the cases above must exercise a resolution that ends inside the bound
    # and one truncated by it, else the comparison proves little
    seen = set()
    for _name, make in _call_order_cases():
        for n in range(5):
            seen.add(minimal_free_resolution(make(), max_length=n).complete)
    assert seen == {True, False}


@pytest.mark.parametrize("relations", [(), ("x^2", "y^2", "z^2")])
def test_column_degrees_computed_once_per_module(relations, monkeypatch):
    ring = RingPresentation(["x", "y", "z"], [1, 1, 1], relations=relations)
    calls = []
    column_degree = ModuleContext.column_degree

    def counting(self, terms):
        calls.append(terms)
        return column_degree(self, terms)

    monkeypatch.setattr(ModuleContext, "column_degree", counting)
    rows = [PL(ring, "x; y; z"), PL(ring, "y; z; x")]
    module = PresentedModule(ring, GradedFreeModule(ring, (0, 0)), PolyMatrix(ring, rows))
    assert len(calls) == 3
    # the minimalized presentation keeps the degrees minimalize carried, and
    # the first step reads them
    module.resolution()
    assert len(calls) == 3


@pytest.mark.parametrize("relations", [(), ("x^2", "y^2", "z^2"), ("x*z - y^2",)])
def test_minimalized_presentation_keeps_its_column_degrees(relations):
    """The degrees presentation_minimalize carries over are the ones a fresh
    PresentedModule computes on its columns, after units are cancelled, zero
    columns dropped and entries reduced modulo J."""
    ring = RingPresentation(["x", "y", "z"], [1, 1, 1], relations=relations)
    rng = random.Random(f"minimalized degrees:{relations}")
    twists = (0, 1, 1)
    amb = GradedFreeModule(ring, twists)
    shrunk = 0
    for _ in range(12):
        cols = [random_column(ring, rng.randint(0, 3), twists, rng)
                for _ in range(rng.randint(1, 5))]
        cols.append([ring.zero()] * len(twists))
        module = PresentedModule(ring, amb, PolyMatrix.from_columns(ring, len(twists), cols))
        out = presentation_minimalize(module)
        fresh = PresentedModule(ring, out.ambient, out.relations)
        assert out.column_degrees == fresh.column_degrees
        shrunk += out.ambient.rank < amb.rank
    assert shrunk  # some draws do cancel a unit


def lead_degree_ring(name):
    plain = RingPresentation(["x", "y", "z"], [1, 1, 1])
    if name == "weighted":
        return RingPresentation(["x", "y", "z", "w"], [1, 2, 3, 1])
    return plain.extend_relations(PL(plain, "x*z - y^2")) if name == "cone" else plain


@pytest.mark.parametrize("name", ["plain", "weighted", "cone"])
def test_syzygy_degrees_are_read_off_the_lead_term(name):
    """Over homogeneous relations every syzygy of homogeneous columns is
    homogeneous, so the degree of its lead term, which ``_syzygy_step``
    reads, is the degree that scanning every term gives."""
    ring = lead_degree_ring(name)
    rng = random.Random(f"lead degree {name}")
    checked = 0
    with deadline(60):
        for _ in range(10):
            twists = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2)))
            degs = [rng.randint(2, 4) for _ in range(rng.randint(2, 4))]
            cols = [random_column(ring, d, twists, rng) for d in degs]
            mat = PolyMatrix.from_columns(ring, len(twists), cols)
            for _step in range(3):
                ctx = ModuleContext(ring, mat.ncols, twists=degs)
                for syz in module_syzygies(ring, mat.cols, nrows=mat.nrows):
                    assert ctx.degree(max(syz)) == ctx.column_degree(syz)
                    checked += 1
                mat, degs = _syzygy_step(mat, degs, None)
                assert degs == [ctx.column_degree(col) for col in mat.cols]
                if not degs:
                    break
    assert checked >= 20


@pytest.mark.parametrize(
    "gens, message",
    [
        ("X; Y; Z", "inconsistent degrees"),
        ("X^2; Y", "inconsistent degrees"),
        ("X", "not homogeneous"),
    ],
)
def test_inhomogeneous_relations_keep_the_scan_that_raises(gens, message):
    """Over the inhomogeneous c04 ring a syzygy of homogeneous columns need
    not be homogeneous: scanning its terms raises, as before."""
    ring = c04_ring()
    module = PresentedModule.cyclic(ring, parse_poly_list(gens, ring))
    with pytest.raises(CakError, match=message):
        minimal_free_resolution(module, max_length=3)


# -- every error branch, the empty cases and the reprs ----------------------


def test_matrix_module_and_complex_shape_errors(kxy, kxyz):
    x, y = P(kxy, "x"), P(kxy, "y")
    with pytest.raises(CakError, match="ragged matrix"):
        PolyMatrix(kxy, [[x, y], [x]])
    with pytest.raises(CakError, match="ragged matrix"):
        PolyMatrix.from_columns(kxy, 2, [[x]])
    with pytest.raises(CakError, match="matrix entry from a different ring"):
        PolyMatrix.from_columns(kxy, 1, [[P(kxyz, "x")]])
    row = PolyMatrix(kxy, [[x, y]])
    with pytest.raises(CakError, match="matrix shapes do not compose"):
        row.compose(row)
    with pytest.raises(CakError, match="one row per ambient basis element"):
        PresentedModule(kxy, GradedFreeModule(kxy, (0, 0)), row)
    F0, F1 = GradedFreeModule(kxy, (0,)), GradedFreeModule(kxy, (1, 1))
    with pytest.raises(CakError, match="complex needs one map between consecutive modules"):
        ChainComplex(kxy, [F0, F1], [])
    with pytest.raises(CakError, match="map 1 has the wrong shape"):
        ChainComplex(kxy, [F1, F0], [row])


def test_reprs_of_free_modules_matrices_and_betti_tables(kxy):
    res = minimal_free_resolution(PresentedModule.cyclic(kxy, PL(kxy, "x; y")))
    assert repr(res.complex.modules[1]) == "F(rank 2, twists (1, 1))"
    assert repr(res.complex.maps[0]) == "PolyMatrix(1x2)"
    assert repr(res.betti) == "BettiTable((1, 2, 1))"


def test_the_zero_module_has_an_empty_betti_table(kxy):
    """R/(1) = 0: no free module, no rank, and an empty table."""
    res = minimal_free_resolution(PresentedModule.cyclic(kxy, PL(kxy, "x; 1")))
    assert res.betti.total_ranks() == () and res.betti.as_rows() == []
    assert res.betti.format_macaulay() == "(empty)"


def test_the_empty_sequence_is_regular(kxy):
    assert is_regular_sequence(kxy, [])


@pytest.mark.parametrize("relations, gens, i, message", [
    (["x1^2"], "x1", 1, "graded_rank_check works over the polynomial ring"),
    ([], "", 1, "need a nonempty ideal and i >= 1"),
    ([], "x1", 0, "need a nonempty ideal and i >= 1"),
    ([], "x1 + x2^2", 1, "parameter ideal generators must be homogeneous"),
])
def test_graded_rank_check_preconditions(relations, gens, i, message):
    ring = RingPresentation(["x1", "x2"], [1, 1], relations=relations)
    with pytest.raises(PreconditionError) as exc:
        graded_rank_check(ring, IdealHandle(ring, PL(ring, gens)), i)
    assert str(exc.value) == message


@pytest.mark.parametrize("name, wrong, message", [
    ("minimal_generator_count", lambda n: n + 1, "rank of Q^1/Q^2 is 3, expected 2"),
    ("module_length", lambda n: 2 * n, "layer length does not match a free S/Q-module of that rank"),
])
def test_graded_rank_check_reports_a_count_off_the_theorem(monkeypatch, name, wrong, message):
    """For a regular sequence both counts follow from the theorem, so no
    input reaches these errors: a wrong count from the layer below stands
    in for one."""
    import cak.resolve

    real = getattr(cak.resolve, name)
    monkeypatch.setattr(cak.resolve, name, lambda *args: wrong(real(*args)))
    ring = RingPresentation(["x1", "x2"], [1, 1])
    with pytest.raises(CakError) as exc:
        graded_rank_check(ring, IdealHandle(ring, ring.gens()), 1)
    assert str(exc.value) == message


def test_module_standard_basis_of_infinite_length(tmp_path, capsys):
    """Ext into a module of infinite length: its view has no finite basis."""
    from cak.cli import main
    from test_fileio_cli import _ring_file

    ring = _ring_file(tmp_path, ["x", "y"], ["x^2"])
    module = tmp_path / "m.json"
    module.write_text('{"ambient_twists": [0], "relations": [["x"]]}')
    assert main(["ext", "--ring", ring, "--module", str(module), "--bound", "1"]) == 2
    assert capsys.readouterr() == ("", "error: module component 0 is not finite-dimensional\n")


def test_free_view_times_overflow():
    from cak.errors import DegreeOverflowError
    from cak.polyring import MAX_EXP
    from cak.resolve import ArtinianModule

    ring = RingPresentation(["x", "y"], [1, 1], relations=["x^2", "y^2"])
    view = ArtinianModule(ring, [], 1)
    x = {view.ctx.key(0, ring.var_key(0)): 1}
    assert view.times(ring.var_key(1), x) == {view.ctx.key(0, ring.encode((1, 1))): 1}
    with pytest.raises(DegreeOverflowError, match="exponent overflow in monomial product"):
        view.times(ring.encode((MAX_EXP, 0)), x)

import random
import sys

import pytest

from cak import RingPresentation, PreconditionError
from cak._linalg import matrix_rank
from cak.errors import CakError, NotArtinianError, ResourceLimitError
from cak.groebner import Budget, ModuleContext, module_syzygies
from cak.quotient import (
    ArtinianModule,
    QuotientRing,
    _hom_rank,
    cm_type,
    cyclic_presentation,
    embedding_dim,
    ext_dims,
    free_module_presentation,
    is_complete_intersection,
    is_free_module,
    quotient_of,
    residue_field_presentation,
    socle_dim,
    tor_dims,
    tor_zero_dim,
)
from cak.resolve import GradedFreeModule, PolyMatrix, PresentedModule, minimal_free_resolution
from conftest import P, PL, deadline


@pytest.fixture
def dual_numbers():
    return QuotientRing(RingPresentation(["X"], [1], relations=["X^2"]))


@pytest.fixture
def square_zero():
    return QuotientRing(
        RingPresentation(["X", "Y"], [1, 1], relations=["X^2", "X*Y", "Y^2"])
    )


def test_syzygy_over_quotient_periodic(dual_numbers):
    ring = dual_numbers.presentation
    module = PresentedModule.cyclic(ring, PL(ring, "X"))
    cx = minimal_free_resolution(module, max_length=4).complex
    assert cx.ranks() == (1, 1, 1, 1, 1)
    for i in range(1, 5):
        assert [str(p) for row in cx.differential(i).entries for p in row] == ["X"]


def test_syzygy_over_quotient_free_terminates(dual_numbers):
    ring = dual_numbers.presentation
    cx = minimal_free_resolution(free_module_presentation(ring), max_length=5).complex
    assert cx.ranks() == (1,)


def test_syzygy_over_quotient_three_vars():
    R = QuotientRing(
        RingPresentation(["Y", "Z", "W"], [1, 1, 1],
                         relations=["Y^2", "Y*Z", "Z^2", "W^2"])
    )
    cx = minimal_free_resolution(residue_field_presentation(R.presentation), max_length=1).complex
    assert cx.modules[1].rank == 3


def test_ext_periodic(dual_numbers):
    k = residue_field_presentation(dual_numbers.presentation)
    assert ext_dims(dual_numbers, k, k, 5) == [1, 1, 1, 1, 1]


def test_ext_free_vanishes(dual_numbers):
    F = free_module_presentation(dual_numbers.presentation)
    assert ext_dims(dual_numbers, F, F, 4) == [0, 0, 0, 0]


def test_ext_square_zero(square_zero):
    k = residue_field_presentation(square_zero.presentation)
    assert ext_dims(square_zero, k, k, 2) == [2, 4]


def test_tor_examples(dual_numbers):
    k = residue_field_presentation(dual_numbers.presentation)
    assert tor_dims(dual_numbers, k, k, 4) == [1, 1, 1, 1]
    F = free_module_presentation(dual_numbers.presentation)
    assert tor_dims(dual_numbers, F, k, 3) == [0, 0, 0]
    assert tor_zero_dim(dual_numbers, k, k) == 1


def test_is_free_module(dual_numbers):
    ring = dual_numbers.presentation
    free2 = free_module_presentation(ring, twists=(0, 0))
    assert is_free_module(dual_numbers, free2) == (True, 2)
    k = residue_field_presentation(ring)
    assert is_free_module(dual_numbers, k) == (False, None)
    # a column that is zero mod the relations is no relation at all
    amb = GradedFreeModule(ring, (0,))
    hidden_zero = PresentedModule(ring, amb, PolyMatrix(ring, [[P(ring, "X^2")]]))
    assert is_free_module(dual_numbers, hidden_zero) == (True, 1)


def test_curve_reduction_module_is_free(r1_ring):
    # I/q over R/I for the certified curve instance: free of rank 2
    ring = r1_ring
    zgen, wgen = P(ring, "Z"), P(ring, "W")
    lift_cols = [[zgen], [wgen], [P(ring, "X")]]
    ctx = ModuleContext(ring, len(lift_cols))
    packed = [ModuleContext(ring, 1).from_column(c) for c in lift_cols]
    syz = [ctx.to_column(s) for s in module_syzygies(ring, packed, nrows=1)]
    residue = quotient_of(ring, PL(ring, "X; Z; W"))
    T = residue.presentation
    rel_cols = [[c[0].transfer(T), c[1].transfer(T)] for c in syz]
    M = PresentedModule(
        T, GradedFreeModule(T, (16, 26)), PolyMatrix.from_columns(T, 2, rel_cols)
    )
    assert is_free_module(residue, M) == (True, 2)


def test_socle_examples(square_zero, dual_numbers):
    assert socle_dim(square_zero) == 2
    five = QuotientRing(RingPresentation(["X"], [1], relations=["X^5"]))
    assert socle_dim(five) == 1
    ci = QuotientRing(RingPresentation(["X", "Y"], [1, 1], relations=["X^2", "Y^2"]))
    assert socle_dim(ci) == 1


def test_cm_type_examples(r1_ring):
    assert cm_type(QuotientRing(r1_ring), PL(r1_ring, "X")) == 2
    hyper = RingPresentation(["x", "y"], [1, 1], relations=["y^2"])
    assert cm_type(QuotientRing(hyper), PL(hyper, "x")) == 1
    S3 = RingPresentation(["X", "Y", "Z"], [1, 1, 1])
    circ = S3.extend_relations(PL(S3, "X^2 - Y*Z; Y^2 - Z*X; Z^2 - X*Y"))
    assert cm_type(QuotientRing(circ), PL(circ, "X")) == 2


def test_cm_type_rejects_non_parameters():
    cross = RingPresentation(["x", "y"], [1, 1], relations=["x*y"])
    with pytest.raises(PreconditionError):
        cm_type(QuotientRing(cross), PL(cross, "x"))


def test_embedding_dim_examples(r1_ring):
    assert embedding_dim(r1_ring) == 4
    assert embedding_dim(RingPresentation(["X"], [1], relations=["X^2"])) == 1
    elim = RingPresentation(["X", "Y"], [2, 1], relations=["X - Y^2"])
    assert embedding_dim(elim) == 1


def test_is_complete_intersection(r1_ring):
    ok, v, mu = is_complete_intersection(r1_ring, PL(r1_ring, "X; Z; W"))
    assert ok and (v, mu) == (1, 1)
    square = RingPresentation(["X", "Y"], [1, 1], relations=["X^2", "X*Y", "Y^2"])
    ok, v, mu = is_complete_intersection(square)
    assert not ok and (v, mu) == (2, 3)


def test_is_complete_intersection_rejects_the_unit_ideal():
    plain = RingPresentation(["X", "Y"], [1, 1])
    with pytest.raises(CakError) as err:
        is_complete_intersection(plain, PL(plain, "1"))
    assert str(err.value) == "relations generate the unit ideal"


def test_is_complete_intersection_wants_homogeneous_K():
    # K = (X - Y^2, X^2) = (X - Y^2, Y^4): not homogeneous over weights (1, 1)
    plain = RingPresentation(["X", "Y"], [1, 1])
    with pytest.raises(PreconditionError, match="homogeneous"):
        is_complete_intersection(plain, PL(plain, "X - Y^2; X^2"))
    # the same generators are homogeneous over weights (2, 1)
    weighted = RingPresentation(["X", "Y"], [2, 1])
    assert is_complete_intersection(weighted, PL(weighted, "X - Y^2; X^2")) == (True, 1, 1)


def test_is_complete_intersection_wants_an_artinian_quotient(kxy):
    with pytest.raises(NotArtinianError, match="no pure power of y"):
        is_complete_intersection(kxy, PL(kxy, "x^2"))


def test_matrix_rank_charges_its_budget(r1_ring):
    """One unit per row: a dense 400 x 400 rank over F_32003 ends in
    ResourceLimitError under a budget of 50 instead of running to the end,
    and the CI test charges the rank of the linear parts of K's basis (the
    three rows of X, Z and W) to its caller's budget."""
    rng = random.Random("matrix rank budget")
    rows = [[rng.randrange(32003) for _ in range(400)] for _ in range(400)]
    with deadline(5), pytest.raises(ResourceLimitError):
        matrix_rank(rows, 32003, Budget(50))
    assert matrix_rank(rows[:3], 32003, Budget(3)) == 3
    budget = Budget()
    assert is_complete_intersection(r1_ring, PL(r1_ring, "X; Z; W"), budget) == (True, 1, 1)
    assert budget.used == 6


def test_ext_presentation_independent(square_zero):
    ring = square_zero.presentation
    k = residue_field_presentation(ring)
    redundant = PresentedModule.cyclic(
        ring, PL(ring, "X; Y; X + Y; 2*X")
    )
    for against in (k, free_module_presentation(ring)):
        assert ext_dims(square_zero, k, against, 3) == ext_dims(
            square_zero, redundant, against, 3
        )


def test_hom_into_ring_detects_socle(dual_numbers):
    # dim Hom(k, R) = socle dimension = 1 for the Gorenstein dual numbers
    ring = dual_numbers.presentation
    k = residue_field_presentation(ring)
    from cak.resolve import minimal_free_resolution

    res = minimal_free_resolution(k, max_length=1)
    target = ArtinianModule(ring, [], 1)
    d1 = res.complex.differential(1)
    rank_delta0 = _hom_rank(d1, 1, res.complex.modules[1].rank, target, Budget())
    dim_hom = target.dim * 1 - rank_delta0
    assert dim_hom == 1


def test_duality_transfer_instance():
    # over k[X]/(X^3) with I = (X^2): Gorenstein residue; for the free module
    # Ext and Tor vanish and Ext agrees over R and R/I
    ring = RingPresentation(["X"], [1], relations=["X^3"])
    R = QuotientRing(ring)
    ri = cyclic_presentation(ring, ["X^2"])
    F = free_module_presentation(ring)
    assert ext_dims(R, F, ri, 4) == [0, 0, 0, 0]
    assert tor_dims(R, F, ri, 4) == [0, 0, 0, 0]
    RI = quotient_of(ring, PL(ring, "X^2"))
    f_bar = free_module_presentation(RI.presentation)
    assert ext_dims(RI, f_bar, free_module_presentation(RI.presentation), 4) == [0, 0, 0, 0]


def test_ext_complete_intersection_growth():
    # over k[X,Y]/(X^2, Y^2) the residue field has Betti numbers i+1,
    # so dim Ext^i(k, k) = i + 1 (classical Koszul/complete-intersection fact)
    ring = RingPresentation(["X", "Y"], [1, 1], relations=["X^2", "Y^2"])
    R = QuotientRing(ring)
    k = residue_field_presentation(ring)
    assert ext_dims(R, k, k, 5) == [2, 3, 4, 5, 6]
    assert tor_dims(R, k, k, 5) == [2, 3, 4, 5, 6]


def test_ext_retry_after_budget_exhaustion(square_zero):
    # a call that dies mid-resolution leaves the module's resolution usable
    from cak.errors import ResourceLimitError
    from cak.groebner import Budget

    ring = square_zero.presentation
    k = residue_field_presentation(ring)
    want_ext = ext_dims(square_zero, residue_field_presentation(ring), k, 4)
    want_tor = tor_dims(square_zero, residue_field_presentation(ring), k, 4)
    partial = set()
    for limit in range(0, 120, 6):
        # a fresh target each time: k's is built once and then costs nothing
        M, k = residue_field_presentation(ring), residue_field_presentation(ring)
        try:
            ext_dims(square_zero, M, k, 4, Budget(limit))
            continue
        except ResourceLimitError:
            pass
        builder = M._resolution
        partial.add(None if builder is None else len(builder.maps))
        assert ext_dims(square_zero, M, k, 4) == want_ext
        assert tor_dims(square_zero, M, k, 4) == want_tor
    # died before the first map, and after some maps were kept
    assert {None, 0} <= partial and any(n for n in partial if n)


def test_minimalize_charges_the_relations_basis_to_its_caller(square_zero):
    # (X, Y) has no unit entry, so completing J is all the work there is
    from cak.resolve import ChainComplex, minimalize

    ring = square_zero.presentation
    amb = GradedFreeModule(ring, (0,))
    d1 = PolyMatrix(ring, [PL(ring, "X; Y")])
    cx = ChainComplex(ring, [amb, GradedFreeModule(ring, (1, 1))], [d1])
    with pytest.raises(ResourceLimitError):
        minimalize(cx, Budget(0))
    assert minimalize(cx).ranks() == (1, 2)


def test_cached_target_still_charges_the_hom_ranks(square_zero):
    ring = square_zero.presentation
    M, k = cyclic_presentation(ring, ["X"]), residue_field_presentation(ring)
    want = ext_dims(square_zero, M, k, 3)  # resolves M and builds k's target
    with pytest.raises(ResourceLimitError):
        ext_dims(square_zero, M, k, 3, Budget(0))
    assert ext_dims(square_zero, M, k, 3) == want


def test_free_module_presentation_checks_rank_against_twists(square_zero):
    ring = square_zero.presentation
    assert free_module_presentation(ring, 2).ambient.twists == (0, 0)
    assert free_module_presentation(ring, twists=(0, 1)).ambient.twists == (0, 1)
    assert free_module_presentation(ring, 2, (0, 3)).ambient.twists == (0, 3)
    with pytest.raises(PreconditionError):
        free_module_presentation(ring, 2, (0,))
    # R itself is one module per ring, however it is asked for
    R = free_module_presentation(ring)
    assert free_module_presentation(square_zero) is R
    assert free_module_presentation(ring, 1, (0,)) is R
    assert free_module_presentation(ring, 2) is not free_module_presentation(ring, 2)


def test_the_ring_as_a_target_is_built_once_per_ring(square_zero, monkeypatch):
    """R's one view serves the Artinian steps of every resolution over R
    and every Ext into R, and reads the handle of J: no module completion."""
    from cak import groebner
    from cak.ulrich import ar_instance_check

    shapes, completions = [], []
    target_init, engine = ArtinianModule.__init__, groebner.module_membership_engine

    def counting_target_init(self, ring, columns, nrows, budget=None):
        shapes.append((nrows, len(columns)))
        target_init(self, ring, columns, nrows, budget)

    def counting_engine(ring, columns, nrows, **kwargs):
        completions.append(len(columns))
        return engine(ring, columns, nrows, **kwargs)

    monkeypatch.setattr(ArtinianModule, "__init__", counting_target_init)
    # patch every cak module that holds the function, not only its home
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "cak" and getattr(mod, "module_membership_engine", None) is engine:
            monkeypatch.setattr(mod, "module_membership_engine", counting_engine)
    ring = square_zero.presentation
    M, k = cyclic_presentation(ring, ["X"]), residue_field_presentation(ring)
    for module in (M, k):
        minimal_free_resolution(module, max_length=3)
    ar_instance_check(square_zero, M, 3)
    ar_instance_check(square_zero, k, 3)
    want = ext_dims(square_zero, M, free_module_presentation(ring), 3)
    assert shapes.count((1, 0)) == 1  # R: rank one, no relations
    assert completions and 0 not in completions  # none for R
    # the cached target still charges the Hom ranks to each call's budget
    with pytest.raises(ResourceLimitError):
        ext_dims(square_zero, M, free_module_presentation(ring), 3, Budget(0))
    assert ext_dims(square_zero, M, free_module_presentation(ring), 3) == want
    assert shapes.count((1, 0)) == 1


def test_monomial_normal_forms_are_computed_once_per_handle(monkeypatch):
    """The socle and every resolution over R read one cache of monomial
    normal forms on the handle of J, so each monomial is reduced once."""
    from cak.groebner import IdealHandle

    reduced = []
    normal_form = IdealHandle.normal_form

    def counting(self, p, budget=None):
        if len(p.terms) == 1 and set(p.terms.values()) == {1}:
            reduced.append((id(self), *p.terms))
        return normal_form(self, p, budget)

    monkeypatch.setattr(IdealHandle, "normal_form", counting)
    ring = RingPresentation(["x", "y", "z"], [1, 1, 1], relations=["x^3", "y^3", "z^3", "x*y*z"])
    R = QuotientRing(ring)
    assert socle_dim(R) == 3  # x^2*y^2, x^2*z^2, y^2*z^2
    # no monomial entries, so minimalize reduces no monomial of its own
    for gens in (["x + y", "y*z - z^2"], ["x*y + z^2", "y - z"]):
        minimal_free_resolution(cyclic_presentation(ring, gens), max_length=3)
    assert reduced and len(reduced) == len(set(reduced))


def test_one_resolution_per_module(square_zero, monkeypatch):
    from cak import resolve
    from cak.ulrich import ar_instance_check

    built, targets = [], []
    init, target_init = resolve.ResolutionBuilder.__init__, ArtinianModule.__init__

    def counting_init(self, module, budget=None):
        built.append(module)
        init(self, module, budget)

    def counting_target_init(self, ring, columns, nrows, budget=None):
        targets.append(columns)  # a target module's own relation columns
        target_init(self, ring, columns, nrows, budget)

    monkeypatch.setattr(resolve.ResolutionBuilder, "__init__", counting_init)
    monkeypatch.setattr(ArtinianModule, "__init__", counting_target_init)
    ring = square_zero.presentation
    M = cyclic_presentation(ring, ["X"])
    N = residue_field_presentation(ring)
    ext = ext_dims(square_zero, M, N, 3)
    tor = tor_dims(square_zero, M, N, 3)
    tor0 = tor_zero_dim(square_zero, M, N)
    verdict = ar_instance_check(square_zero, M, 3)
    assert built == [M]
    # one target each for N, for M (Ext(M, M)) and for R (Ext(M, R))
    ids = [id(cols) for cols in targets]
    assert len(ids) == len(set(ids)) == 3
    assert id(N.relations.cols) in ids and id(M.relations.cols) in ids
    # the shared resolution gives what fresh modules give
    monkeypatch.undo()
    fresh = lambda: cyclic_presentation(ring, ["X"])
    assert ext == ext_dims(square_zero, fresh(), N, 3)
    assert tor == tor_dims(square_zero, fresh(), N, 3)
    assert tor0 == tor_zero_dim(square_zero, fresh(), N)
    assert verdict.as_dict() == ar_instance_check(square_zero, fresh(), 3).as_dict()


def test_ring_mismatch_raises(square_zero):
    from cak import RingMismatchError

    ring = square_zero.presentation
    M = cyclic_presentation(ring, ["X"])
    k = residue_field_presentation(ring)
    other = QuotientRing(RingPresentation(["A"], [1], relations=["A^5"]))
    for fn in (ext_dims, tor_dims):
        with pytest.raises(RingMismatchError):
            fn(other, M, k, 2)
    with pytest.raises(RingMismatchError):
        tor_zero_dim(other, M, k)
    with pytest.raises(RingMismatchError):
        is_free_module(other, M)
    # an `against` module from an equal but distinct presentation
    twin = RingPresentation(["X", "Y"], [1, 1], relations=["X^2", "X*Y", "Y^2"])
    with pytest.raises(RingMismatchError):
        ext_dims(square_zero, M, residue_field_presentation(twin), 2)
    assert ext_dims(square_zero, M, k, 2) == ext_dims(ring, M, k, 2)


def test_ar_check_minimalizes_once(square_zero, monkeypatch):
    from cak import resolve
    from cak.ulrich import ar_instance_check

    calls = []
    minimalize = resolve.presentation_minimalize

    def counting(module, budget=None):
        calls.append(module)
        return minimalize(module, budget)

    # patch every cak module that holds the function, not only its home
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "cak" and getattr(mod, "presentation_minimalize", None) is minimalize:
            monkeypatch.setattr(mod, "presentation_minimalize", counting)
    ring = square_zero.presentation
    ar_instance_check(square_zero, cyclic_presentation(ring, ["X"]), 3)
    assert len(calls) == 1


def test_socle_dim_budget_bounds_enumeration():
    ring = RingPresentation(
        ["x", "y", "z"], [1, 1, 1], relations=["x^400", "y^400", "z^400", "x*y*z"]
    )
    with deadline(5), pytest.raises(ResourceLimitError):
        socle_dim(QuotientRing(ring), Budget(50))


def test_socle_dim_errors_name_the_defect():
    line = QuotientRing(RingPresentation(["x", "y"], [1, 1], relations=["x^2"]))
    with pytest.raises(NotArtinianError) as err:
        socle_dim(line)
    assert str(err.value) == (
        "quotient is not finite-dimensional: no pure power of y in the lead-term ideal"
    )
    zero = QuotientRing(RingPresentation(["x", "y"], [1, 1], relations=["1"]))
    with pytest.raises(CakError) as err:
        socle_dim(zero)
    assert str(err.value) == "relations generate the unit ideal"


def test_artinian_module_builds_one_engine(square_zero, monkeypatch):
    from cak import groebner

    calls = []
    engine = groebner.module_membership_engine

    def counting(*args, **kwargs):
        calls.append(args)
        return engine(*args, **kwargs)

    # patch every cak module that holds the function, not only its home
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "cak" and getattr(mod, "module_membership_engine", None) is engine:
            monkeypatch.setattr(mod, "module_membership_engine", counting)
    ring = square_zero.presentation
    module = ArtinianModule(ring, [ModuleContext(ring, 1).from_column(PL(ring, "X"))], 1)
    assert len(calls) == 1
    assert module.dim == 2


def test_relations_are_completed_once_per_ring(monkeypatch, r1_ring):
    from cak import groebner
    from cak.groebner import IdealHandle
    from cak.resolve import is_regular_sequence

    completed = []
    original = groebner.buchberger

    def counting(gens, ctx, field, budget=None):
        gens = list(gens)
        if gens == [r.terms for r in ctx.ring.relations]:
            completed.append(ctx.ring)
        return original(gens, ctx, field, budget)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "cak" and getattr(mod, "buchberger", None) is original:
            monkeypatch.setattr(mod, "buchberger", counting)
    ring = RingPresentation(
        ["x", "y", "z"], [1, 1, 1], relations=["x^3", "y^3", "z^3", "x*y*z"]
    )
    assert socle_dim(QuotientRing(ring)) == socle_dim(QuotientRing(ring)) == 3
    for gens in (["x"], ["x", "y^2"]):
        minimal_free_resolution(cyclic_presentation(ring, gens), max_length=3)
    assert is_regular_sequence(r1_ring, PL(r1_ring, "X"))
    IdealHandle(r1_ring, PL(r1_ring, "Z")).colon(IdealHandle(r1_ring, PL(r1_ring, "X")))
    # by identity: a presentation has no __eq__
    assert completed == [ring, r1_ring]


def test_socle_dim_builds_one_basis_and_one_staircase(monkeypatch):
    from cak import groebner

    calls = []
    for fname in ("buchberger", "module_membership_engine", "staircase"):
        original = getattr(groebner, fname)

        def counting(*args, _original=original, _name=fname, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        # patch every cak module that holds the function, not only its home
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "cak" and getattr(mod, fname, None) is original:
                monkeypatch.setattr(mod, fname, counting)
    ring = RingPresentation(
        ["x", "y", "z"], [1, 1, 1], relations=["x^3", "y^3", "z^3", "x*y*z"]
    )
    R = QuotientRing(ring)
    assert socle_dim(R) == 3
    assert len(R.standard_basis()) == 19
    assert sorted(calls) == ["buchberger", "staircase"]


# -- every error branch and the repr -------------------------------------------


def test_quotient_ring_repr():
    ring = RingPresentation(["x", "y"], [1, 2], relations=["x^2", "y^3"])
    assert repr(QuotientRing(ring)) == "QuotientRing(F_32003[x, y; weights (1, 2)] / (2 relations))"


@pytest.mark.parametrize("argv, message", [
    (["type", "--params", "x; 0"], "parameters must be nonzero homogeneous"),
    (["type", "--params", "x + y^2"], "parameters must be nonzero homogeneous"),
    (["ext", "--module", "{k}", "--bound", "0"], "bound must be >= 1"),
    (["tor", "--module", "{k}", "--bound", "0"], "bound must be >= 1"),
])
def test_cli_quotient_argument_errors_exit_2(tmp_path, capsys, argv, message):
    from cak.cli import main
    from test_fileio_cli import _ring_file

    ring = _ring_file(tmp_path, ["x", "y"], ["x^2", "y^2"])
    k = tmp_path / "k.json"
    k.write_text('{"ambient_twists": [0], "relations": [["x", "y"]]}')
    argv = [argv[0], "--ring", ring] + [a.format(k=k) for a in argv[1:]]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")

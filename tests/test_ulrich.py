import pytest

from cak import RingPresentation, PreconditionError
from cak.groebner import Budget, IdealHandle, ideal_ops
from cak.polyring import Polynomial
from cak.quotient import (
    QuotientRing,
    cm_type,
    embedding_dim,
    free_module_presentation,
    quotient_of,
    residue_field_presentation,
    socle_dim,
)
from cak.resolve import module_length
from cak.ulrich import (
    _circulant_quotient,
    ar_instance_check,
    check_structure_conditions,
    circulant_ulrich_family,
    is_parameter_ideal,
    is_ulrich,
    type_relation_check,
    ulrich_model_ring,
)
from cak.verify import random_presented_module
from conftest import P, PL


@pytest.fixture
def r1(r1_ring):
    R = QuotientRing(r1_ring)
    I = IdealHandle(r1_ring, PL(r1_ring, "X; Z; W"))
    q = IdealHandle(r1_ring, PL(r1_ring, "X"))
    return R, I, q


def test_is_parameter_ideal(r1, kxy):
    R, _, q = r1
    assert is_parameter_ideal(R, q, 1)
    assert not is_parameter_ideal(QuotientRing(kxy), IdealHandle(kxy, PL(kxy, "x*y")), 2)
    assert is_parameter_ideal(QuotientRing(kxy), IdealHandle(kxy, PL(kxy, "x; y")), 2)
    ring = R.presentation
    # a unit generator is homogeneous of degree 0, not a parameter
    assert not is_parameter_ideal(R, IdealHandle(ring, PL(ring, "1")), 1)
    # dim R = 1, though R/(X, Y) is Artinian
    assert not is_parameter_ideal(ring, IdealHandle(ring, PL(ring, "X; Y")), 2)
    # dim k[X,Y]/(X^2, Y^2) = 0: one generator is one too many
    art = RingPresentation(["X", "Y"], [1, 1], relations=["X^2", "Y^2"])
    assert not is_parameter_ideal(QuotientRing(art), IdealHandle(art, PL(art, "X")), 1)
    assert is_parameter_ideal(QuotientRing(art), IdealHandle(art, []), 0)
    # the dimension is read off the lead ideal, inhomogeneous relations too
    S3 = RingPresentation(["X", "Y", "Z"], [1, 1, 1])
    c04, _ = _circulant_quotient(S3, ("X^2", "Y", "Z"))
    ring = c04.presentation
    assert is_parameter_ideal(c04, IdealHandle(ring, PL(ring, "X")), 1)
    assert not is_parameter_ideal(c04, IdealHandle(ring, PL(ring, "X; Y")), 2)


def test_dimension_is_computed_once_per_quotient_ring(r1_ring):
    """The first call on a QuotientRing pays for dim R (the basis of the
    relations and a Hilbert numerator); later calls on the same ring pay
    only for R/q.  A bare presentation keeps no dimension, but J is
    completed once per ring, so its calls pay for the Hilbert numerator
    and R/q only."""
    q = PL(r1_ring, "X")
    for R, want in ((QuotientRing(r1_ring), [30, 8]), (r1_ring, [28, 28])):
        totals = []
        for _ in range(2):
            budget = Budget()
            assert is_parameter_ideal(R, q, 1, budget)
            totals.append(budget.used)
        assert totals == want
    assert QuotientRing(r1_ring).dimension() == 1


def test_is_ulrich_curve_instance(r1):
    R, I, q = r1
    rep = is_ulrich(R, I, q, 1)
    assert rep.is_ulrich
    assert rep.len_R_mod_I == 2
    assert rep.mu_I == 3
    assert rep.len_I_mod_q == 4
    assert rep.residue_complete_intersection
    assert rep.residue_gorenstein
    # type + dim <= embedding dimension for a certified CI-residue instance
    r_type = socle_dim(quotient_of(R.presentation, list(q.gens)))
    assert r_type + 1 <= embedding_dim(R.presentation)


def test_is_ulrich_rejects_I_equal_q(r1):
    R, _, q = r1
    rep = is_ulrich(R, q, q, 1)
    assert not rep.I_not_q
    assert not rep.is_ulrich


def test_is_ulrich_precondition_errors(r1):
    R, I, _ = r1
    bad_q = IdealHandle(R.presentation, PL(R.presentation, "Y"))
    with pytest.raises(PreconditionError, match="not contained"):
        is_ulrich(R, I, bad_q, 1)


@pytest.mark.parametrize("check", [is_ulrich, check_structure_conditions, type_relation_check])
def test_parameter_pair_precondition_messages(r1, check):
    R, I, q = r1
    with pytest.raises(PreconditionError) as err:
        check(R, I, q, 2)
    assert str(err.value) == "q is not a parameter ideal of the stated dimension"
    bad_q = IdealHandle(R.presentation, PL(R.presentation, "Y"))
    with pytest.raises(PreconditionError) as err:
        check(R, I, bad_q, 1)
    assert str(err.value) == "q is not contained in I"
    # k[X,Y]/(X^2, Y^2) has dimension 0, so no one-generator q will do
    art = RingPresentation(["X", "Y"], [1, 1], relations=["X^2", "Y^2"])
    with pytest.raises(PreconditionError) as err:
        check(QuotientRing(art), PL(art, "X; Y"), PL(art, "X"), 1)
    assert str(err.value) == "q is not a parameter ideal of the stated dimension"


def test_structure_conditions_curve(r1):
    R, I, q = r1
    rep = check_structure_conditions(R, I, q, 1)
    assert rep.ok
    assert rep.ImodQ_rank == 2


def test_structure_conditions_model_d0():
    R, I = ulrich_model_ring(2, 3)
    empty_q = IdealHandle(R.presentation, [])
    rep = check_structure_conditions(R, I, empty_q, 0)
    assert rep.ok
    assert rep.len_R_mod_I == 1


def test_structure_conditions_negative():
    ring = RingPresentation(["x", "y"], [1, 1], relations=["x*y", "y^3"])
    R = QuotientRing(ring)
    I = IdealHandle(ring, PL(ring, "x; y"))
    q = IdealHandle(ring, PL(ring, "x"))
    rep = check_structure_conditions(R, I, q, 1)
    assert not rep.i2_in_q  # y^2 is not in (x)
    assert not rep.ok


def test_type_relation_curve(r1):
    R, I, q = r1
    lhs, rhs, equal, mu = type_relation_check(R, I, q, 1)
    assert (lhs, rhs, equal, mu) == (2, 2, True, 3)
    # Gorenstein residue: mu(I) = d + r(R)
    assert mu == 1 + lhs


def test_type_relation_hypersurface():
    ring = RingPresentation(["x", "y"], [1, 1], relations=["y^2"])
    R = QuotientRing(ring)
    I = IdealHandle(ring, PL(ring, "x; y"))
    q = IdealHandle(ring, PL(ring, "x"))
    lhs, rhs, equal, mu = type_relation_check(R, I, q, 1)
    assert (lhs, rhs, equal) == (1, 1, True)


@pytest.mark.parametrize(
    "check",
    [
        is_ulrich,
        check_structure_conditions,
        type_relation_check,
        lambda R, I, q, d: cm_type(R, q.gens),
    ],
    ids=["is_ulrich", "check_structure_conditions", "type_relation_check", "cm_type"],
)
def test_certifiers_compute_each_groebner_basis_once(r1_ring, check, monkeypatch):
    """The handles of I, q and I^2 keep their bases, and the socle and the
    CI test read them: no Buchberger run repeats an earlier one, in the ring
    of I or in any other presentation of the same generators.  Checked on
    the monomial-curve instance, the same with I = q (whose two handles
    share one basis) and the three circulant instances of c04."""
    import sys

    from cak import groebner

    calls = []
    original = groebner.buchberger

    def counting(dicts, ctx, *args, **kwargs):
        ambient = ctx.ring.polynomial_ambient()
        terms = (Polynomial(ctx.ring, d).transfer(ambient).terms for d in dicts)
        calls.append((ambient.vars, tuple(sorted(tuple(sorted(t.items())) for t in terms))))
        return original(dicts, ctx, *args, **kwargs)

    # patch every cak module that holds the function, not only its home
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "cak" and getattr(mod, "buchberger", None) is original:
            monkeypatch.setattr(mod, "buchberger", counting)
    instances = [
        (QuotientRing(r1_ring), PL(r1_ring, "X; Z; W"), PL(r1_ring, "X")),
        (QuotientRing(r1_ring), PL(r1_ring, "X"), PL(r1_ring, "X")),
    ]
    S3 = RingPresentation(["X", "Y", "Z"], [1, 1, 1])
    for fgh in (("X", "Y", "Z"), ("X^2", "Y", "Z"), ("X", "Y^2", "Z^3")):
        R, polys = _circulant_quotient(S3, fgh)
        f, g, h = (p.transfer(R.presentation) for p in polys)
        instances.append((R, [f, g, h], [f]))
    for R, I, q in instances:
        calls.clear()
        check(R, IdealHandle(R.presentation, I), IdealHandle(R.presentation, q), 1)
        assert calls and len(calls) == len(set(calls))


def test_model_ring_examples():
    R, I = ulrich_model_ring(1, 1)
    assert [str(r) for r in R.presentation.relations] == ["X1^2"]
    R, I = ulrich_model_ring(2, 2)
    assert len(R.standard_basis()) == 3  # k[X1,X2]/(X1,X2)^2
    R, I = ulrich_model_ring(2, 3)
    len_RI = module_length(I)
    len_R = len(R.standard_basis())
    assert (len_R - len_RI) == 2 * len_RI  # len(I) = r * len(R/I)


@pytest.mark.parametrize("r,v", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 4), (3, 5)])
def test_model_ring_invariants(r, v):
    R, I = ulrich_model_ring(r, v)
    # the v - r linear generators are eliminated from a minimal presentation
    assert embedding_dim(R.presentation) == r
    len_RI = module_length(I)
    assert len(R.standard_basis()) - len_RI == r * len_RI  # len(I) = r * len(R/I)
    assert socle_dim(R) == r
    rep = is_ulrich(R, I, IdealHandle(R.presentation, []), 0)
    assert rep.is_ulrich
    assert rep.residue_complete_intersection
    # type + dim <= embedding dimension on certified instances
    assert socle_dim(R) + 0 <= embedding_dim(R.presentation)


def test_ulrich_colon_invariant(r1):
    R, I, q = r1
    assert ideal_ops("equal", ideal_ops("colon", q, I), I)


def test_circulant_family_regular_sequence_control(kxyz):
    quotient = kxyz.extend_relations(PL(kxyz, "z"))
    with pytest.raises(PreconditionError, match="regular"):
        circulant_ulrich_family(quotient, "x", "y", "z")


def test_circulant_family_factor_divides_control(kxyz):
    with pytest.raises(PreconditionError, match="divide"):
        circulant_ulrich_family(kxyz, "x", "y", "z", f1="y")


def test_ar_check_free_and_residue():
    ring = RingPresentation(["X"], [1], relations=["X^2"])
    R = QuotientRing(ring)
    assert ar_instance_check(R, free_module_presentation(ring), 10).classification == "consistent_free"
    verdict = ar_instance_check(R, residue_field_presentation(ring), 10)
    assert verdict.classification == "hypothesis_fails"
    assert verdict.first_nonvanishing == (1, "Ext(M,M)")


def test_ar_check_never_free_for_nonfree():
    import random

    ring = RingPresentation(["Y", "Z", "W"], [1, 1, 1],
                            relations=["Y^2", "Y*Z", "Z^2", "W^2"])
    R = QuotientRing(ring)
    rng = random.Random("ulrich-ar-smoke")
    from cak.quotient import is_free_module

    found = 0
    while found < 4:
        M = random_presented_module(ring, rng)
        if is_free_module(R, M)[0]:
            continue
        found += 1
        assert ar_instance_check(R, M, 6).classification != "consistent_free"


def test_ar_check_bound_validation():
    ring = RingPresentation(["X"], [1], relations=["X^2"])
    with pytest.raises(PreconditionError):
        ar_instance_check(QuotientRing(ring), free_module_presentation(ring), 0)

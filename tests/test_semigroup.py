import pytest

from cak import CakError, RingPresentation
from cak.groebner import IdealHandle, RingMap
from cak.quotient import embedding_dim
from cak.semigroup import (
    NumericalSemigroup,
    family_2x3_semigroup,
    monomial_curve_ring,
    semigroup_ring,
    semigroup_var_names,
)
from conftest import PL, R1_RELATIONS


def test_frobenius_matches_dp():
    S = NumericalSemigroup((6, 11, 16, 26))
    frob = S.frobenius()
    reachable = {0}
    for v in range(1, frob + 2 * max(S.generators)):
        if any(v - g in reachable for g in S.generators if v >= g):
            reachable.add(v)
    assert frob not in reachable
    assert all(m in reachable for m in range(frob + 1, frob + 20))


def test_validation_errors():
    with pytest.raises(CakError, match="gcd"):
        NumericalSemigroup((4, 6))
    with pytest.raises(CakError, match="redundant"):
        NumericalSemigroup((2, 3, 5))
    with pytest.raises(CakError):
        NumericalSemigroup((0, 3))


def test_semigroup_ring_curve(r1_ambient):
    presented = semigroup_ring(NumericalSemigroup((6, 11, 16, 26)))
    assert presented.vars == ("X", "Y", "Z", "W")
    assert presented.weights == (6, 11, 16, 26)
    computed = IdealHandle(
        r1_ambient, [r.reencode(r1_ambient) for r in presented.relations]
    )
    expected = IdealHandle(r1_ambient, PL(r1_ambient, R1_RELATIONS))
    assert computed.equal(expected)


def test_semigroup_ring_small():
    p23 = semigroup_ring(NumericalSemigroup((2, 3)))
    assert [str(r) for r in p23.relations] == ["X^3 - Y^2"]
    p1 = semigroup_ring(NumericalSemigroup((1,)))
    assert p1.relations == ()
    assert p1.vars == ("X",)


def test_relations_vanish_under_monomial_map():
    presented = semigroup_ring(NumericalSemigroup((6, 11, 16, 26)))
    ambient = presented.polynomial_ambient()
    target = RingPresentation(["t"], [1], ambient.field)
    rmap = RingMap(ambient, target, [target.var("t") ** a for a in (6, 11, 16, 26)])
    for rel in presented.relations:
        assert rmap.apply(rel.transfer(ambient)).is_zero()


@pytest.mark.parametrize("gens", [(2, 3), (3, 4, 5), (6, 11, 16, 26)])
def test_toric_relations_are_balanced_binomials(gens):
    presented = semigroup_ring(NumericalSemigroup(gens))
    for rel in presented.relations:
        assert len(rel) == 2  # binomial, no monomial relations in a toric prime
        assert rel.homogeneous_degree() is not None
    assert embedding_dim(presented) == len(gens)


def test_family_period_matches():
    for n in (6, 9, 11):
        _, _, match = family_2x3_semigroup(n)
        assert match


def test_family_requires_n_at_least_six():
    with pytest.raises(Exception):
        family_2x3_semigroup(5)


def test_family_weight_consistency():
    # W^2 - f must be weighted-homogeneous for every period-one row
    for n in range(6, 12):
        presented, expected, match = family_2x3_semigroup(n)
        wf = [g for g in expected.gens if "W" in str(g)]
        assert len(wf) == 1
        assert wf[0].homogeneous_degree() == 2 * (2 * n + 1)


def test_monomial_curve_preserves_stated_order():
    presented = monomial_curve_ring((10, 14, 16, 13))
    assert presented.weights == (10, 14, 16, 13)


def test_family_second_period_mismatch_reported_as_data():
    # the n = 6m+1 table row is weighted-degree consistent only for m = 1:
    # at n = 13 the computed kernel wants X*Y^2*Z (degree 54), so the family
    # check reports the mismatch rather than patching the table
    _, expected, match = family_2x3_semigroup(13)
    assert match is False


def test_lengths_match_apery_oracle(r1_ring):
    # len(R/(t^a)) equals a for a numerical semigroup ring: the Apery set of
    # the smallest generator is a basis; cross-checks ring-side standard
    # monomial counts against the purely combinatorial membership oracle
    from cak.groebner import IdealHandle
    from cak.resolve import module_length

    S = NumericalSemigroup((6, 11, 16, 26))
    w = S.apery()
    assert sorted(w) == sorted({0, 11, 16, 26, 27, 37})
    ring = r1_ring
    assert module_length(IdealHandle(ring, PL(ring, "X"))) == 6


def test_five_generators_take_numbered_names():
    """Up to four generators are named X, Y, Z, W; from five on X1, X2, ..."""
    assert semigroup_var_names(4) == ["X", "Y", "Z", "W"]
    ring = monomial_curve_ring([5, 6, 7, 8, 9])
    assert ring.vars == ("X1", "X2", "X3", "X4", "X5")
    assert all(r.homogeneous_degree() for r in ring.relations)

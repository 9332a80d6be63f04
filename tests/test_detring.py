import pytest

from cak import PreconditionError, RingPresentation
from cak.complexes import GenericMatrix
from cak.detring import (
    det_reduction_sequence,
    generic_matrix,
    minors_ideal,
    power_parameter_matrix,
)
from cak.groebner import IdealHandle
from conftest import P, PL


def test_minors_size_one_are_entries(kxy):
    gm = GenericMatrix(kxy, [PL(kxy, "x; y")])
    handle = minors_ideal(gm, 1)
    assert {str(g) for g in handle.gens} == {"x", "y"}


def test_minors_banded_2x3():
    ring = RingPresentation(["x1", "x2"], [1, 1])
    gm = power_parameter_matrix(2, 2, ring)
    handle = minors_ideal(gm, 2)
    assert {str(g) for g in handle.gens} == {"x1^2", "x1*x2", "x2^2"}


def test_minors_weighted_curve_matrix():
    ring = RingPresentation(["X", "Y", "Z"], [10, 14, 16])
    gm = GenericMatrix(ring, [PL(ring, "X; Y^2; Z"), PL(ring, "Y; Z^2; X^2")])
    handle = minors_ideal(gm, 2)
    expected = IdealHandle(ring, PL(ring, "X*Z^2 - Y^3; X^3 - Y*Z; X^2*Y^2 - Z^3"))
    assert handle.equal(expected)


def test_power_parameter_matrix_shapes():
    ring = RingPresentation(["x1", "x2"], [1, 1])
    gm = power_parameter_matrix(2, 2, ring)
    assert [[str(p) for p in row] for row in gm.entries] == [
        ["x1", "x2", "0"],
        ["0", "x1", "x2"],
    ]
    ring3 = RingPresentation(["x1", "x2", "x3"], [1, 1, 1])
    one_row = power_parameter_matrix(1, 3, ring3)
    assert [[str(p) for p in row] for row in one_row.entries] == [["x1", "x2", "x3"]]


def test_power_parameter_matrix_missing_vars(kxy):
    with pytest.raises(Exception, match="missing"):
        power_parameter_matrix(2, 3, kxy)


@pytest.mark.parametrize("ell,n", [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (4, 2)])
def test_minors_equal_power(ell, n):
    ring = RingPresentation([f"x{i}" for i in range(1, n + 1)], [1] * n)
    gm = power_parameter_matrix(ell, n, ring)
    Q = IdealHandle(ring, ring.gens())
    assert minors_ideal(gm, ell).equal(Q.power(ell))


def test_det_reduction_2x3_exact_forms():
    forms, report = det_reduction_sequence(2, 3)
    assert [str(f) for f in forms] == ["x11 - x22", "x12 - x23", "x13", "x21"]
    assert report.equality
    sub = [[str(p) for p in row] for row in report.substituted]
    assert sub == [["x11", "x12", "0"], ["0", "x11", "x12"]]


def test_det_reduction_trivial_case():
    forms, report = det_reduction_sequence(1, 1)
    assert forms == []
    assert report.equality


@pytest.mark.parametrize("s,t", [(2, 4), (3, 5)])
def test_det_reduction_passes(s, t):
    forms, report = det_reduction_sequence(s, t)
    assert report.equality
    # |B| + |A \ C| leaves exactly t-s+1 surviving first-row variables
    assert len(forms) == (s - 1) * (t - s + 1) + (s * t - s * (t - s + 1))


def test_det_reduction_shape_guard():
    with pytest.raises(PreconditionError):
        det_reduction_sequence(3, 4)


def test_generic_matrix_builder():
    ring, gm = generic_matrix(2, 3)
    assert gm.nrows == 2 and gm.ncols == 3
    assert len(ring.vars) == 6
    assert gm.row_degrees == (0, 0)
    assert gm.col_degrees == (1, 1, 1)


@pytest.mark.parametrize("ell, n", [(0, 2), (2, 0)])
def test_power_parameter_matrix_wants_positive_sizes(kxy, ell, n):
    with pytest.raises(PreconditionError, match="need ell >= 1 and n >= 1"):
        power_parameter_matrix(ell, n, kxy)


def test_generic_matrix_names_need_single_digits():
    assert generic_matrix(1, 9)[0].vars[-1] == "x19"
    with pytest.raises(PreconditionError, match="generic matrices use single-digit indices"):
        generic_matrix(1, 10)

"""Determinantal machinery: minors ideals, the banded matrix presenting
powers of parameter ideals, and the linear reduction sequence that takes a
generic determinantal ring to a power of a linear ideal."""

from __future__ import annotations

from dataclasses import dataclass
import itertools

from .complexes import GenericMatrix, determinant
from .errors import CakError, PreconditionError
from .groebner import IdealHandle, _as_budget
from .polyring import RingPresentation


def minors_ideal(matrix: GenericMatrix, size: int, budget=None) -> IdealHandle:
    """Ideal generated by all size x size minors, enumerated in
    colexicographic order on the row and column index sets; every memo
    entry of every minor costs one budget unit."""
    if not 1 <= size <= min(matrix.nrows, matrix.ncols):
        raise PreconditionError("minor size exceeds the matrix shape")
    ring = matrix.ring
    budget = _as_budget(budget)
    gens = []
    colex = lambda idx: tuple(reversed(idx))
    for rows in sorted(itertools.combinations(range(matrix.nrows), size), key=colex):
        for cols in sorted(itertools.combinations(range(matrix.ncols), size), key=colex):
            d = determinant(ring, matrix.submatrix(rows, cols), budget)
            if not d.is_zero():
                gens.append(d)
    return IdealHandle(ring, gens)


def power_parameter_matrix(ell: int, n: int, ring: RingPresentation) -> GenericMatrix:
    """The banded ell x (n + ell - 1) matrix whose row i carries x1..xn in
    columns i..i+n-1; its maximal minors generate (x1..xn)^ell."""
    if ell < 1 or n < 1:
        raise PreconditionError("need ell >= 1 and n >= 1")
    missing = [f"x{i}" for i in range(1, n + 1) if f"x{i}" not in ring.var_index]
    if missing:
        raise CakError(f"ring is missing variables {missing}")
    xs = [ring.var(f"x{i}") for i in range(1, n + 1)]
    z = ring.zero()
    t = n + ell - 1
    entries = [
        [xs[j - i] if 0 <= j - i < n else z for j in range(t)] for i in range(ell)
    ]
    return GenericMatrix(ring, entries)


def generic_matrix(s: int, t: int):
    """Fresh polynomial ring k[x11..xst] with the matrix of its variables."""
    names = [f"x{i}{j}" for i in range(1, s + 1) for j in range(1, t + 1)]
    if max(s, t) > 9:
        raise PreconditionError("generic matrices use single-digit indices")
    ring = RingPresentation(names, [1] * (s * t))
    entries = [
        [ring.var(f"x{i}{j}") for j in range(1, t + 1)] for i in range(1, s + 1)
    ]
    return ring, GenericMatrix(ring, entries)


@dataclass
class DetReductionReport:
    """Outcome of the determinantal reduction-sequence verification."""

    forms: list
    equality: bool
    substituted: list

    def as_dict(self):
        return {
            "forms": [str(f) for f in self.forms],
            "equality": self.equality,
            "substituted_matrix": [[str(p) for p in row] for row in self.substituted],
        }


def det_reduction_sequence(s: int, t: int, budget=None):
    """Linear forms x_ij - x_(i+1)(j+1) on the band plus the off-band
    variables; verifies that the minors ideal plus these forms equals
    (x11..x1,t-s+1)^s plus the forms.

    Returns (forms, report).  Requires 2s <= t + 1.
    """
    if 2 * s > t + 1:
        raise PreconditionError("need 2s <= t + 1")
    budget = _as_budget(budget)
    ring, matrix = generic_matrix(s, t)

    band = set()  # B: chained positions in the first s-1 rows
    for i in range(1, s):
        for k in range(t - s + 1):
            band.add((i, i + k))
    covered = set(band)
    for k in range(t - s + 1):
        covered.add((s, s + k))
    forms = []
    for (i, j) in sorted(band):
        forms.append(ring.var(f"x{i}{j}") - ring.var(f"x{i + 1}{j + 1}"))
    for i in range(1, s + 1):
        for j in range(1, t + 1):
            if (i, j) not in covered:
                forms.append(ring.var(f"x{i}{j}"))

    q = IdealHandle(ring, forms)
    minors = minors_ideal(matrix, s, budget)
    lhs = IdealHandle(ring, list(minors.gens) + list(q.gens))
    linear = IdealHandle(ring, [ring.var(f"x1{j}") for j in range(1, t - s + 2)])
    rhs = IdealHandle(ring, list(linear.power(s).gens) + list(q.gens))
    equality = lhs.equal(rhs, budget)

    z = ring.zero()
    substituted = [
        [
            ring.var(f"x1{j - i + 1}") if 0 <= j - i <= t - s else z
            for j in range(1, t + 1)
        ]
        for i in range(1, s + 1)
    ]
    return forms, DetReductionReport(forms=forms, equality=equality, substituted=substituted)

"""Numerical semigroups and their toric ring presentations.

The Apery table of the smallest generator (dynamic relaxation) gives the
Frobenius number exactly.  The toric defining ideal is the kernel of
X_i -> t^(a_i), computed by elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CakError, PreconditionError
from .groebner import IdealHandle, RingMap, ring_map_kernel
from .polyring import RingPresentation

_VAR_NAMES = ("X", "Y", "Z", "W")


@dataclass(frozen=True)
class NumericalSemigroup:
    """Numerical semigroup given by its minimal generators (gcd 1)."""

    generators: tuple[int, ...]

    def __init__(self, generators):
        gens = sorted(set(int(g) for g in generators))
        if not gens or gens[0] < 1:
            raise CakError("generators must be positive integers")
        if math.gcd(*gens) != 1:
            raise CakError("generators must have gcd 1")
        for i, g in enumerate(gens):
            others = gens[:i] + gens[i + 1 :]
            if others and _in_additive_span(g, others):
                raise CakError(f"generator {g} is redundant")
        object.__setattr__(self, "generators", tuple(gens))

    def apery(self):
        """w[c] = least element congruent to c mod the smallest generator."""
        a0 = self.generators[0]
        w = [None] * a0
        w[0] = 0
        changed = True
        while changed:
            changed = False
            for c in range(a0):
                if w[c] is None:
                    continue
                for g in self.generators[1:]:
                    nc = (c + g) % a0
                    cand = w[c] + g
                    if w[nc] is None or cand < w[nc]:
                        w[nc] = cand
                        changed = True
        return w

    def frobenius(self) -> int:
        """Largest gap (-1 when the semigroup is all of N)."""
        w = self.apery()
        return max(w) - self.generators[0]


def _in_additive_span(target: int, gens) -> bool:
    reachable = [False] * (target + 1)
    reachable[0] = True
    for v in range(1, target + 1):
        for g in gens:
            if g <= v and reachable[v - g]:
                reachable[v] = True
                break
    return reachable[target]


def semigroup_var_names(k: int):
    if k <= len(_VAR_NAMES):
        return list(_VAR_NAMES[:k])
    return [f"X{i}" for i in range(1, k + 1)]


def monomial_curve_ring(exponents, budget=None) -> RingPresentation:
    """Presentation of k[t^a : a in the list], one variable per exponent in
    the given order; relations = kernel of the monomial map into k[t]."""
    exponents = tuple(int(a) for a in exponents)
    names = semigroup_var_names(len(exponents))
    ambient = RingPresentation(names, exponents)
    target = RingPresentation(["t"], [1], ambient.field)
    images = [target.var("t") ** a for a in exponents]
    kernel = ring_map_kernel(RingMap(ambient, target, images), budget)
    return ambient.extend_relations(kernel.gens)


def semigroup_ring(S: NumericalSemigroup, budget=None) -> RingPresentation:
    """Presentation of the semigroup ring on the minimal generators."""
    return monomial_curve_ring(S.generators, budget)


# the f-table for the four-generated family <10, 14, 16, 2n+1>, by n mod 6
# with m = n // 6; the n = 6m+3 entry is X^m * Y^(m+1), the unique monomial
# in X, Y of the forced weighted degree 24m + 14
def _family_f(ring: RingPresentation, n: int):
    m, rem = divmod(n, 6)
    X, Y, Z = ring.var("X"), ring.var("Y"), ring.var("Z")
    if rem == 0:
        return X**m * Y ** (m - 1) * Z
    if rem == 1:
        return X ** (m + 2) * Z ** (m - 1)
    if rem == 2:
        return X ** (m + 1) * Y**m
    if rem == 3:
        return X**m * Y ** (m + 1)
    if rem == 4:
        return X**m * Y ** (m - 1) * Z**2
    return X ** (m + 2) * Y ** (m - 1) * Z


def family_2x3_semigroup(n: int, budget=None):
    """The semigroup ring of <10, 14, 16, 2n+1> against its conjectured
    determinantal presentation: 2x2 minors of [[X, Y^2, Z], [Y, Z^2, X^2]]
    plus (W^2 - f) with f selected by n mod 6.

    Returns (presented ring, expected ideal, match flag); a mismatch is
    reported as data, never patched.
    """
    if n < 6:
        raise PreconditionError("the family assumes n >= 6")
    NumericalSemigroup((10, 14, 16, 2 * n + 1))  # validates gcd/minimality
    presented = monomial_curve_ring((10, 14, 16, 2 * n + 1), budget)
    ring = presented.polynomial_ambient()
    X, Y, Z, W = (ring.var(v) for v in ("X", "Y", "Z", "W"))
    minors = [
        X * Z**2 - Y * Y**2,
        X * X**2 - Z * Y,
        Y**2 * X**2 - Z * Z**2,
    ]
    expected = IdealHandle(ring, minors + [W**2 - _family_f(ring, n)])
    computed = IdealHandle(ring, [r.transfer(ring) for r in presented.relations])
    match = expected.equal(computed, budget)
    return presented, expected, match

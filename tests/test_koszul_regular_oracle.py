"""Koszul complexes and regular sequences against the former routes.

``koszul_complex`` is the Eagon-Northcott complex of the 1 x m matrix of the
sequence, and ``is_regular_sequence`` compares Hilbert numerators.  The
former routes are kept here as references: an exterior-algebra builder with
its own basis and matrix loops, and the first-Koszul-homology test (every
syzygy of the sequence lies in the Koszul submodule).  The complexes must
agree twist for twist and column for column, and the verdicts on every
seeded sequence.
"""

import itertools
import random

import pytest

from cak import QQ, RingPresentation, parse_poly_list
from cak.complexes import koszul_complex
from cak.groebner import ModuleContext, _rank_one, module_membership_engine, module_syzygies
from cak.resolve import ChainComplex, GradedFreeModule, PolyMatrix, is_regular_sequence
from conftest import deadline
from test_min_subset import random_form


def reference_koszul_complex(ring, elems):
    """Exterior-algebra complex: basis of step k the k-subsets J, twist the
    degree sum over J, and d(e_J) = sum over l of (-1)^l f_(J_l) e_(J - J_l)."""
    degs = [f.homogeneous_degree() for f in elems]
    m = len(elems)
    modules = []
    bases = []
    for k in range(m + 1):
        subsets = list(itertools.combinations(range(m), k))
        bases.append(subsets)
        modules.append(GradedFreeModule(ring, [sum(degs[i] for i in J) for J in subsets]))
    maps = []
    z = ring.zero()
    for k in range(1, m + 1):
        src, tgt = bases[k], bases[k - 1]
        pos = {J: idx for idx, J in enumerate(tgt)}
        mat = [[z] * len(src) for _ in range(len(tgt))]
        for cidx, J in enumerate(src):
            for l, jl in enumerate(J):
                rest = J[:l] + J[l + 1 :]
                mat[pos[rest]][cidx] = elems[jl] if l % 2 == 0 else -elems[jl]
        maps.append(PolyMatrix(ring, mat, ncols=len(src)))
    cx = ChainComplex(ring, modules, maps)
    assert cx.composition_defect() is None
    return cx


def reference_is_regular_sequence(ring, elems):
    """First-Koszul-homology test: the homogeneous nonunits form a regular
    sequence iff every syzygy lies in the Koszul submodule."""
    if any(e.is_zero() for e in elems):
        return False
    if any(e.degree() == 0 for e in elems):
        return False
    n = len(elems)
    if n == 0:
        return True
    syz = module_syzygies(ring, _rank_one(ring, elems), nrows=1)
    ctx = ModuleContext(ring, n)
    koszul_cols = []
    for i in range(n):
        for j in range(i + 1, n):
            col = [ring.zero()] * n
            col[i] = elems[j]
            col[j] = -elems[i]
            koszul_cols.append(ctx.from_column(col))
    _, engine = module_membership_engine(ring, koszul_cols, n)
    return all(engine.contains(s) for s in syz)


def nonzero_form(ring, degree, rng, zero_chance):
    """A random form of the given degree, redrawn dense when every term was
    dropped; zero only when no monomial has that degree."""
    return random_form(ring, degree, rng, zero_chance) or random_form(ring, degree, rng, 0.0)


# -- Koszul complexes ------------------------------------------------------------


@pytest.mark.parametrize("field", [None, QQ], ids=["fp", "qq"])
@pytest.mark.parametrize("weights", [(1, 1, 1, 1), (1, 2, 3, 1)], ids=["standard", "weighted"])
def test_koszul_complex_matches_the_exterior_algebra_builder(weights, field):
    ring = RingPresentation(["x", "y", "z", "w"], weights, field)
    rng = random.Random(f"koszul {weights} {field}")
    with deadline(30):
        for m in range(1, 5):
            for _ in range(3):
                elems = [nonzero_form(ring, rng.randint(1, 4), rng, 0.5) for _ in range(m)]
                got = koszul_complex(ring, elems)
                want = reference_koszul_complex(ring, elems)
                assert [M.twists for M in got.modules] == [M.twists for M in want.modules]
                assert [d.cols for d in got.maps] == [d.cols for d in want.maps]


# -- regular sequences -------------------------------------------------------------


def oracle_rings():
    for field, tag in ((None, "fp"), (QQ, "qq")):
        plain = RingPresentation(["x", "y", "z"], [1, 1, 1], field)
        yield f"plain-{tag}", plain
        weighted = RingPresentation(["x", "y", "z"], [1, 2, 3], field)
        yield f"weighted-{tag}", weighted
        yield f"cone-{tag}", plain.extend_relations(parse_poly_list("x*z - y^2", plain))
        yield f"nonreduced-{tag}", plain.extend_relations(parse_poly_list("x^2; x*y", plain))
        yield f"weighted-quotient-{tag}", weighted.extend_relations(
            parse_poly_list("y^3 - z^2; x^2*z - x*y^2", weighted)
        )


def random_sequence(ring, rng):
    """One to three homogeneous elements: dense or sparse forms, monomials,
    and multiples of an earlier element, so that both verdicts occur."""
    elems = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if elems and kind < 0.2:
            factor = nonzero_form(ring, rng.randint(1, 2), rng, 0.6)
            elems.append(rng.choice(elems) * factor)
            continue
        d = rng.randint(1, 4)
        zero_chance = 0.9 if kind < 0.6 else 0.3
        f = nonzero_form(ring, d, rng, zero_chance)
        if f:
            elems.append(f)
    return elems


def test_regular_sequence_verdicts_match_koszul_homology():
    cases = regular = 0
    with deadline(120):
        for name, ring in oracle_rings():
            rng = random.Random(f"regular {name}")
            for _ in range(35):
                elems = random_sequence(ring, rng)
                got = is_regular_sequence(ring, elems)
                want = reference_is_regular_sequence(ring, elems)
                assert got == want, (name, [str(e) for e in elems])
                cases += 1
                regular += got
    assert cases >= 300
    # both verdicts occur often enough to matter
    assert 0.2 * cases < regular < 0.8 * cases

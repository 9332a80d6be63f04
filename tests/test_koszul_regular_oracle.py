"""Koszul complexes and regular sequences against the former routes.

``koszul_complex`` is the Eagon-Northcott complex of the 1 x m matrix of the
sequence, and ``is_regular_sequence`` compares Hilbert numerators, after a
face test over a polynomial ring (m <= n: the f_i with x_(m+1)..x_n set to
0 of finite colength in k[x_1..x_m]).  The former routes are kept here as
references: an exterior-algebra builder with its own basis and matrix
loops, and the first-Koszul-homology test (every syzygy of the sequence
lies in the Koszul submodule), which shares no code with either
certificate.  The complexes must agree twist for twist and column for
column, and the verdicts on every seeded sequence.
"""

import itertools
import random

import pytest

from cak import QQ, RingPresentation, parse_poly_list
from cak import resolve
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


# -- the face certificate over polynomial rings --------------------------------


@pytest.fixture
def branch(monkeypatch):
    """``decide(ring, elems)``: the verdict and the branch that gave it,
    told apart by the Hilbert numerators ``is_regular_sequence`` computes:
    "face" (the face test certified), "not-artinian" (m = n and the face
    test refused) or "fallback" (the Hilbert series decided)."""
    calls = []
    numerator = resolve.hilbert_numerator

    def counting(*args, **kwargs):
        calls.append(1)
        return numerator(*args, **kwargs)

    monkeypatch.setattr(resolve, "hilbert_numerator", counting)

    def decide(ring, elems):
        calls.clear()
        got = is_regular_sequence(ring, elems)
        if calls:
            return got, "fallback"
        return got, "face" if got else "not-artinian"

    return decide


def face_rings():
    yield "n4-fp", RingPresentation([f"x{i}" for i in range(4)], [1] * 4)
    yield "n5-qq", RingPresentation([f"x{i}" for i in range(5)], [1] * 5, QQ)
    yield "n6-fp", RingPresentation([f"x{i}" for i in range(6)], [1] * 6)
    yield "w1213-fp", RingPresentation(["x", "y", "z", "w"], [1, 2, 1, 3])


def face_sequence(ring, m, rng):
    """m forms of positive degree: dense (the face test certifies), sparse
    (it often refuses), in the last variables only (the cut is zero) and
    multiples of an earlier form (not regular)."""
    n = len(ring.vars)
    elems = []
    while len(elems) < m:
        kind = rng.random()
        if elems and kind < 0.15:
            elems.append(rng.choice(elems) * nonzero_form(ring, 1, rng, 0.5))
            continue
        d = rng.randint(1, 2 if n > 4 else 3)
        if kind < 0.3 and m < n:
            tail = ring.restrict(ring.vars[m:])
            elems.append(nonzero_form(tail, d, rng, 0.5).transfer(ring))
            continue
        elems.append(nonzero_form(ring, d, rng, 0.9 if kind < 0.65 else 0.2))
    return elems


def test_face_certificate_matches_koszul_homology(branch):
    seen = {}
    with deadline(120):
        for name, ring in face_rings():
            rng = random.Random(f"face {name}")
            for m in range(1, len(ring.vars) + 1):
                for _ in range(5):
                    elems = face_sequence(ring, m, rng)
                    got, how = branch(ring, elems)
                    want = reference_is_regular_sequence(ring, elems)
                    assert got == want, (name, how, [str(e) for e in elems])
                    seen[how] = seen.get(how, 0) + 1
    # every branch decides some of the draws
    assert set(seen) == {"face", "not-artinian", "fallback"}, seen
    assert min(seen.values()) >= 10, seen


PIN_RINGS = {
    "plain": ((1, 1, 1), None),
    "weighted": ((1, 2, 3), None),
    "qq": ((1, 1, 1), QQ),
}


@pytest.mark.parametrize(
    "ring_name, gens, verdict, how",
    [
        # z, the cut variable, is all that makes them regular
        ("plain", "z^2; y^2", True, "fallback"),
        ("plain", "x*y; x*z", False, "fallback"),
        ("plain", "x^2; y^2; x*y", False, "not-artinian"),
        ("plain", "x^3 - y*z^2; y^2 - x*z", True, "face"),
        ("weighted", "x^2 - y; x^3 - z", True, "face"),
        ("weighted", "y^3 - z^2; x^2*y - x*z", True, "fallback"),
        ("weighted", "x*y; x*z", False, "fallback"),
        ("weighted", "x*y; y^2; z^2", False, "not-artinian"),
        ("qq", "x^2; y^2; z^2 + 2/3*x*y", True, "face"),
        ("qq", "1/2*x^2 - y*z; x*y", True, "fallback"),
        ("qq", "1/2*x^2 - y*z; x^3 - 2*x*y*z", False, "fallback"),
    ],
)
def test_regular_sequences_are_pinned_with_their_branch(branch, ring_name, gens, verdict, how):
    ring = RingPresentation(["x", "y", "z"], *PIN_RINGS[ring_name])
    elems = parse_poly_list(gens, ring)
    assert branch(ring, elems) == (verdict, how)
    assert reference_is_regular_sequence(ring, elems) == verdict

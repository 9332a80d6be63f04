import itertools
import math
import random
from collections import Counter

import pytest

from cak import QQ, CakError, RingPresentation, PreconditionError, ResourceLimitError, resolve
from cak.complexes import (
    GenericMatrix,
    betti_rank_formula,
    determinant,
    eagon_northcott,
    eagon_northcott_rank,
    koszul_complex,
    tensor_complexes,
    verify_resolution,
)
from cak.detring import generic_matrix, minors_ideal, power_parameter_matrix
from cak.groebner import Budget, IdealHandle, module_membership_engine
from cak.resolve import ChainComplex, GradedFreeModule, PresentedModule, minimal_free_resolution
from conftest import P, PL, deadline
from test_min_subset import random_form


def leibniz_determinant(ring, rows):
    """Permutation-sum determinant, an independent oracle for the Laplace
    expansion of ``determinant``."""
    n = len(rows)
    acc = ring.zero()
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = ring.one()
        for i in range(n):
            term = term * rows[i][perm[i]]
        acc = acc + term if inv % 2 == 0 else acc - term
    return acc


def convolve_ranks(a, b):
    """Ranks of a tensor product of complexes with ranks a and b."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_koszul_ranks(kxy):
    assert koszul_complex(kxy, PL(kxy, "x")).ranks() == (1, 1)
    two = koszul_complex(kxy, PL(kxy, "x; y"))
    assert two.ranks() == (1, 2, 1)
    ring4 = RingPresentation([f"x{i}" for i in range(1, 5)], [1] * 4)
    four = koszul_complex(ring4, ring4.gens())
    assert four.ranks() == (1, 4, 6, 4, 1)
    assert four.composition_defect() is None


def test_koszul_empty(kxy):
    assert koszul_complex(kxy, []).ranks() == (1,)


def test_koszul_resolves_residue_field(kxy):
    cx = koszul_complex(kxy, PL(kxy, "x; y"))
    target = PresentedModule.cyclic(kxy, PL(kxy, "x; y"))
    assert verify_resolution(cx, target).ok


def test_en_one_row_is_koszul(kxyz):
    gm = GenericMatrix(kxyz, [PL(kxyz, "x; y; z")])
    cx = eagon_northcott(gm)
    assert cx.ranks() == koszul_complex(kxyz, PL(kxyz, "x; y; z")).ranks()
    assert cx.composition_defect() is None


def test_en_generic_2x3():
    ring, gm = generic_matrix(2, 3)
    cx = eagon_northcott(gm)
    assert cx.ranks() == (1, 3, 2)
    assert verify_resolution(cx, PresentedModule.cyclic(ring, minors_ideal(gm, 2).gens)).ok


@pytest.mark.parametrize("q", [2, 3, 4])
def test_en_rank_pattern(q):
    ring, gm = generic_matrix(2, q)
    cx = eagon_northcott(gm)
    want = tuple([1] + [k * math.comb(q, k + 1) for k in range(1, q)])
    assert cx.ranks() == want
    for k in range(len(want)):
        assert want[k] == eagon_northcott_rank(2, q, k)


def test_en_banded_resolves_square():
    ring = RingPresentation(["x1", "x2", "x3"], [1, 1, 1])
    mat = power_parameter_matrix(2, 3, ring)
    cx = eagon_northcott(mat)
    Q2 = IdealHandle(ring, ring.gens()).power(2)
    rep = verify_resolution(cx, PresentedModule.cyclic(ring, Q2.gens))
    assert rep.ok, rep.messages


def test_en_shape_violation(kxy):
    gm = GenericMatrix(kxy, [[P(kxy, "x")], [P(kxy, "y")]])
    with pytest.raises(PreconditionError):
        eagon_northcott(gm)


def test_tensor_examples(kxy):
    kx = koszul_complex(kxy, PL(kxy, "x"))
    ky = koszul_complex(kxy, PL(kxy, "y"))
    t = tensor_complexes(kx, ky)
    assert t.ranks() == koszul_complex(kxy, PL(kxy, "x; y")).ranks()
    assert t.composition_defect() is None
    point = koszul_complex(kxy, [])
    assert tensor_complexes(kx, point).ranks() == kx.ranks()


def test_tensor_convolution_law():
    ring = RingPresentation(["x1", "x2", "x3", "x4"], [1] * 4)
    c = eagon_northcott(power_parameter_matrix(2, 2, ring))
    d = koszul_complex(ring, PL(ring, "x3; x4"))
    t = tensor_complexes(c, d)
    assert t.ranks() == convolve_ranks(c.ranks(), d.ranks())
    assert t.composition_defect() is None


def reference_solve_degrees(m):
    """GenericMatrix._solve_degrees as it was, with a row branch and a
    column branch."""
    rows = [None] * m.nrows
    cols = [None] * m.ncols
    for start in range(m.nrows):
        if rows[start] is not None:
            continue
        rows[start] = 0
        queue = [("r", start)]
        while queue:
            kind, idx = queue.pop()
            if kind == "r":
                for j in range(m.ncols):
                    p = m.entries[idx][j]
                    if p.is_zero():
                        continue
                    d = p.homogeneous_degree()
                    if d is None:
                        raise CakError(f"entry ({idx}, {j}) is not homogeneous")
                    want = rows[idx] + d
                    if cols[j] is None:
                        cols[j] = want
                        queue.append(("c", j))
                    elif cols[j] != want:
                        raise CakError("inconsistent row/column degrees")
            else:
                for i in range(m.nrows):
                    p = m.entries[i][idx]
                    if p.is_zero():
                        continue
                    d = p.homogeneous_degree()
                    if d is None:
                        raise CakError(f"entry ({i}, {idx}) is not homogeneous")
                    want = cols[idx] - d
                    if rows[i] is None:
                        rows[i] = want
                        queue.append(("r", i))
                    elif rows[i] != want:
                        raise CakError("inconsistent row/column degrees")
    return [r if r is not None else 0 for r in rows], [c if c is not None else 0 for c in cols]


def test_solved_degrees_match_the_two_branch_solver():
    """Seeded matrices of forms, many entries zero (so the nonzero-entry
    graph often falls apart), some with one entry made inhomogeneous or of
    the wrong degree: the degrees, or the first error, are the old solver's."""
    ring = RingPresentation(["x", "y", "z"], [1, 2, 1])
    rng = random.Random("solve degrees")
    seen = Counter()
    for _ in range(600):
        s, t = rng.randint(1, 4), rng.randint(0, 4)
        rdeg = [rng.randint(-1, 2) for _ in range(s)]
        cdeg = [rng.randint(0, 4) for _ in range(t)]
        rows = [
            [random_form(ring, c - r, rng) if rng.random() < 0.5 else ring.zero() for c in cdeg]
            for r in rdeg
        ]
        if t and rng.random() < 0.5:
            i, j = rng.randrange(s), rng.randrange(t)
            mono = P(ring, rng.choice(["x", "y", "x*z^2", "1"]))
            rows[i][j] = mono if rng.random() < 0.5 else rows[i][j] + mono
        shell = object.__new__(GenericMatrix)
        shell.entries, shell.nrows, shell.ncols = tuple(map(tuple, rows)), s, t
        try:
            want = list(reference_solve_degrees(shell))
        except CakError as e:
            want = str(e)
        try:
            m = GenericMatrix(ring, rows)
            got = [list(m.row_degrees), list(m.col_degrees)]
        except CakError as e:
            got = str(e)
        assert got == want
        seen["solved" if isinstance(want, list) else want.split()[-1]] += 1
    assert set(seen) == {"solved", "homogeneous", "degrees"}, seen
    assert min(seen.values()) > 20, seen


# -- d o d = 0 by construction ------------------------------------------------------
#
# ChainComplex does not multiply its maps out; the Eagon-Northcott and tensor
# sign rules make d o d = 0, and these seeded complexes hold them to it.

FIELDS = pytest.mark.parametrize("field", [None, QQ], ids=["fp", "qq"])


def seeded_matrix(ring, s, t, rng):
    """An s x t matrix of forms with row degrees in {0, 1}, column degrees
    in {2, 3} and about a third of the entries zero."""
    rows = [rng.randint(0, 1) for _ in range(s)]
    cols = [rng.randint(2, 3) for _ in range(t)]
    return GenericMatrix(
        ring,
        [[random_form(ring, c - r, rng, 0.5) if rng.random() > 0.3 else ring.zero()
          for c in cols] for r in rows],
    )


@FIELDS
def test_eagon_northcott_composes_to_zero(field):
    ring = RingPresentation(["x", "y", "z"], [1, 1, 1], field)
    rng = random.Random(f"en d o d {field}")
    with deadline(60):
        for s in range(1, 6):
            for t in range(s, 6):
                cx = eagon_northcott(seeded_matrix(ring, s, t, rng))
                assert cx.ranks() == tuple(
                    eagon_northcott_rank(s, t, k) for k in range(t - s + 2)
                )
                assert cx.composition_defect() is None, (s, t)


@FIELDS
def test_koszul_and_tensor_compose_to_zero(field):
    ring = RingPresentation(["x", "y", "z", "w"], [1, 1, 1, 1], field)
    rng = random.Random(f"koszul d o d {field}")

    def forms(m):
        return [random_form(ring, rng.randint(1, 3), rng, 0.5) or ring.var("x") for _ in range(m)]

    for m in range(1, 5):
        assert koszul_complex(ring, forms(m)).composition_defect() is None, m
    for a, b in ((1, 1), (1, 3), (2, 2)):
        t = tensor_complexes(koszul_complex(ring, forms(a)), koszul_complex(ring, forms(b)))
        assert t.composition_defect() is None, (a, b)


def test_mapping_cone_shape_for_curve_model():
    # EN(banded 2x3 on x2, x3) (x) Koszul(x4): the (1,4,5,2) shape
    ring = RingPresentation(["x1", "x2", "x3", "x4"], [1] * 4)
    z = ring.zero()
    band = GenericMatrix(
        ring,
        [
            [ring.var("x2"), ring.var("x3"), z],
            [z, ring.var("x2"), ring.var("x3")],
        ],
    )
    cx = tensor_complexes(eagon_northcott(band), koszul_complex(ring, PL(ring, "x4")))
    assert cx.ranks() == (1, 4, 5, 2)
    from cak.resolve import minimalize

    assert minimalize(cx).ranks() == (1, 4, 5, 2)
    target_gens = list(
        IdealHandle(ring, PL(ring, "x2; x3")).power(2).gens
    ) + PL(ring, "x4")
    assert verify_resolution(cx, PresentedModule.cyclic(ring, target_gens)).ok


@pytest.mark.parametrize(
    "vrd,want",
    [
        ((4, 2, 1), (1, 4, 5, 2)),
        ((3, 2, 1), (1, 3, 2)),
        ((2, 1, 1), (1, 1)),
    ],
)
def test_betti_rank_formula_values(vrd, want):
    assert betti_rank_formula(*vrd) == want


def test_betti_rank_formula_matches_the_full_sum():
    """The sum over j from 0 to v-r-d, with beta_k = 0 outside 0..r, is
    the reference; each rank costs one unit."""

    def full(v, r, d):
        e = v - r - d
        beta = [1] + [k * math.comb(r + 1, k + 1) for k in range(1, r + 1)]
        return tuple(sum(beta[i - j] * math.comb(e, j) for j in range(e + 1) if 0 <= i - j <= r)
                     for i in range(v - d + 1))

    for v, r, d in [(4, 2, 1), (6, 3, 1), (30, 3, 2), (300, 2, 1), (40, 30, 5), (9, 1, 0)]:
        budget = Budget()
        assert betti_rank_formula(v, r, d, budget) == full(v, r, d)
        assert budget.used == v - d + 1
    with pytest.raises(ResourceLimitError):
        betti_rank_formula(4, 2, 1, Budget(3))


def test_betti_rank_formula_mu_equals_v_case():
    # when v - r - d = 0 the ranks are i * binom(r+1, i+1) and end at r
    for r in (1, 2, 3, 4):
        for d in (0, 1, 2):
            ranks = betti_rank_formula(r + d, r, d)
            assert ranks[0] == 1
            for i in range(1, len(ranks)):
                assert ranks[i] == i * math.comb(r + 1, i + 1)
            assert ranks[-1] == r  # last Betti number = type


def test_betti_rank_formula_errors():
    with pytest.raises(PreconditionError):
        betti_rank_formula(2, 2, 1)
    with pytest.raises(PreconditionError):
        betti_rank_formula(3, 0, 0)


def monomial_blowup():
    """The cyclic module on 120 random monomials in 20 variables, and the
    complex of its free module alone: the pivot recursion behind the Euler
    check runs for most of a minute unless a budget check stops it."""
    rng = random.Random(7)
    ring = RingPresentation([f"x{i}" for i in range(20)], [1] * 20)
    exps = [tuple(rng.choice((0, 0, 1, 2, 6)) for _ in range(20)) for _ in range(120)]
    target = PresentedModule.cyclic(ring, [ring.from_terms([(e, 1)]) for e in exps])
    return target, ChainComplex(ring, [GradedFreeModule(ring, (0,))], [])


def test_verify_resolution_charges_the_hilbert_numerator():
    # the relation engine spends 7,140 units, once for the H_0 and the
    # Euler check together, and the recursion spends the rest
    target, bare = monomial_blowup()
    with deadline(5), pytest.raises(ResourceLimitError):
        verify_resolution(bare, target, Budget(20_000))


def test_verify_resolution_stops_the_hilbert_numerator_at_the_default_budget():
    # each monomial ideal costs its generator count, so the default budget
    # ends the recursion in well under its 45 s run to completion
    target, bare = monomial_blowup()
    with deadline(30), pytest.raises(ResourceLimitError):
        verify_resolution(bare, target)


def test_verify_resolution_completes_the_relation_engine_once(monkeypatch):
    target, bare = monomial_blowup()
    once = Budget()
    module_membership_engine(target.ring, target.relations.cols, 1, budget=once)
    assert once.used == 7_140
    seen = []

    def record(gens, weights, budget=None):
        seen.append(budget.used)
        return {}

    monkeypatch.setattr(resolve, "hilbert_numerator", record)
    verify_resolution(bare, target)
    # the H_0 check's engine is the one the Euler check reads its leads from
    assert seen == [once.used]


def test_verify_resolution_negative_control(kxy):
    from cak.resolve import PolyMatrix

    cx = koszul_complex(kxy, PL(kxy, "x; y"))
    d2 = cx.differential(2)
    corrupted = [[(-p if i == 0 else p) for p in row] for i, row in enumerate(d2.entries)]
    broken = ChainComplex(
        kxy,
        cx.modules,
        [cx.differential(1), PolyMatrix(kxy, corrupted)],
    )
    rep = verify_resolution(broken, PresentedModule.cyclic(kxy, PL(kxy, "x; y")))
    assert not rep.checks["dd_zero"]
    assert not rep.ok


def test_laplace_vs_leibniz_random():
    ring = RingPresentation(["a", "b", "c"], [1, 1, 1])
    rng = random.Random(7)
    gens = ring.gens()
    for _ in range(5):
        rows = [
            [
                sum((g.scale(rng.randrange(5)) for g in gens), ring.zero())
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        assert determinant(ring, rows) == leibniz_determinant(ring, rows)


def test_formula_matches_model_resolution_sample():
    # one nontrivial spot check; the full grid runs in the acceptance suite
    names = ["X1", "X2", "X3", "X4"]
    ring = RingPresentation(names, [1] * 4)
    gens = []
    for i in range(2):
        for j in range(i, 2):
            gens.append(ring.var(names[i]) * ring.var(names[j]))
    gens += [ring.var("X3"), ring.var("X4")]
    res = minimal_free_resolution(PresentedModule.cyclic(ring, gens))
    assert tuple(res.total_ranks()) == betti_rank_formula(4, 2, 0)


def test_formula_matches_resolution_full_grid():
    # the full published-range sweep: 1 <= r <= 4, 0 <= d <= 2, 0 <= extra <= 3,
    # each model extended by d inert parameters and resolved over its ambient
    from cak.verify import model_extension_ring

    for r in (1, 2, 3, 4):
        for d in (0, 1, 2):
            for extra in (0, 1, 2, 3):
                v = r + d + extra
                ring, gens = model_extension_ring(r, v - d, d)
                res = minimal_free_resolution(PresentedModule.cyclic(ring, gens))
                assert tuple(res.total_ranks()) == betti_rank_formula(v, r, d), (
                    f"(v, r, d) = ({v}, {r}, {d})"
                )


# -- every error branch, the empty cases and the reprs ----------------------


def test_generic_matrix_and_determinant_shapes(kxy):
    x, y = P(kxy, "x"), P(kxy, "y")
    with pytest.raises(CakError, match="ragged matrix"):
        GenericMatrix(kxy, [[x, y], [x]])
    assert repr(GenericMatrix(kxy, [[x, y]])) == "GenericMatrix(1x2)"
    assert determinant(kxy, []) == 1  # the empty product
    with pytest.raises(CakError, match="determinant of a non-square matrix"):
        determinant(kxy, [[x, y]])


def test_koszul_complex_wants_forms_of_its_ring(kxy, kxyz):
    with pytest.raises(CakError, match="element from a different ring"):
        koszul_complex(kxy, [P(kxyz, "x")])


@pytest.mark.parametrize("elems, message", [
    ("x; 0", "Koszul complex wants nonzero elements"),
    ("x + 1", "Koszul complex wants homogeneous elements"),
])
def test_cli_koszul_element_errors_exit_2(tmp_path, capsys, elems, message):
    from cak.cli import main
    from test_fileio_cli import _ring_file

    ring = _ring_file(tmp_path, ["x", "y"], [])
    assert main(["koszul", "--ring", ring, "--elems", elems]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_tensor_complexes_wants_one_ring(kxy, kxyz):
    with pytest.raises(CakError, match="complexes live over different rings"):
        tensor_complexes(koszul_complex(kxy, PL(kxy, "x")), koszul_complex(kxyz, PL(kxyz, "x")))


def test_verify_resolution_against_a_target_of_another_rank(kxy):
    """A complex whose F_0 has the wrong rank fails H_0 in a report; it
    does not raise, and the checks after H_0 are not run."""
    cx = koszul_complex(kxy, PL(kxy, "x; y"))
    target = PresentedModule(kxy, GradedFreeModule(kxy, (0, 0)), resolve.PolyMatrix.zero(kxy, 2, 0))
    rep = verify_resolution(cx, target)
    assert rep.as_dict() == {
        "ok": False,
        "checks": {"dd_zero": True, "h0": False},
        "messages": ["h0: ambient ranks differ"],
    }
    assert repr(rep) == "VerificationReport(FAIL: {'dd_zero': True, 'h0': False})"
    good = verify_resolution(cx, PresentedModule.cyclic(kxy, PL(kxy, "x; y")))
    assert repr(good).startswith("VerificationReport(pass: {'dd_zero': True, 'h0': True")

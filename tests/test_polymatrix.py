"""Packed `PolyMatrix` columns against dense references.

`PolyMatrix` stores each column as a packed term dict of
``ModuleContext(ring, nrows)``.  The references below are the dense
row-major algorithms that the packed ones replace: the entry-by-entry
matrix product, the Hom row assembly that walks each dense row of d
(Tensor as Hom of the transpose), on the dense coordinates of a reference
target with a module engine of its own (``conftest.EngineTarget``), and
the Eagon-Northcott complex, the tensor product of complexes and the unit
cancellation `minimalize`, each filling dense grids of polynomials.  They
are compared on seeded matrices and complexes over F_32003, over Q and
over an Artinian quotient, unit-laden and all-zero maps, zero columns and
empty shapes included: entries, twists and budget units.  The entry grid
that the Hom and Tensor ranks read is checked against the dense entries,
and built once per differential across Ext and Tor.
"""

import itertools
import random

import pytest

from cak import QQ, RingPresentation, parse_poly_list, resolve
from cak._linalg import Echelon
from cak.complexes import (
    GenericMatrix,
    determinant,
    eagon_northcott,
    koszul_complex,
    tensor_complexes,
)
from cak.groebner import Budget, ModuleContext, relations_ideal
from cak.quotient import (
    ArtinianModule,
    _hom_rank,
    _tensor_rank,
    cyclic_presentation,
    ext_dims,
    free_module_presentation,
    residue_field_presentation,
    tor_dims,
)
from cak.resolve import (
    ChainComplex,
    GradedFreeModule,
    PolyMatrix,
    PresentedModule,
    minimal_free_resolution,
    minimalize,
)
from conftest import PL, EngineTarget, column_lists
from test_complexes import seeded_matrix


def dense_compose(a, b):
    """Rows of a * b, one polynomial product per pair of nonzero entries."""
    ea, eb = a.entries, b.entries
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = a.ring.zero()
            for k in range(a.ncols):
                if ea[i][k] and eb[k][j]:
                    acc = acc + ea[i][k] * eb[k][j]
            row.append(acc)
        out.append(row)
    return out


def dense_hom_rank(rows, r_lo, r_hi, target, budget):
    """Rank of Hom(d, N) from the dense rows of d: one row per (row j of
    d, basis element b of N) over (column c of d, basis element of N)."""
    if r_lo == 0 or r_hi == 0 or target.dim == 0:
        return 0
    dim = target.dim
    ech = Echelon(target.ring.field.p, budget)
    for j in range(r_lo):
        entries = [(c * dim, e) for c, e in enumerate(rows[j]) if e.terms]
        for b in range(dim):
            row = {}
            for base, entry in entries:
                for t, v in enumerate(target.basis_times(entry, b)):
                    if v:
                        row[base + t] = v
            ech.insert(row)
    return ech.rank


def dense_tensor_rank(rows, r_lo, r_hi, target, budget):
    transposed = [[row[j] for row in rows] for j in range(r_hi)]
    return dense_hom_rank(transposed, r_hi, r_lo, target, budget)


def artinian(field=None):
    S = RingPresentation(["X", "Y"], [1, 1], field)
    return S.extend_relations(parse_poly_list("X^3; X^2*Y; X*Y^2; Y^3", S))


def ring_makers():
    """Each case's ring as a function that makes a fresh copy, so that a
    reference and the code under test each pay for the ring's own data."""
    yield pytest.param(lambda: RingPresentation(["x", "y", "z"], [1, 2, 1]), id="fp")
    yield pytest.param(lambda: RingPresentation(["x", "y", "z"], [1, 1, 1], QQ), id="qq")
    yield pytest.param(artinian, id="quotient")


def rings():
    for param in ring_makers():
        yield pytest.param(param.values[0](), id=param.id)


def random_poly(ring, rng, zero_chance):
    if rng.random() < zero_chance:
        return ring.zero()
    n = len(ring.vars)
    terms = [
        (tuple(rng.randrange(3) for _ in range(n)), rng.randrange(-40, 40))
        for _ in range(rng.randrange(1, 4))
    ]
    return ring.from_terms(terms)


def random_rows(ring, rng, nrows, ncols, zero_chance=0.4):
    rows = [[random_poly(ring, rng, zero_chance) for _ in range(ncols)] for _ in range(nrows)]
    if ncols and nrows and rng.random() < 0.5:
        dead = rng.randrange(ncols)
        for row in rows:
            row[dead] = ring.zero()
    return rows


SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (3, 2), (2, 5), (4, 4)]


def terms_of(rows):
    return [[p.terms for p in row] for row in rows]


@pytest.mark.parametrize("ring", list(rings()))
def test_views_round_trip(ring):
    rng = random.Random(5)
    for nrows, ncols in SHAPES:
        rows = random_rows(ring, rng, nrows, ncols)
        mat = PolyMatrix(ring, rows, ncols=ncols)
        assert (mat.nrows, mat.ncols) == (nrows, ncols)
        assert terms_of(mat.entries) == terms_of(rows)
        cols = [[row[j] for row in rows] for j in range(ncols)]
        ctx = ModuleContext(ring, nrows)
        assert [[p.terms for p in ctx.to_column(c)] for c in mat.cols] == terms_of(cols)
        assert terms_of(column_lists(mat)) == terms_of(cols)
        again = PolyMatrix.from_columns(ring, nrows, column_lists(mat))
        assert again.cols == mat.cols and again.ncols == ncols
        assert list(mat.cols) == [ctx.from_column(col) for col in cols]
        assert PolyMatrix.packed(ring, nrows, mat.cols).entries == mat.entries
        assert mat.is_zero() == all(p.is_zero() for row in rows for p in row)
        zero = PolyMatrix.zero(ring, nrows, ncols)
        assert zero.is_zero() and (zero.nrows, zero.ncols) == (nrows, ncols)
        assert terms_of(zero.entries) == [[{}] * ncols for _ in range(nrows)]


@pytest.mark.parametrize("ring", list(rings()))
def test_grid_holds_the_nonzero_entries_once(ring):
    rng = random.Random(23)
    for nrows, ncols in SHAPES:
        for mat in (PolyMatrix(ring, random_rows(ring, rng, nrows, ncols), ncols=ncols),
                    PolyMatrix.zero(ring, nrows, ncols)):
            grid = mat.grid()
            want = {(i, j): frozenset(p.terms.items())
                    for i, row in enumerate(mat.entries) for j, p in enumerate(row) if p}
            assert grid == want
            assert mat.grid() is grid


def test_ext_then_tor_build_each_grid_once():
    ring = artinian()
    k = residue_field_presentation(ring)
    M = cyclic_presentation(ring, ["X^2", "Y"])
    ext_dims(ring, M, k, 3)  # reads d_1 .. d_4
    maps = M.resolution().maps
    grids = [mat._grid for mat in maps]
    assert len(maps) == 4 and all(g is not None for g in grids)
    tor_dims(ring, M, k, 3)
    assert all(mat._grid is g for mat, g in zip(maps, grids))


@pytest.mark.parametrize("ring", list(rings()))
def test_compose_matches_the_dense_product(ring):
    rng = random.Random(11)
    inner = [0, 1, 3, 4]
    for nrows, ncols in SHAPES:
        for k in inner:
            a = PolyMatrix(ring, random_rows(ring, rng, nrows, k), ncols=k)
            b = PolyMatrix(ring, random_rows(ring, rng, k, ncols), ncols=ncols)
            got = a.compose(b)
            assert (got.nrows, got.ncols) == (nrows, ncols)
            want = dense_compose(a, b)
            assert terms_of(got.entries) == terms_of(want)
            assert got.is_zero() == all(p.is_zero() for row in want for p in row)


def test_compose_finds_a_complex(kxy):
    x, y = kxy.gens()
    d1 = PolyMatrix(kxy, [[x, y]])
    d2 = PolyMatrix(kxy, [[-y], [x]])
    assert d1.compose(d2).is_zero()
    assert not d2.compose(d1).is_zero()


def targets(ring):
    yield residue_field_presentation(ring)
    yield free_module_presentation(ring)
    yield cyclic_presentation(ring, ["X^2", "Y"])
    cols = [parse_poly_list("X; Y", ring), parse_poly_list("Y^2; 0", ring)]
    rels = PolyMatrix.from_columns(ring, 2, cols)
    yield PresentedModule(ring, GradedFreeModule(ring, (0, 0)), rels)


@pytest.mark.parametrize("field", [None, QQ], ids=["fp", "qq"])
def test_hom_and_tensor_ranks_match_the_dense_assembly(field):
    ring = artinian(field)
    rng = random.Random(17)
    mats = [PolyMatrix(ring, random_rows(ring, rng, r, c), ncols=c) for r, c in SHAPES]
    res = minimal_free_resolution(residue_field_presentation(ring), max_length=3)
    mats += res.complex.maps + [PolyMatrix.zero(ring, 2, 3)]
    for module in targets(ring):
        packed_budget, dense_budget = Budget(), Budget()
        cols, rank = module.relations.cols, module.ambient.rank
        packed = ArtinianModule(ring, cols, rank, packed_budget)
        dense = EngineTarget(ring, cols, rank)
        assert packed.basis == dense.basis
        for mat in mats:
            rows, shape = mat.entries, (mat.nrows, mat.ncols)
            before = (packed_budget.used, dense_budget.used)
            assert _hom_rank(mat, *shape, packed, packed_budget) == dense_hom_rank(
                rows, *shape, dense, dense_budget
            )
            assert _tensor_rank(mat, *shape, packed, packed_budget) == dense_tensor_rank(
                rows, *shape, dense, dense_budget
            )
            # one echelon insertion per row on both sides
            assert packed_budget.used - before[0] == dense_budget.used - before[1]


# -- complexes: dense references ------------------------------------------------


def dense_eagon_northcott(matrix, budget):
    """The Eagon-Northcott complex with each d_k filled as a dense grid of
    polynomials and packed by the row-major constructor."""
    s, t, ring = matrix.nrows, matrix.ncols, matrix.ring
    rdeg, cdeg = matrix.row_degrees, matrix.col_degrees

    def compositions(total, parts):
        if parts == 1:
            return [(total,)]
        return sorted((first,) + rest for first in range(total, -1, -1)
                      for rest in compositions(total - first, parts - 1))

    budget.spend()
    bases, modules = [[((), ())]], [GradedFreeModule(ring, [0])]
    for k in range(1, t - s + 2):
        basis = []
        for J in itertools.combinations(range(t), s + k - 1):
            for a in compositions(k - 1, s):
                budget.spend()
                basis.append((J, a))
        bases.append(basis)
        modules.append(GradedFreeModule(ring, [
            sum(cdeg[j] for j in J) - sum(ai * ri for ai, ri in zip(a, rdeg)) - sum(rdeg)
            for (J, a) in basis
        ]))
    z = ring.zero()
    row = [determinant(ring, matrix.submatrix(range(s), J), budget) for J, _a in bases[1]]
    maps = [PolyMatrix(ring, [row], ncols=len(bases[1]))]
    for k in range(2, t - s + 2):
        src, tgt = bases[k], bases[k - 1]
        pos = {key: idx for idx, key in enumerate(tgt)}
        mat = [[z] * len(src) for _ in range(len(tgt))]
        for cidx, (J, a) in enumerate(src):
            for l, jl in enumerate(J):
                rest = J[:l] + J[l + 1:]
                for i in range(s):
                    m = matrix.entries[i][jl]
                    if a[i] == 0 or m.is_zero():
                        continue
                    ridx = pos[(rest, a[:i] + (a[i] - 1,) + a[i + 1:])]
                    entry = m if l % 2 == 0 else -m
                    cur = mat[ridx][cidx]
                    mat[ridx][cidx] = entry if cur.is_zero() else cur + entry
        maps.append(PolyMatrix(ring, mat, ncols=len(src)))
    return ChainComplex(ring, modules, maps)


def dense_tensor(c, d):
    """C (x) D with each map filled as a dense grid, d^D times (-1)^i on
    the summand C_i (x) D_j."""
    ring, lc, ld = c.ring, c.length, d.length

    def summands(k):
        return [(i, k - i) for i in range(max(0, k - ld), min(k, lc) + 1)]

    offsets, modules = [], []
    for k in range(lc + ld + 1):
        offs, twists = {}, []
        for (i, j) in summands(k):
            offs[(i, j)] = len(twists)
            twists += [tc + td for tc in c.modules[i].twists for td in d.modules[j].twists]
        offsets.append(offs)
        modules.append(GradedFreeModule(ring, twists))
    maps = []
    for k in range(1, lc + ld + 1):
        src_off, tgt_off = offsets[k], offsets[k - 1]
        mat = [[ring.zero()] * modules[k].rank for _ in range(modules[k - 1].rank)]
        for (i, j) in summands(k):
            rc, rd = c.modules[i].rank, d.modules[j].rank
            dc = c.differential(i).entries if (i - 1, j) in tgt_off else None
            dd = d.differential(j).entries if (i, j - 1) in tgt_off else None
            for bc, bd in itertools.product(range(rc), range(rd)):
                col = src_off[(i, j)] + bc * rd + bd
                for tr in range(c.modules[i - 1].rank if dc else 0):
                    if dc[tr][bc]:
                        mat[tgt_off[(i - 1, j)] + tr * rd + bd][col] = dc[tr][bc]
                for tr in range(d.modules[j - 1].rank if dd else 0):
                    if dd[tr][bd]:
                        e = -dd[tr][bd] if i % 2 else dd[tr][bd]
                        mat[tgt_off[(i, j - 1)] + bc * d.modules[j - 1].rank + tr][col] = e
        maps.append(PolyMatrix(ring, mat, ncols=modules[k].rank))
    return ChainComplex(ring, modules, maps)


def dense_minimalize(complex, budget):
    """Unit cancellation on dense rows: the first unit in order of map, row
    and column is cancelled, and every entry of the map is rewritten."""
    ring = complex.ring
    relh = relations_ideal(ring) if ring.relations else None
    nf = (lambda p: relh.normal_form(p, budget)) if relh else (lambda p: p)
    mats = [[list(map(nf, row)) for row in m.entries] for m in complex.maps]
    twists = [list(m.twists) for m in complex.modules]

    def find_unit(start):
        for idx in range(start, len(mats)):
            for r, row in enumerate(mats[idx]):
                for c, p in enumerate(row):
                    if p.terms and set(p.terms) == {ring.one_key}:
                        return idx, r, c
        return None

    idx = 0
    while (hit := find_unit(idx)) is not None:
        budget.spend()
        idx, r, c = hit
        mat = mats[idx]
        u_inv = ring.field.inv(mat[r][c].terms[ring.one_key])
        mats[idx] = [
            [nf(mat[i][j] - mat[i][c].scale(u_inv) * mat[r][j])
             for j in range(len(mat[0])) if j != c]
            for i in range(len(mat)) if i != r
        ]
        if idx + 1 < len(mats):
            mats[idx + 1] = [row for i, row in enumerate(mats[idx + 1]) if i != c]
        if idx > 0:
            mats[idx - 1] = [[p for j, p in enumerate(row) if j != r] for row in mats[idx - 1]]
        del twists[idx][r]
        del twists[idx + 1][c]
    while len(twists) > 1 and not twists[-1]:
        twists.pop()
        mats.pop()
    modules = [GradedFreeModule(ring, t) for t in twists]
    maps = [PolyMatrix(ring, m, ncols=modules[i + 1].rank) for i, m in enumerate(mats)]
    return ChainComplex(ring, modules, maps)


def random_complex(ring, rng, units=True, zero=False, top=5):
    """Seeded maps between free modules of ranks below ``top`` with random
    twists (d o d is not asked for): about a third of the entries zero, all
    of them when ``zero``, and with ``units`` some nonzero constants."""
    ranks = [rng.randrange(top) for _ in range(rng.randrange(1, 5))]
    modules = [GradedFreeModule(ring, [rng.randrange(-2, 4) for _ in range(r)]) for r in ranks]
    maps = []
    for lo, hi in zip(ranks, ranks[1:]):
        rows = random_rows(ring, rng, lo, hi, 1.0 if zero else 0.4)
        for _ in range(rng.randrange(lo * hi + 1) if units and not zero else 0):
            rows[rng.randrange(lo)][rng.randrange(hi)] = ring.constant(rng.randrange(1, 40))
        maps.append(PolyMatrix(ring, rows, ncols=hi))
    return ChainComplex(ring, modules, maps)


def assert_same_complex(got, want):
    assert [m.twists for m in got.modules] == [m.twists for m in want.modules]
    assert [(m.nrows, m.ncols) for m in got.maps] == [(m.nrows, m.ncols) for m in want.maps]
    assert [terms_of(m.entries) for m in got.maps] == [terms_of(m.entries) for m in want.maps]


@pytest.mark.parametrize("make", list(ring_makers()))
def test_eagon_northcott_matches_the_dense_construction(make):
    ring, rng = make(), random.Random(23)
    for s in range(1, 4):
        for t in range(s, 5):
            matrix = seeded_matrix(ring, s, t, rng)
            got_budget, want_budget = Budget(), Budget()
            got = eagon_northcott(matrix, got_budget)
            assert_same_complex(got, dense_eagon_northcott(matrix, want_budget))
            assert got_budget.used == want_budget.used
    x, y = ring.gens()[0], ring.gens()[-1]
    forms = [x, y * y, x * y]
    assert_same_complex(
        koszul_complex(ring, forms), dense_eagon_northcott(GenericMatrix(ring, [forms]), Budget())
    )


@pytest.mark.parametrize("make", list(ring_makers()))
def test_tensor_matches_the_dense_construction(make):
    ring, rng = make(), random.Random(29)
    for _ in range(40):
        c, d = random_complex(ring, rng, top=4), random_complex(ring, rng, top=4)
        assert_same_complex(tensor_complexes(c, d), dense_tensor(c, d))
    x, y = ring.gens()[:2]
    kx, ky = koszul_complex(ring, [x, y]), koszul_complex(ring, [y * y, x])
    assert_same_complex(tensor_complexes(kx, ky), dense_tensor(kx, ky))


@pytest.mark.parametrize("make", list(ring_makers()))
def test_minimalize_matches_the_dense_cancellation(make):
    """Each side gets a fresh ring, so over the quotient each pays for J's
    basis, all-zero maps included."""
    for seed in range(60):
        kind = {"units": seed % 3 != 2, "zero": seed % 5 == 4}
        got_budget, want_budget = Budget(), Budget()
        got = minimalize(random_complex(make(), random.Random(seed), **kind), got_budget)
        want = dense_minimalize(random_complex(make(), random.Random(seed), **kind), want_budget)
        assert_same_complex(got, want)
        assert got_budget.used == want_budget.used, seed


def test_minimalize_of_zero_maps_still_completes_the_relations():
    """An all-zero map over a quotient has no unit, but its entries are
    still reduced modulo J, so the call pays for J's basis."""
    ring = artinian()
    cx = ChainComplex(ring, [GradedFreeModule(ring, (0,)), GradedFreeModule(ring, (1, 1, 1))],
                      [PolyMatrix.zero(ring, 1, 3)])
    budget = Budget()
    assert minimalize(cx, budget).ranks() == (1, 3)
    assert budget.used == 5  # the pairs of J's completion, as a basis of J costs
    basis_cost = Budget()
    relations_ideal(artinian()).groebner_basis(basis_cost)
    assert basis_cost.used == 5


def test_complexes_are_built_without_the_row_major_constructor(monkeypatch):
    """Koszul, Eagon-Northcott and tensor complexes, `minimalize` and a
    resolution by the Koszul route write packed columns: none of them
    calls the row-major constructor, which checks and packs dense rows."""
    ring = RingPresentation(["x", "y", "z"], [1, 1, 1])
    rng = random.Random(31)
    matrix, laden = seeded_matrix(ring, 2, 4, rng), random_complex(ring, rng)
    while minimalize(laden).ranks() == laden.ranks():  # until a unit cancels
        laden = random_complex(ring, rng)
    calls = []
    init = PolyMatrix.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PolyMatrix, "__init__", counting_init)
    koszul = koszul_complex(ring, ring.gens())
    tensor_complexes(koszul, eagon_northcott(matrix))
    assert minimalize(laden).ranks() != laden.ranks()
    module = PresentedModule.cyclic(ring, PL(ring, "x^2; y*z"))
    assert resolve._koszul_resolution(module, Budget()) is not None
    assert minimal_free_resolution(module).total_ranks() == (1, 2, 1)
    assert calls == []

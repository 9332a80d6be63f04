"""Packed `PolyMatrix` columns against dense references.

`PolyMatrix` stores each column as a packed term dict of
``ModuleContext(ring, nrows)``.  The references below are the dense
row-major algorithms that the packed ones replace: the entry-by-entry
matrix product and the Hom row assembly that walks each dense row of d
(Tensor as Hom of the transpose), on the dense coordinates of a reference
target with a module engine of its own (``conftest.EngineTarget``).  Both
are compared on seeded matrices over F_32003, over Q and over an Artinian
quotient, zero columns and empty shapes included.
"""

import random

import pytest

from cak import QQ, RingPresentation, parse_poly_list
from cak._linalg import Echelon
from cak.groebner import Budget, ModuleContext
from cak.quotient import (
    ArtinianModule,
    _hom_rank,
    _tensor_rank,
    cyclic_presentation,
    free_module_presentation,
    residue_field_presentation,
)
from cak.resolve import GradedFreeModule, PolyMatrix, PresentedModule, minimal_free_resolution
from conftest import EngineTarget, column_lists


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


def rings():
    yield pytest.param(RingPresentation(["x", "y", "z"], [1, 2, 1]), id="fp")
    yield pytest.param(RingPresentation(["x", "y", "z"], [1, 1, 1], QQ), id="qq")
    yield pytest.param(artinian(), id="quotient")


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

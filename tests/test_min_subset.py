"""Minimal generating subsets against a full-completion oracle.

``minimal_generating_subset`` completes its membership basis only through
the degree of the column it tests when the relations are homogeneous.  The
oracle below is the plain algorithm: a membership engine completed in full
after every kept column.  Both must keep the same indices.  A resolution
built step by step with the oracle and the library's own, which comes from
a Schreyer frame over a polynomial ring and from linear algebra over a
graded Artinian ring, must have the same Betti table and the same images
modulo J*F.
"""

import itertools
import random
from fractions import Fraction

import pytest

from cak import QQ, IdealHandle, RingPresentation, parse_poly_list
from cak.groebner import (
    Budget,
    GroebnerEngine,
    ModuleContext,
    minimal_generating_subset,
    minimal_generator_count,
    module_membership_engine,
    module_syzygies,
)
from cak.quotient import is_complete_intersection, quotient_of
from cak.resolve import (
    ChainComplex,
    GradedFreeModule,
    PolyMatrix,
    PresentedModule,
    minimal_free_resolution,
    presentation_minimalize,
)
from conftest import column_lists

P = 32003

# the Artinian rings k[X,Y]/J of the ext-tor-artinian workload and c08
ARTINIAN_RELATIONS = {
    "m_cubed": "X^3; X^2*Y; X*Y^2; Y^3",
    "x2_xy_y3": "X^2; X*Y; Y^3",
    "x3_x2y_y2": "X^3; X^2*Y; Y^2",
}

# ring/(X^4 - YZ, Y^2 - X^2 Z, Z^2 - X^2 Y) with weights 1: the circulant
# x2yz instance of verify-paper c04 and c07, whose relations are inhomogeneous
C04_RELATIONS = "X^4 - Y*Z; Y^2 - X^2*Z; Z^2 - X^2*Y"


def oracle_subset(ring, columns, degrees, nrows):
    """The greedy rule with a membership basis completed in full after
    every kept column."""
    _, engine = module_membership_engine(ring, [], nrows)
    kept = []
    for idx in sorted(range(len(columns)), key=lambda t: (degrees[t], t)):
        nf = engine.reduce(columns[idx])
        if nf:
            engine.add_raw(nf)
            engine.complete()
            kept.append(idx)
    return sorted(kept)


def coefficient(ring, rng):
    if ring.field.p is None:
        return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
    return rng.randrange(1, P)


def random_form(ring, degree, rng, zero_chance=0.3):
    """Random form of the given weighted degree (possibly zero)."""
    weights = ring.weights
    if degree < 0:
        return ring.zero()
    exps = [
        e
        for e in itertools.product(*(range(degree // w + 1) for w in weights))
        if sum(a * w for a, w in zip(e, weights)) == degree
    ]
    terms = [(e, coefficient(ring, rng)) for e in exps if rng.random() >= zero_chance]
    return ring.from_terms(terms)


def random_column(ring, degree, twists, rng):
    return [random_form(ring, degree - t, rng) for t in twists]


def planted_columns(ring, twists, rng, count):
    """Random homogeneous columns plus zero columns, duplicates, sums and
    monomial and scalar multiples of earlier columns, shuffled."""
    cols, degs = [], []
    low = min(twists) + 1
    for _ in range(count):
        d = rng.randint(low, low + 3)
        col = random_column(ring, d, twists, rng)
        if any(col):
            cols.append(col)
            degs.append(d)
    zero = ring.zero()
    for _ in range(count):
        kind = rng.choice(("zero", "dup", "sum", "mono", "scalar"))
        j = rng.randrange(len(cols))
        if kind == "zero":
            cols.append([zero] * len(twists))
            degs.append(rng.choice(degs))
        elif kind == "dup":
            cols.append(list(cols[j]))
            degs.append(degs[j])
        elif kind == "sum":
            same = [i for i in range(len(cols)) if degs[i] == degs[j] and any(cols[i])]
            i = rng.choice(same)
            s = ring.constant(coefficient(ring, rng))
            cols.append([a + s * b for a, b in zip(cols[j], cols[i])])
            degs.append(degs[j])
        elif kind == "mono":
            v = rng.randrange(len(ring.vars))
            x = ring.var(ring.vars[v])
            cols.append([x * a for a in cols[j]])
            degs.append(degs[j] + ring.weights[v])
        else:
            s = ring.constant(coefficient(ring, rng))
            cols.append([s * a for a in cols[j]])
            degs.append(degs[j])
    order = list(range(len(cols)))
    rng.shuffle(order)
    return [cols[i] for i in order], [degs[i] for i in order]


def syzygy_columns(ring, twists, rng, ncols):
    """The (not minimal) syzygy generators of a random homogeneous matrix,
    with their degrees, plus duplicates and monomial multiples of them."""
    degs = [rng.randint(min(twists) + 1, min(twists) + 2) for _ in range(ncols)]
    cols = [random_column(ring, d, twists, rng) for d in degs]
    ctx = ModuleContext(ring, ncols, twists=degs)
    packed = [ModuleContext(ring, len(twists)).from_column(c) for c in cols]
    syz = [ctx.to_column(s) for s in module_syzygies(ring, packed, nrows=len(twists))]
    for j in [rng.randrange(len(syz)) for _ in range(3)] if syz else []:
        x = ring.var(rng.choice(ring.vars))
        syz += [[x * a for a in syz[j]], list(syz[j])]
    packed = [ctx.from_column(c) for c in syz]
    return packed, [ctx.column_degree(c) for c in packed], degs


def polynomial_rings():
    yield RingPresentation(["x", "y", "z"], [1, 1, 1])
    yield RingPresentation(["x", "y", "z"], [1, 2, 3])
    yield RingPresentation(["a", "b", "c", "d"], [2, 1, 3, 1])
    yield RingPresentation(["x", "y", "z"], [1, 1, 2], QQ)


def artinian_rings(field=None):
    for text in ARTINIAN_RELATIONS.values():
        ambient = RingPresentation(["X", "Y"], [1, 1], field)
        yield ambient.extend_relations(parse_poly_list(text, ambient))


def all_rings():
    yield from polynomial_rings()
    yield from artinian_rings()
    yield from artinian_rings(QQ)


TWISTS = ((0,), (0, 0), (-2, 0, 1), (1, 3), (0, -1))


def cases():
    for r, ring in enumerate(all_rings()):
        for t, twists in enumerate(TWISTS):
            yield pytest.param(ring, twists, 100 * r + t, id=f"ring{r}-twists{t}")


@pytest.mark.parametrize("ring, twists, seed", list(cases()))
def test_kept_sets_match_full_completion(ring, twists, seed):
    rng = random.Random(seed)
    columns, degrees = planted_columns(ring, twists, rng, 6)
    ctx = ModuleContext(ring, len(twists))
    columns = [ctx.from_column(c) for c in columns]
    kept = minimal_generating_subset(ring, columns, degrees, twists)
    assert kept == oracle_subset(ring, columns, degrees, len(twists))
    assert len(kept) < len(columns)


@pytest.mark.parametrize("ring, twists, seed", list(cases()))
def test_kept_syzygy_sets_match_full_completion(ring, twists, seed):
    rng = random.Random(seed + 7)
    columns, degrees, col_twists = syzygy_columns(ring, twists, rng, 3)
    kept = minimal_generating_subset(ring, columns, degrees, col_twists)
    assert kept == oracle_subset(ring, columns, degrees, len(col_twists))


def oracle_step(ring, cols, twists):
    """The oracle's minimal subset of columns of the free module with basis
    degrees ``twists``: (matrix of the kept columns, their degrees)."""
    ctx = ModuleContext(ring, len(twists), twists=twists)
    packed = [ctx.from_column(c) for c in cols]
    degs = [ctx.column_degree(c) for c in packed]
    keep = oracle_subset(ring, packed, degs, len(twists))
    mat = PolyMatrix.from_columns(ring, len(twists), [cols[j] for j in keep])
    return mat, [degs[j] for j in keep]


def oracle_kernel(ring, mat):
    """Generators of the kernel of ``mat`` over ring/(relations), read off
    the module Groebner basis of its columns and J*e_i."""
    ctx, rows = ModuleContext(ring, mat.ncols), ModuleContext(ring, mat.nrows)
    packed = [rows.from_column(c) for c in column_lists(mat)]
    return [ctx.to_column(s) for s in module_syzygies(ring, packed, nrows=mat.nrows)]


def oracle_resolution(module, length):
    """Differentials and basis degrees of the resolution built step by step
    with the oracle."""
    ring = module.ring
    module = presentation_minimalize(module)
    twists = module.ambient.twists
    cols = column_lists(module.relations)
    maps, modules = [], [twists]
    for _ in range(length):
        mat, twists = oracle_step(ring, cols, twists)
        if not twists:
            break
        maps.append(mat)
        modules.append(twists)
        cols = oracle_kernel(ring, mat)
    return maps, modules


def same_span(ring, cols, other, nrows):
    """Whether two lists of columns generate the same submodule modulo J*F."""
    ctx = ModuleContext(ring, nrows)
    _, mine = module_membership_engine(ring, [ctx.from_column(c) for c in cols], nrows)
    _, theirs = module_membership_engine(ring, [ctx.from_column(c) for c in other], nrows)
    return all(theirs.contains(ctx.from_column(c)) for c in cols) and all(
        mine.contains(ctx.from_column(c)) for c in other
    )


@pytest.mark.parametrize("ring, twists, seed", list(cases()))
def test_resolution_differentials_match_oracle(ring, twists, seed):
    rng = random.Random(seed + 13)
    columns, _ = planted_columns(ring, twists, rng, 3)
    module = PresentedModule(
        ring,
        GradedFreeModule(ring, twists),
        PolyMatrix.from_columns(ring, len(twists), columns),
    )
    res = minimal_free_resolution(module, max_length=3)
    maps, modules = oracle_resolution(module, 3)
    # the resolution comes from a Schreyer frame over a polynomial ring and
    # from linear algebra over an Artinian one: another minimal resolution
    # than the oracle's, so compare invariants, not entries
    frees = [GradedFreeModule(ring, t) for t in modules]
    assert res.betti == ChainComplex(ring, frees, maps).betti_table()
    J = IdealHandle(ring, ())
    d = res.complex.maps
    relations = column_lists(presentation_minimalize(module).relations)
    for i, di in enumerate(d):
        # im d_(i+1) is the oracle's kernel of d_i (the relations for i = 0)
        want = oracle_kernel(ring, d[i - 1]) if i else relations
        assert same_span(ring, column_lists(di), want, di.nrows)
        if i:
            assert all(J.contains_poly(e) for row in d[i - 1].compose(di).entries for e in row)


def c04_ring():
    S3 = RingPresentation(["X", "Y", "Z"], [1, 1, 1])
    return quotient_of(S3, parse_poly_list(C04_RELATIONS, S3)).presentation


def recorded_bounds(monkeypatch):
    """Record the ``upto`` of every completion of a module engine."""
    bounds = []
    complete = GroebnerEngine.complete

    def recording(self, upto=None):
        bounds.append(upto)
        return complete(self, upto)

    monkeypatch.setattr(GroebnerEngine, "complete", recording)
    return bounds


def test_inhomogeneous_relations_complete_in_full(monkeypatch):
    ring = c04_ring()
    bounds = recorded_bounds(monkeypatch)
    assert minimal_generator_count(ring, parse_poly_list("X^2; Y; Z", ring)) == 3
    assert bounds and all(b is None for b in bounds)
    # over the homogeneous m_cubed ring every completion stops at a degree
    bounds.clear()
    art = next(artinian_rings())
    assert minimal_generator_count(art, parse_poly_list("X^2; Y; X*Y", art)) == 2
    assert bounds and all(b is not None for b in bounds)


@pytest.mark.parametrize(
    "gens, mu, ci",
    [
        ("X^2; Y; Z", 3, (True, 1, 1)),
        ("X; Y; Z", 3, (True, 0, 0)),
        ("X^2; Y", 2, (True, 2, 2)),
        ("X*Y; X^2; Y^2; Z", 3, (False, 2, 3)),
        ("Y; Z", 2, (True, 1, 1)),
    ],
)
def test_c04_ring_counts_are_pinned(gens, mu, ci):
    ring = c04_ring()
    assert minimal_generator_count(ring, parse_poly_list(gens, ring)) == mu
    assert is_complete_intersection(ring, parse_poly_list(gens, ring)) == ci


def test_truncation_saves_budget_on_a_resolution():
    # five dense random quadrics in four variables, as in resolve-poly
    rng = random.Random(6)
    ring = RingPresentation([f"x{v}" for v in range(4)], [1, 1, 1, 1])
    quadrics = [random_form(ring, 2, rng, zero_chance=0.0) for _ in range(5)]
    budget = Budget()
    res = minimal_free_resolution(PresentedModule.cyclic(ring, quadrics), budget=budget)
    assert res.complete and res.total_ranks() == (1, 5, 15, 16, 5)
    # completing the membership basis in full after every kept column
    # (the earlier algorithm) spent 813 units here
    assert budget.used < 813

"""Module syzygies against a full-completion oracle.

``module_syzygies`` processes only the pairs of the row block of its
elimination layout and reads the syzygies off the engine as they appear.
The oracle below is the plain route: every pair of the elimination module
completed, the reduced basis taken, and its elements free of the row block
kept.  Both must generate the same submodule modulo J*F, checked both ways
by membership, and every returned column must be a syzygy modulo J*F.
"""

import random
from fractions import Fraction

import pytest

from cak import QQ, RingPresentation, parse_poly_list
from cak.groebner import (
    GroebnerEngine,
    ModuleContext,
    buchberger,
    module_membership_engine,
    module_syzygies,
    relation_multiples,
)
from cak.quotient import quotient_of
from cak.verify import R1_EXPONENTS, R1_RELATIONS

# the circulant x2yz instance of verify-paper c04 and c07 (inhomogeneous)
C04_RELATIONS = "X^4 - Y*Z; Y^2 - X^2*Z; Z^2 - X^2*Y"


def oracle_syzygies(ring, columns, nrows):
    """Syzygies from the reduced Groebner basis of the whole elimination
    module.  Its context has ``fhigh=0``, so no element is exempt from
    pairs; the keys are those of ``ModuleContext(ring, nrows + ncols,
    fhigh=nrows)``, since the block bit is added by hand."""
    ncols = len(columns)
    ctx = ModuleContext(ring, nrows + ncols)
    shift = ncols + ctx.blockbit
    gens = []
    for j, col in enumerate(columns):
        terms = {k + shift: c for k, c in col.items()}
        terms[ctx.key(nrows + j, ring.one_key)] = ring.field.coerce(1)
        gens.append(terms)
    gens += [{k + ctx.blockbit: c for k, c in g.items()} for g in relation_multiples(ctx, nrows)]
    gb = buchberger(gens, ctx, ring.field)
    return [g for g in gb if not any(k & ctx.blockbit for k in g)]


def coefficient(ring, rng):
    if ring.field.p is None:
        return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
    return rng.randrange(1, ring.field.p)


def random_poly(ring, rng):
    """A sparse polynomial of mixed degrees, exponents at most 2, zero about
    a fifth of the time."""
    if rng.random() < 0.2:
        return ring.zero()
    n = len(ring.vars)
    terms = [
        (tuple(rng.randint(0, 2) if rng.random() < 0.5 else 0 for _ in range(n)),
         coefficient(ring, rng))
        for _ in range(rng.randint(1, 3))
    ]
    return ring.from_terms(terms)


def random_columns(ring, rng, nrows, ncols):
    """Inhomogeneous columns plus a zero column and a duplicate, shuffled."""
    cols = [[random_poly(ring, rng) for _ in range(nrows)] for _ in range(ncols)]
    cols.append([ring.zero()] * nrows)
    cols.append(list(rng.choice(cols)))
    rng.shuffle(cols)
    ctx = ModuleContext(ring, nrows)
    return [ctx.from_column(c) for c in cols]


def rings():
    for field, tag in ((None, "fp"), (QQ, "qq")):
        yield pytest.param(RingPresentation(["x", "y", "z"], [1, 1, 1], field), id=f"kxyz-{tag}")
        w = RingPresentation(["x", "y", "z"], [1, 2, 3], field)
        yield pytest.param(
            w.extend_relations(parse_poly_list("y^3 - z^2; x^2*z - x*y^2", w)), id=f"weighted-{tag}"
        )
        S = RingPresentation(["X", "Y", "Z", "W"], R1_EXPONENTS, field)
        yield pytest.param(S.extend_relations(parse_poly_list(R1_RELATIONS, S)), id=f"r1-{tag}")
        S3 = RingPresentation(["X", "Y", "Z"], [1, 1, 1], field)
        yield pytest.param(
            quotient_of(S3, parse_poly_list(C04_RELATIONS, S3)).presentation, id=f"c04-{tag}"
        )


def contains_all(ring, gens, elems, rank):
    _, engine = module_membership_engine(ring, gens, rank)
    return all(engine.contains(e) for e in elems)


@pytest.mark.parametrize("ring", list(rings()))
@pytest.mark.parametrize("nrows, ncols", [(1, 3), (2, 2)])
def test_module_syzygies_span_the_oracle_kernel(ring, nrows, ncols):
    rng = random.Random(f"{ring.vars}{ring.weights}{ring.field}{nrows}{ncols}")
    rows_ctx, rel_engine = module_membership_engine(ring, [], nrows)
    for _ in range(4):
        columns = random_columns(ring, rng, nrows, ncols)
        width = len(columns)
        col_ctx = ModuleContext(ring, width)
        got = module_syzygies(ring, columns, nrows=nrows)
        want = oracle_syzygies(ring, columns, nrows)
        assert contains_all(ring, got, want, width), "a kernel element is missing"
        assert contains_all(ring, want, got, width), "a column outside the kernel"
        # every returned column maps into J*F
        polys = [rows_ctx.to_column(c) for c in columns]
        for s in got:
            image = [ring.zero()] * nrows
            for coeff, col in zip(col_ctx.to_column(s), polys):
                image = [acc + coeff * p for acc, p in zip(image, col)]
            assert rel_engine.contains(rows_ctx.from_column(image))


def test_module_syzygies_take_no_reduced_basis(monkeypatch):
    def refuse(self):
        raise AssertionError("reduced_basis on the elimination layout")

    monkeypatch.setattr(GroebnerEngine, "reduced_basis", refuse)
    ring = RingPresentation(["x", "y"], [1, 1])
    cols = random_columns(ring, random.Random(3), 2, 3)
    assert module_syzygies(ring, cols, nrows=2)

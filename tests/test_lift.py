"""Computations over R = S/J in the S-lift.

Ideal arithmetic over a quotient ring is checked against the same operation
in the polynomial ambient with the relations appended to both generator
lists.  Module syzygies are checked to be packed in the column module's
layout and to be syzygies modulo J*F.
"""

import pytest

from cak import QQ, RingPresentation, parse_poly, parse_poly_list
from cak.groebner import (
    Budget,
    IdealHandle,
    ModuleContext,
    module_membership_engine,
    module_syzygies,
)
from cak.verify import DUALITY_RINGS, R1_EXPONENTS, R1_RELATIONS, r1_presentation

# (ring, [(gens, other), ...]) with generator lists as text
R1_PAIRS = [("X", "X; Z; W"), ("X; Y", "Z; W"), ("Z^2", "X; Y"), ("Y*Z", "X^2; W")]
TWO_VAR_PAIRS = [("X", "Y"), ("X + Y", "Y^2"), ("X^2 + X*Y", "X; Y"), ("Y", "X^2")]
ONE_VAR_PAIRS = [("X", "X^2"), ("X^2", "X")]
WEIGHTED_PAIRS = [("x", "y"), ("x^2 + y", "z"), ("x*y; z", "x^3 + z"), ("y^2", "x; z")]


def weighted_ring(field=None):
    S = RingPresentation(["x", "y", "z"], [1, 2, 3], field)
    return S.extend_relations(parse_poly_list("y^3 - z^2; x^2*z - x*y^2", S))


def quotient_cases():
    for field, tag in ((None, "fp"), (QQ, "qq")):
        S = RingPresentation(["X", "Y", "Z", "W"], R1_EXPONENTS, field)
        r1 = S.extend_relations(parse_poly_list(R1_RELATIONS, S))
        yield pytest.param(r1, R1_PAIRS, id=f"r1-{tag}")
        for name, vars_, rels, _ideal in DUALITY_RINGS:
            S = RingPresentation(vars_, [1] * len(vars_), field)
            pairs = TWO_VAR_PAIRS if len(vars_) == 2 else ONE_VAR_PAIRS
            yield pytest.param(S.extend_relations(parse_poly_list("; ".join(rels), S)), pairs,
                               id=f"{name}-{tag}")
        yield pytest.param(weighted_ring(field), WEIGHTED_PAIRS, id=f"weighted-{tag}")


def ambient_basis(ring, op, gens, other):
    """The reduced basis of the operation in the ambient polynomial ring,
    with the relations appended to both generator lists, moved to ``ring``."""
    S = ring.polynomial_ambient()
    rels = [r.transfer(S) for r in ring.relations]
    left = IdealHandle(S, [g.transfer(S) for g in gens] + rels)
    right = IdealHandle(S, [g.transfer(S) for g in other] + rels)
    return [g.transfer(ring).terms for g in getattr(left, op)(right).groebner_basis()]


@pytest.mark.parametrize("ring, pairs", list(quotient_cases()))
@pytest.mark.parametrize("op", ["intersection", "colon"])
def test_quotient_ideal_ops_match_the_ambient(ring, pairs, op):
    for gens_text, other_text in pairs:
        gens = parse_poly_list(gens_text, ring)
        other = parse_poly_list(other_text, ring)
        got = getattr(IdealHandle(ring, gens), op)(IdealHandle(ring, other))
        want = ambient_basis(ring, op, gens, other)
        assert [g.terms for g in got.groebner_basis()] == want, (gens_text, other_text)


# colon over the R1 ring: budget units of the colon and its reduced basis,
# and the basis; each part's coefficients are reduced modulo J before the
# parts are intersected
R1_COLONS = [
    ("X", "X; Z; W", 168, "X; Z; Y^2; W"),
    ("X; Y", "Z; W", 171, "X; Y; Z; W"),
    ("Z^2", "X; Y", 153, "Y^2 - X*Z; X*W; Z^2; Y*W; X^7 - Z*W; X^6*Z - W^2; Z*W^2; W^3"),
]


@pytest.mark.parametrize("gens, other, used, basis", R1_COLONS)
def test_colon_budget_over_the_r1_ring(gens, other, used, basis):
    ring = r1_presentation()
    budget = Budget()
    got = IdealHandle(ring, parse_poly_list(gens, ring)).colon(
        IdealHandle(ring, parse_poly_list(other, ring)), budget
    )
    assert [g.terms for g in got.groebner_basis(budget)] == [
        g.terms for g in parse_poly_list(basis, ring)
    ]
    assert budget.used == used
    assert [g.terms for g in got.groebner_basis()] == ambient_basis(
        ring, "colon", parse_poly_list(gens, ring), parse_poly_list(other, ring)
    )


def layout_rings():
    yield RingPresentation(["x", "y", "z"], [1, 1, 1])
    yield RingPresentation(["a", "b", "c"], [2, 3, 5])
    yield RingPresentation(["u", "v", "x", "y"], [1, 1, 1, 1], None, (), ((0, 1), (2, 3)))


@pytest.mark.parametrize("ring", list(layout_rings()), ids=["one-block", "weighted", "two-block"])
@pytest.mark.parametrize("nrows, ncols", [(1, 1), (1, 4), (2, 3), (3, 2), (5, 7)])
def test_syzygy_block_has_the_column_layout(ring, nrows, ncols):
    elim = ModuleContext(ring, nrows + ncols, fhigh=nrows)
    cols = ModuleContext(ring, ncols)
    rows = ModuleContext(ring, nrows)
    monos = [ring.one_key] + [ring.var_key(i) for i in range(len(ring.vars))]
    monos += [ring.mul_keys(a, b) for a in monos for b in monos]
    for j in range(ncols):
        for m in monos:
            assert elim.key(nrows + j, m) == cols.key(j, m)
    # a packed column enters the row block by one shift of its keys
    for i in range(nrows):
        for m in monos:
            assert elim.key(i, m) == rows.key(i, m) + ncols + elim.blockbit


def syzygy_cases():
    A = RingPresentation(["X", "Y"], [1, 1])
    art = A.extend_relations(parse_poly_list("X^3; X^2*Y; X*Y^2; Y^3", A))
    yield pytest.param(art, [["X", "Y"], ["Y", "0"], ["X*Y", "X^2"]], id="m_cubed-2x3")
    yield pytest.param(art, [["X"], ["Y"], ["X + Y"]], id="m_cubed-1x3")
    w = weighted_ring()
    yield pytest.param(w, [["x^2", "y"], ["y", "x^2"], ["z", "x*y"], ["x^3", "z"]], id="weighted-2x4")
    yield pytest.param(r1_presentation(), [["X"], ["Z"], ["W"]], id="r1-1x3")


@pytest.mark.parametrize("ring, text", list(syzygy_cases()))
def test_packed_syzygies_vanish_modulo_the_relations(ring, text):
    columns = [[parse_poly(e, ring) for e in col] for col in text]
    nrows, ncols = len(columns[0]), len(columns)
    packed = [ModuleContext(ring, nrows).from_column(c) for c in columns]
    syz = module_syzygies(ring, packed, nrows=nrows)
    assert syz
    rows_ctx, rel_engine = module_membership_engine(ring, [], nrows)
    col_ctx = ModuleContext(ring, ncols)
    for s in syz:
        image = [ring.zero()] * nrows
        for coeff, col in zip(col_ctx.to_column(s), columns):
            image = [acc + coeff * p for acc, p in zip(image, col)]
        # the image lies in J*F, and the dict is a term dict of the column module
        assert rel_engine.contains(rows_ctx.from_column(image))
        assert s == col_ctx.from_column(col_ctx.to_column(s))

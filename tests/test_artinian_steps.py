"""Resolutions over graded Artinian quotients, computed by linear algebra on
the standard-monomial basis, against invariants of an independent route.
Ext and Tor of the residue field over R/Q^2 and R/Q^3, the paper's own
scale, are pinned with their budget units."""

import json
import math
import random

import pytest

from cak import QQ, RingPresentation, parse_poly_list
from cak.cli import main
from cak.errors import ResourceLimitError
from cak.groebner import Budget, IdealHandle, ModuleContext
from cak.quotient import (
    QuotientRing,
    ext_dims,
    free_module_presentation,
    residue_field_presentation,
    socle_dim,
    tor_dims,
    tor_zero_dim,
)
from cak.resolve import GradedFreeModule, PolyMatrix, PresentedModule, minimal_free_resolution
from conftest import EngineTarget, deadline
from test_min_subset import random_form

# the three rings of verify-paper c08, a weighted ring and c08's m_cubed over Q
BALANCE_RINGS = {
    "m_cubed": ((1, 1), "X^3; X^2*Y; X*Y^2; Y^3", None),
    "x2_xy_y3": ((1, 1), "X^2; X*Y; Y^3", None),
    "x3_x2y_y2": ((1, 1), "X^3; X^2*Y; Y^2", None),
    "weighted": ((1, 2), "X^4; Y^2; X^2*Y", None),
    "m_cubed_qq": ((1, 1), "X^3; X^2*Y; X*Y^2; Y^3", QQ),
}


def artinian_ring(weights, relations, field):
    ambient = RingPresentation(["X", "Y"], weights, field)
    return ambient.extend_relations(parse_poly_list(relations, ambient))


def random_module(ring, rng):
    rank = rng.choice((1, 1, 2))
    twists = tuple(rng.choice((0, 0, 1)) for _ in range(rank))
    cols = []
    for _ in range(rng.randint(1, 3)):
        d = max(twists) + rng.randint(1, 2)
        cols.append([random_form(ring, d - t, rng, zero_chance=0.4) for t in twists])
    return PresentedModule(
        ring, GradedFreeModule(ring, twists), PolyMatrix.from_columns(ring, rank, cols)
    )


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(BALANCE_RINGS))
def test_tor_is_balanced(name, seed):
    ring = artinian_ring(*BALANCE_RINGS[name])
    R = QuotientRing(ring)
    rng = random.Random(f"{name} {seed}")
    M, N = random_module(ring, rng), random_module(ring, rng)
    assert tor_dims(R, M, N, 3) == tor_dims(R, N, M, 3)
    # with N = k, balance reads the Betti numbers of M off the resolution of
    # k: a resolution of M that is not minimal has larger ranks
    k = residue_field_presentation(ring)
    ranks = list(minimal_free_resolution(M, max_length=3).total_ranks()) + [0] * 4
    assert [tor_zero_dim(R, k, M)] + tor_dims(R, k, M, 3) == ranks[:4]


@pytest.mark.parametrize("name", sorted(BALANCE_RINGS))
def test_first_differential_has_only_standard_monomials(name):
    """Relation columns planted with multiples of J keep none of them: the
    presentation is reduced modulo J before the first step, so the Artinian
    steps read every column as an element of F (x) R as it is."""
    ring = artinian_ring(*BALANCE_RINGS[name])
    standard = set(QuotientRing(ring).standard_basis())
    is_standard = lambda col: all(k >> ModuleContext.COMP_BITS in standard for k in col)
    rng = random.Random(f"standard {name}")
    planted = 0
    for _ in range(6):
        rank = rng.choice((1, 2))
        cols = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 4)
            col = []
            for _ in range(rank):
                r = rng.choice(ring.relations)
                multiple = r * random_form(ring, d - r.degree(), rng, zero_chance=0.0)
                col.append(random_form(ring, d, rng, zero_chance=0.4) + multiple)
            cols.append(col)
        relations = PolyMatrix.from_columns(ring, rank, cols)
        planted += not all(map(is_standard, relations.cols))
        builder = PresentedModule(ring, GradedFreeModule(ring, (0,) * rank), relations).resolution()
        builder.extend(1)
        assert builder._artinian is not None
        assert all(map(is_standard, builder.differential(1).cols))
    assert planted


def seeded_ring(seed, weights, field):
    """k[x,y,z]/J, J a pure power of each variable and one random form: a
    graded Artinian ring, rebuilt as a new presentation on every call."""
    rng = random.Random(f"order {seed} {weights} {field}")
    ambient = RingPresentation(["x", "y", "z"], weights, field)
    powers = [f"{v}^{rng.randint(2, 3)}" for v in ambient.vars]
    form = random_form(ambient, rng.randint(2, 4), rng, zero_chance=0.5)
    return ambient.extend_relations(parse_poly_list("; ".join(powers), ambient) + [form])


def socle_and_homology(ring, socle_first):
    """The socle dimension, then or after the Betti tables of k and of a
    random module to length 4 and Ext/Tor of that module against k and R to
    bound 3, all over one presentation."""
    R = QuotientRing(ring)
    k = residue_field_presentation(ring)
    M = random_module(ring, random.Random("order module"))
    socle = socle_dim(R) if socle_first else None
    out = [minimal_free_resolution(m, max_length=4).betti.as_rows() for m in (k, M)]
    for N in (k, free_module_presentation(ring)):
        out += [ext_dims(R, M, N, 3), tor_dims(R, M, N, 3)]
    return socle_dim(R) if socle is None else socle, out


@pytest.mark.parametrize("field", [None, QQ], ids=["fp", "qq"])
@pytest.mark.parametrize("weights", [(1, 1, 1), (1, 2, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_shared_normal_forms_do_not_depend_on_who_fills_them(seed, weights, field):
    """The socle and the resolutions over R read one cache of monomial
    normal forms on the handle of J; whichever fills it first, every answer
    is the one that presentations with nothing cached give."""
    make = lambda: seeded_ring(seed, weights, field)
    fresh = (socle_dim(QuotientRing(make())), socle_and_homology(make(), False)[1])
    assert socle_and_homology(make(), True) == fresh
    assert socle_and_homology(make(), False) == fresh


@pytest.mark.parametrize("field", [None, QQ], ids=["fp", "qq"])
@pytest.mark.parametrize("weights", [(1, 1, 1), (1, 2, 3)])
@pytest.mark.parametrize("twists", [(0,), (0, 1)])
def test_free_views_match_a_module_engine_on_the_relations(twists, weights, field):
    """R^r as a target reads the handle of J: its basis and every product
    of a polynomial with a basis element are those of a module engine."""
    rng = random.Random(f"free view {twists} {weights} {field}")
    for seed in range(3):
        ring = seeded_ring(seed, weights, field)
        view = free_module_presentation(ring, twists=twists).target()
        ref = EngineTarget(ring, [], len(twists))  # the engine on J*e_i
        assert view.basis == ref.basis and view.dim == ref.dim
        polys = [random_form(ring, d, rng, zero_chance=0.3) for d in range(5)]
        polys.append(sum(polys[1:], polys[0]))  # inhomogeneous
        for f in polys:
            for b in range(ref.dim):
                want = {i: c for i, c in enumerate(ref.basis_times(f, b)) if c}
                assert dict(view.basis_times(frozenset(f.terms.items()), b)) == want


def test_zero_ring_outputs_are_pinned():
    # a homogeneous constant relation: R = 0 and the staircase is empty
    ring = RingPresentation(["X", "Y"], [1, 1], relations=["X^2", "3"])
    R = QuotientRing(ring)
    k = residue_field_presentation(ring)
    for module in (k, free_module_presentation(ring)):
        res = minimal_free_resolution(module, max_length=2)
        assert res.betti.as_rows() == [[0, 0, 1]]
        assert res.complete
    assert ext_dims(R, k, k, 2) == [0, 0]
    assert tor_dims(R, k, k, 2) == [0, 0]


LARGE = ["x^12", "y^12", "z^12"]  # a staircase of 1,728 monomials


def test_ext_budget_bounds_the_linear_algebra():
    ring = RingPresentation(["x", "y", "z"], [1, 1, 1], relations=LARGE)
    k = residue_field_presentation(ring)
    with deadline(5), pytest.raises(ResourceLimitError):
        ext_dims(QuotientRing(ring), k, k, 3, Budget(10_000))


def test_cli_ext_budget_exits_3(tmp_path, capsys):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({
        "field": {"kind": "fp", "p": 32003},
        "vars": ["x", "y", "z"],
        "weights": [1, 1, 1],
        "relations": LARGE,
    }))
    module = tmp_path / "k.json"
    module.write_text(json.dumps({"ambient_twists": [0], "relations": [["x", "y", "z"]]}))
    argv = ["ext", "--ring", str(ring), "--module", str(module), "--against", "self", "--bound", "3"]
    with deadline(5):
        assert main(argv + ["--budget", "10000"]) == 3
    assert "budget" in capsys.readouterr().err


def paper_scale_quotient(power):
    """R/Q^power for the Gorenstein R = k[x,y,z,w]/(xy - zw) of dimension 3
    and its parameter ideal Q = (x, y, z - w): the rings of the paper's
    theorem, which concerns power <= dim R."""
    S = RingPresentation(["x", "y", "z", "w"], [1, 1, 1, 1])
    R = S.extend_relations(parse_poly_list("x*y - z*w", S))
    Q = IdealHandle(R, parse_poly_list("x; y; z - w", R))
    return R.extend_relations(Q.power(power).gens)


# dim Ext^i(k, k) for i = 1..6 over R/Q^power, pinned
PAPER_SCALE_EXT = {2: [4, 13, 40, 121, 364, 1093], 3: [4, 17, 63, 244, 917, 3495]}


def test_paper_scale_ext_and_tor_of_the_residue_field():
    ring = paper_scale_quotient(2)  # of dimension 8
    k, budget = residue_field_presentation(ring), Budget()
    want = PAPER_SCALE_EXT[2]
    with deadline(30):
        assert ext_dims(ring, k, k, 6, budget) == want
        assert budget.used == 44_263
        assert tor_dims(ring, k, k, 6, budget) == want
        assert budget.used == 49_178


def test_paper_scale_ext_at_the_third_power():
    ring = paper_scale_quotient(3)  # of dimension 20
    k, budget = residue_field_presentation(ring), Budget()
    with deadline(30):
        assert ext_dims(ring, k, k, 6, budget) == PAPER_SCALE_EXT[3]
    assert budget.used == 429_463


def serre_bound(betti, nvars, length):
    """The first ``length`` coefficients of (1 + t)^nvars / (1 - sum over
    i >= 1 of betti[i] t^(i+1)): with c = that series, c = (1 + t)^nvars
    + c * sum betti[i] t^(i+1), solved degree by degree."""
    out = []
    for d in range(length):
        out.append(math.comb(nvars, d) + sum(
            b * out[d - i - 1] for i, b in enumerate(betti) if i and d - i - 1 >= 0
        ))
    return out


@pytest.mark.parametrize("power, betti, bound", [
    (2, (1, 7, 14, 11, 3), [1, 4, 13, 46, 159, 551, 1912]),
    (3, (1, 11, 25, 21, 6), [1, 4, 17, 73, 309, 1318, 5605]),
])
def test_serre_inequality_bounds_the_paper_scale_ext(power, betti, bound):
    """Serre's inequality: the Poincare series 1 + sum dim Ext^i(k, k) t^i
    of R = S/J is at most (1 + t)^n / (1 - sum_{i>=1} beta_i^S(R) t^(i+1))
    coefficientwise, n the number of variables of S.  The Betti numbers of
    R over S come from one small resolution, so this is a cheap oracle on
    the pinned Ext dimensions of the paper-scale rings."""
    ring = paper_scale_quotient(power)
    S = ring.polynomial_ambient()
    with deadline(10):
        res = minimal_free_resolution(
            PresentedModule.cyclic(S, [r.transfer(S) for r in ring.relations])
        )
    assert res.complete and res.total_ranks() == betti
    assert serre_bound(betti, len(S.vars), 7) == bound
    poincare = [1] + PAPER_SCALE_EXT[power]
    assert all(e <= b for e, b in zip(poincare, bound, strict=True))

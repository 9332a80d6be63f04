"""An independent Betti certificate: Koszul homology on the standard basis.

For a graded module M of finite length over S = k[x_1..x_n],
beta_(i,j)(M) = dim H_i(x; M)_j (Eisenbud, *The Geometry of Syzygies*,
Ch. 1; Bruns-Herzog 1.6): the homology in degree j of the Koszul complex on
the variables tensored with M, whose i-th term is the sum over i-subsets T
of the variables of e_T (x) M, e_T in degree the weight sum of T.  It is
computed here on the standard basis of M, read as module keys off a module
engine on M's relations, with x_k * b the engine's normal form of the
shifted key and every rank an ``Echelon`` rank, degree by degree.  No
syzygy is computed, so the certificate shares no code with either route of
``minimal_free_resolution`` that it checks: the Koszul route (a cyclic
S/(f), f n regular forms) and the Groebner route (every other module).
"""

import itertools
import random
from collections import defaultdict

import pytest

from cak import QQ, RingPresentation
from cak._linalg import Echelon
from cak.groebner import Budget, module_membership_engine
from cak.quotient import module_standard_basis
from cak.resolve import (
    GradedFreeModule,
    PolyMatrix,
    PresentedModule,
    _koszul_resolution,
    minimal_free_resolution,
)
from conftest import deadline
from test_min_subset import random_form


def koszul_homology_betti(module):
    """{(i, j): dim H_i(x; M)_j} over the nonzero entries, M = ``module``,
    a finite-length module over a polynomial ring."""
    ring, twists = module.ring, module.ambient.twists
    field, n, weights = ring.field, len(ring.vars), ring.weights
    ctx, engine = module_membership_engine(ring, module.relations.cols, len(twists))
    basis = module_standard_basis(ctx, engine)
    index = {key: b for b, key in enumerate(basis)}
    degrees = [ring.key_degree(mono) + twists[comp] for comp, mono in map(ctx.decode, basis)]
    shifts = [(ring.var_key(k) - ring.one_key) << ctx.COMP_BITS for k in range(n)]
    one = field.coerce(1)
    times = [[engine.reduce({key + s: one}) for s in shifts] for key in basis]  # x_k * b
    images = defaultdict(list)  # (i, j): d(e_T (x) b) over the e_T (x) b of K_i in degree j
    for i in range(n + 1):
        below = {T: t for t, T in enumerate(itertools.combinations(range(n), i - 1))} if i else {}
        for T in itertools.combinations(range(n), i):
            weight = sum(weights[k] for k in T)
            for b, deg in enumerate(degrees):
                row = {}
                for l, k in enumerate(T):
                    # d(e_T (x) b) = sum over l of (-1)^l e_(T - T_l) (x) x_(T_l) b
                    base = below[T[:l] + T[l + 1 :]] * len(basis)
                    for key, c in times[b][k].items():
                        row[base + index[key]] = field.neg(c) if l % 2 else c
                images[i, weight + deg].append(row)
    budget, ranks = Budget(), {}
    for ij, rows in images.items():
        ech = Echelon(field.p, budget)
        for row in rows:
            ech.insert(row)
        ranks[ij] = ech.rank
    betti = {
        (i, j): len(rows) - ranks[i, j] - ranks.get((i + 1, j), 0)
        for (i, j), rows in images.items()
    }
    return {ij: b for ij, b in betti.items() if b}


def pure_powers(ring, rng):
    return [ring.var(v) ** rng.randint(1, 3) for v in ring.vars]


def cyclic_regular(ring, rng):
    """S/(f), f the pure powers: n regular forms, the Koszul route."""
    return PresentedModule.cyclic(ring, pure_powers(ring, rng))


def cyclic_groebner(ring, rng):
    """S/(pure powers and random forms), more generators than variables."""
    extra = [random_form(ring, rng.randint(2, 4), rng) for _ in range(rng.randint(1, 3))]
    return PresentedModule.cyclic(ring, pure_powers(ring, rng) + [f for f in extra if f])


def rank_two(ring, rng):
    """S(-t_0) + S(-t_1) modulo pure powers in each component and random
    homogeneous columns, some with a unit entry, which makes a generator
    redundant."""
    twists = (0, rng.randint(0, 2))
    zero = ring.zero()
    cols = [[f, zero] for f in pure_powers(ring, rng)] + [[zero, f] for f in pure_powers(ring, rng)]
    for _ in range(rng.randint(1, 3)):
        d = max(twists) + rng.randint(0, 3)
        col = [random_form(ring, d - t, rng) for t in twists]
        if any(col):
            cols.append(col)
    relations = PolyMatrix.from_columns(ring, 2, cols)
    return PresentedModule(ring, GradedFreeModule(ring, twists), relations)


DRAWS = {"cyclic-koszul": cyclic_regular, "cyclic-groebner": cyclic_groebner, "rank-two": rank_two}


@pytest.mark.parametrize("field", [None, QQ], ids=["fp", "qq"])
@pytest.mark.parametrize("weights", [(1, 1, 1), (1, 2, 3)])
@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_resolution_betti_numbers_are_koszul_homology(draw, weights, field):
    rng = random.Random(f"betti {draw} {weights} {field}")
    ring = RingPresentation(["x", "y", "z"], weights, field)
    with deadline(60):
        for _ in range(3):
            module = DRAWS[draw](ring, rng)
            # the route taken is the one this draw is meant to exercise
            assert (_koszul_resolution(module, None) is not None) == (draw == "cyclic-koszul")
            want = koszul_homology_betti(module)
            assert minimal_free_resolution(module).betti.entries == want

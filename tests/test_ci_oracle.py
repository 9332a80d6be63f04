"""Complete intersections by the height test against the former route.

``is_complete_intersection`` counts mu(K) for K = relations + extra on the
reduced basis of K over the polynomial ambient and compares it with n: an
m-primary homogeneous K in k[x_1..x_n] has height n, so S/K is a complete
intersection iff mu(K) = n.  The former route is kept here as the
reference: substitute away every variable that occurs linearly in a
generator, then compare the minimal number of generators with the number
of variables left.  Both must give the same (flag, embdim, mu) triple.
"""

import itertools
import random

from cak import QQ, RingPresentation, parse_poly_list
from cak.errors import NotArtinianError
from cak.groebner import IdealHandle, minimal_generator_count, standard_monomials
from cak.quotient import is_complete_intersection
from cak.ulrich import _circulant_quotient
from conftest import R1_RELATIONS, R1_WEIGHTS, deadline
from test_min_subset import random_form


def reference_minimal_presentation(ring, extra_gens):
    """Substitute away every variable that occurs linearly in a generator.
    Returns (polynomial subring, generators there)."""
    work = ring.polynomial_ambient()
    gens = [g.transfer(work) for g in itertools.chain(ring.relations, extra_gens)]
    gens = [g for g in gens if not g.is_zero()]
    while True:
        hit = next(
            (
                (g, i, g.terms[work.var_key(i)])
                for g in gens
                for i in range(len(work.vars))
                if g.terms.get(work.var_key(i))
            ),
            None,
        )
        if hit is None:
            return work, gens
        g, i, c = hit
        name = work.vars[i]
        image = (g - work.var(name).scale(c)).scale(work.field.neg(work.field.inv(c)))
        images = [image if j == i else x for j, x in enumerate(work.gens())]
        sub = work.restrict([v for v in work.vars if v != name])
        gens = [q.evaluate(images, work) for q in gens]
        gens = [q.reencode(sub) for q in gens if not q.is_zero()]
        work = sub


def reference_is_complete_intersection(ring, extra_gens):
    sub, gens = reference_minimal_presentation(ring, extra_gens)
    standard_monomials(IdealHandle(sub, gens))  # raises if not finite-dimensional
    mu = minimal_generator_count(sub, gens)
    v = len(sub.vars)
    return mu == v, v, mu


def split_input(base, gens, rng):
    """The generators split at random between the relations of a quotient
    of ``base`` and the extra generators over it."""
    cut = rng.randint(0, len(gens))
    ring = base.extend_relations(gens[:cut]) if cut else base
    return ring, [g.transfer(ring) for g in gens[cut:]]


def random_generators(ring, rng):
    """n to n + 2 forms: pure powers, forms whose degree is a variable's
    weight (so that linear parts occur), and sparse or dense forms of
    degree 2 to 4."""
    gens = []
    for _ in range(len(ring.vars) + rng.choice((0, 1, 1, 2))):
        kind = rng.random()
        if kind < 0.2:
            expo = [0] * len(ring.vars)
            expo[rng.randrange(len(ring.vars))] = rng.randint(2, 4)
            gens.append(ring.from_terms([(tuple(expo), 1)]))
            continue
        degree = rng.choice(ring.weights) if kind < 0.35 else rng.randint(2, 4)
        f = random_form(ring, degree, rng, zero_chance=0.6 if kind < 0.8 else 0.0)
        if not f.is_zero():
            gens.append(f)
    return gens


def oracle_bases():
    for field, tag in ((None, "fp"), (QQ, "qq")):
        yield f"xy-{tag}", RingPresentation(["x", "y"], [1, 1], field)
        yield f"xyz-{tag}", RingPresentation(["x", "y", "z"], [1, 1, 1], field)
        yield f"xy-w12-{tag}", RingPresentation(["x", "y"], [1, 2], field)
        yield f"xyz-w123-{tag}", RingPresentation(["x", "y", "z"], [1, 2, 3], field)
        yield f"xyz-w231-{tag}", RingPresentation(["x", "y", "z"], [2, 3, 1], field)


def test_height_test_matches_the_minimal_presentation():
    artinian = ci = linear = 0
    with deadline(120):
        for name, base in oracle_bases():
            rng = random.Random(f"ci oracle {name}")
            drawn = 0
            while drawn < 40:
                ring, extra = split_input(base, random_generators(base, rng), rng)
                try:
                    want = reference_is_complete_intersection(ring, extra)
                except NotArtinianError:
                    continue
                got = is_complete_intersection(ring, extra)
                assert got == want, (name, [str(g) for g in ring.relations], [str(g) for g in extra])
                drawn += 1
                ci += got[0]
                linear += got[1] < len(ring.vars)
            artinian += drawn
    assert artinian == 400
    # both verdicts, and inputs with linear parts, occur often enough to matter
    assert 0.2 * artinian < ci < 0.8 * artinian
    assert linear > 0.2 * artinian


def test_height_test_matches_on_the_curve_and_circulant_rings():
    S = RingPresentation(["X", "Y", "Z", "W"], R1_WEIGHTS)
    r1 = S.extend_relations(parse_poly_list(R1_RELATIONS, S))
    extra = parse_poly_list("X; Z; W", r1)
    assert is_complete_intersection(r1, extra) == reference_is_complete_intersection(r1, extra)
    S3 = RingPresentation(["X", "Y", "Z"], [1, 1, 1])
    ideals = ("X^2; Y; Z", "X; Y; Z", "X^2; Y", "X*Y; X^2; Y^2; Z", "Y; Z", "X; Y")
    for fgh in (("X", "Y", "Z"), ("X^2", "Y", "Z"), ("X", "Y^2", "Z^3")):
        ring = _circulant_quotient(S3, fgh)[0].presentation
        for gens in ideals:
            extra = parse_poly_list(gens, ring)
            got = is_complete_intersection(ring, extra)
            assert got == reference_is_complete_intersection(ring, extra), (fgh, gens)

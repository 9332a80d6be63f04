"""The ring-map kernel, computed by eliminating the target variables from the
graph ideal, against the former route: a Buchberger basis in a two-block
ring of its own, kept here as the reference, filtered to the elements free
of the first block."""

import random

import pytest

from cak import QQ, RingPresentation
from cak.groebner import IdealHandle, RingContext, RingMap, buchberger, ring_map_kernel
from cak.polyring import Polynomial


def reference_kernel(rmap):
    src, tgt = rmap.source, rmap.target
    rename = {}
    for v in tgt.vars:
        nv = v
        while nv in src.var_index or nv in rename.values():
            nv = "_" + nv
        rename[v] = nv
    uvars = [rename[v] for v in tgt.vars] + list(src.vars)
    uweights = list(tgt.weights) + list(src.weights)
    nt = len(tgt.vars)
    blocks = (tuple(range(nt)), tuple(range(nt, nt + len(src.vars))))
    uring = RingPresentation(uvars, uweights, src.field, (), blocks)

    def move_target(p):
        out = {}
        for k, c in p.terms.items():
            expo = tgt.decode(k)
            target = [0] * len(uvars)
            target[: len(expo)] = expo
            out[uring.encode(tuple(target))] = c
        return Polynomial(uring, out)

    gens = [move_target(r) for r in tgt.relations]
    for i, v in enumerate(src.vars):
        gens.append(uring.var(v) - move_target(rmap.images[i]))
    gb = buchberger([g.terms for g in gens], RingContext(uring), src.field, None)
    drop_block = uring._layout[0]
    kept = []
    for terms in gb:
        if all(k & drop_block.cmask == drop_block.cmask for k in terms):
            kept.append(Polynomial(uring, terms).reencode(src.polynomial_ambient()).transfer(src))
    return IdealHandle(src, kept)


def random_form(ring, degree, rng, field_q=False):
    """A random form of the given weighted degree (zero if none exists)."""
    n = len(ring.vars)
    terms = []

    def monomials(i, left, expo):
        if i == n:
            if left == 0:
                yield tuple(expo)
            return
        w = ring.weights[i]
        for e in range(left // w + 1):
            yield from monomials(i + 1, left - e * w, expo + [e])

    for expo in monomials(0, degree, []):
        if rng.random() < 0.6:
            c = rng.randrange(1, 7) if field_q else rng.randrange(1, 32003)
            terms.append((expo, c * rng.choice((1, -1))))
    return ring.from_terms(terms)


def curve_map(seed, field=None):
    """A monomial curve t -> (t^a1, ..., t^ak) in k[t]."""
    rng = random.Random(seed)
    exps = sorted(rng.sample(range(2, 12), rng.randrange(2, 5)))
    src = RingPresentation([f"x{i}" for i in range(len(exps))], exps, field)
    tgt = RingPresentation(["t"], [1], field)
    return RingMap(src, tgt, [tgt.var("t") ** a for a in exps])


def plane_map(seed, field=None):
    """Random forms of degrees 1-3 in k[s,t]."""
    rng = random.Random(seed)
    degrees = [rng.randrange(1, 4) for _ in range(3)]
    src = RingPresentation(["x", "y", "z"], degrees, field)
    tgt = RingPresentation(["s", "t"], [1, 1], field)
    images = []
    for d in degrees:
        form = random_form(tgt, d, rng, field is QQ)
        images.append(form if form else tgt.var("s") ** d)
    return RingMap(src, tgt, images)


def quotient_target_map(seed, field=None):
    """x, y, z to random linear forms of the twisted cubic's coordinate ring."""
    rng = random.Random(seed)
    amb = RingPresentation(["a", "b", "c", "d"], [1, 1, 1, 1], field)
    tgt = amb.extend_relations(["a*c - b^2", "b*d - c^2", "a*d - b*c"])
    src = RingPresentation(["x", "y", "z"], [1, 1, 1], field)
    images = [random_form(tgt, 1, rng, field is QQ) or tgt.var("a") for _ in src.vars]
    return RingMap(src, tgt, images)


def quotient_source_map(seed, field=None):
    """k[x,y,z]/(x*z - y^2) to k[s,t] by random quadrics through the cone."""
    rng = random.Random(seed)
    src = RingPresentation(["x", "y", "z"], [2, 2, 2], field, relations=["x*z - y^2"])
    tgt = RingPresentation(["s", "t"], [1, 1], field)
    u, v = random_form(tgt, 1, rng, field is QQ), random_form(tgt, 1, rng, field is QQ)
    u, v = u or tgt.var("s"), v or tgt.var("t")
    return RingMap(src, tgt, [u * u, u * v, v * v])


def clashing_map(seed, field=None):
    """Target variables named like a source variable and like its renaming,
    so the renaming loop runs past its first candidate."""
    rng = random.Random(seed)
    src = RingPresentation(["x", "y", "z"], [1, 1, 1], field)
    tgt = RingPresentation(["x", "_x"], [1, 1], field)
    images = [random_form(tgt, 1, rng, field is QQ) or tgt.var("x") for _ in src.vars]
    return RingMap(src, tgt, images)


CASES = [
    (make, seed, field)
    for make in (curve_map, plane_map, quotient_target_map, quotient_source_map, clashing_map)
    for seed in range(4)
    for field in (None, QQ)
]


@pytest.mark.parametrize(
    "make, seed, field", CASES, ids=[f"{m.__name__}-{s}-{f or 'fp'}" for m, s, f in CASES]
)
def test_kernel_matches_the_two_block_route(make, seed, field):
    rmap = make(seed, field)
    got, want = ring_map_kernel(rmap), reference_kernel(rmap)
    assert got.ring is rmap.source
    assert [g.terms for g in got.gens] == [g.terms for g in want.gens]
    assert [g.terms for g in got.groebner_basis()] == [g.terms for g in want.groebner_basis()]
    in_target = IdealHandle(rmap.target, ())
    for g in got.gens:
        assert in_target.normal_form(rmap.apply(g)).is_zero(), str(g)


def test_the_cases_have_nonzero_kernels():
    # a case whose kernel is zero would compare two empty lists
    for make, seed, field in CASES:
        assert ring_map_kernel(make(seed, field)).gens, (make.__name__, seed, field)


def test_clashing_names_give_the_kernel_of_the_map():
    src = RingPresentation(["x", "y", "z"], [1, 1, 1])
    tgt = RingPresentation(["x", "_x"], [1, 1])
    kernel = ring_map_kernel(RingMap(src, tgt, ["x", "_x", "x + _x"]))
    assert [str(g) for g in kernel.gens] == ["x + y - z"]

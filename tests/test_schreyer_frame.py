"""The Schreyer-frame route of ``ResolutionBuilder`` against the syzygy steps.

Over a polynomial ring every module the Koszul route declines is resolved
from one Schreyer frame of the reduced Groebner basis of its columns, which
``minimalize`` then cuts down to a minimal resolution.  The oracle is the
chain of Groebner syzygy steps, ``resolve._syzygy_step``, which still serves
the rings whose relations are not Artinian: the minimal subset of the
columns, then one step per map until the kernel vanishes.  On seeded
modules of rank 1 to 3 with twists 0 and 1, in three and four variables
over F_32003 and Q and in one weighted ring, the two Betti tables must
agree, ``verify_resolution`` must certify the frame route's resolution,
no differential may keep a constant entry, and no frame may be longer than
the number of variables (Schreyer's lemma).
"""

import random

import pytest

from cak import QQ, RingPresentation, parse_poly_list
from cak import resolve
from cak.complexes import verify_resolution
from cak.groebner import ModuleContext
from cak.resolve import (
    GradedFreeModule,
    PolyMatrix,
    PresentedModule,
    _minimal_columns,
    _syzygy_step,
    minimal_free_resolution,
    presentation_minimalize,
)
from cak.verify import model_extension_ring
from conftest import deadline
from test_min_subset import random_form


def rings():
    for field, tag in ((None, "fp"), (QQ, "qq")):
        for n in (3, 4):
            yield f"n{n}-{tag}", RingPresentation([f"x{i}" for i in range(n)], [1] * n, field)
    yield "w123-fp", RingPresentation(["x", "y", "z"], [1, 2, 3])


def draw_module(ring, rng):
    """A module of rank 1 to 3 with twists 0 and 1 and 1 to 4 homogeneous
    columns, each of degree 1 or 2 (in weight units) above the top twist."""
    twists = [rng.choice((0, 1)) for _ in range(rng.randint(1, 3))]
    top = max(twists) + (1 if ring.weights == (1,) * len(ring.vars) else 2)
    cols = []
    for _ in range(rng.randint(1, 4)):
        degree = rng.randint(1, top)
        col = [random_form(ring, degree + max(twists) - t, rng, zero_chance=0.5) for t in twists]
        if any(col):
            cols.append(col)
    if not cols:
        return None
    return PresentedModule(ring, GradedFreeModule(ring, twists), PolyMatrix.from_columns(ring, len(twists), cols))


def oracle_betti(module):
    """Betti rows from the chain of syzygy steps on the minimalized
    presentation."""
    module = presentation_minimalize(module)
    ring, twists = module.ring, module.ambient.twists
    rows = {}
    for t in twists:
        rows[(0, t)] = rows.get((0, t), 0) + 1
    mat, degs = _minimal_columns(ring, module.relations.cols, list(module.column_degrees), twists, None)
    for i in range(1, len(ring.vars) + 2):
        for d in degs:
            rows[(i, d)] = rows.get((i, d), 0) + 1
        if not degs:
            return [[i, j, r] for (i, j), r in sorted(rows.items())]
        mat, degs = _syzygy_step(mat, degs, None)
    raise AssertionError("the syzygy steps did not stop")


@pytest.fixture
def frames(monkeypatch):
    """The Schreyer frames built by the resolutions of a test."""
    built = []
    original = resolve._schreyer_frame

    def recording(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(resolve, "_schreyer_frame", recording)
    return built


@pytest.mark.parametrize("name, ring", list(rings()), ids=[name for name, _ in rings()])
def test_frame_route_matches_the_syzygy_steps(name, ring, frames):
    rng = random.Random(f"schreyer frame {name}")
    resolved = 0
    with deadline(60):
        for _ in range(12):
            module = draw_module(ring, rng)
            if module is None:
                continue
            frames.clear()
            res = minimal_free_resolution(module)
            assert res.complete
            assert res.betti.as_rows() == oracle_betti(module), name
            report = verify_resolution(res.complex, module)
            assert report.ok, report.as_dict()
            for d in res.complex.maps:
                ctx = ModuleContext(ring, d.nrows)
                assert all(ctx.decode(k)[1] != ring.one_key for col in d.cols for k in col)
            assert all(frame.length <= len(ring.vars) for frame in frames)
            resolved += bool(frames)
    assert resolved >= 4  # most draws take the frame route, not the Koszul one


def test_four_generic_quadrics_in_three_variables(frames):
    """Their reduced basis adds two cubics, so the frame has ranks
    (1, 6, 9, 4), and minimalize cuts it to the Betti numbers (1, 4, 5, 2)."""
    rng = random.Random("four quadrics")
    ring = RingPresentation(["x", "y", "z"], [1, 1, 1])
    quadrics = [random_form(ring, 2, rng, zero_chance=0.0) for _ in range(4)]
    res = minimal_free_resolution(PresentedModule.cyclic(ring, quadrics))
    assert [frame.ranks() for frame in frames] == [(1, 6, 9, 4)]
    assert res.total_ranks() == (1, 4, 5, 2)


# a seeded ideal whose frame has length 5 > 4 when a later level is sorted
# lex-ascending, against the lemma's order
LEMMA_GENERATORS = (
    "-15805*x0*x2^2 - 6994*x0^2*x3 - 13483*x0*x1*x3 + 995*x0*x3^2; "
    "11469*x0^2 + 7451*x0*x2 + 13703*x1*x2 + 2996*x2*x3; "
    "-10050*x1^2 + 4824*x1*x3 + 4366*x3^2; 9518*x2*x3 - 14805*x3^2; "
    "2180*x0*x1^2 + 14593*x0^2*x2 - 11464*x1*x2^2 + 1990*x0*x3^2 - 14353*x1*x3^2 + 9160*x2*x3^2"
)


def test_the_lemma_order_bounds_the_frame(frames):
    """Each level sorted lex-descending within its lead components keeps
    the frame within the number of variables."""
    ring = RingPresentation([f"x{i}" for i in range(4)], [1] * 4)
    res = minimal_free_resolution(PresentedModule.cyclic(ring, parse_poly_list(LEMMA_GENERATORS, ring)))
    assert [frame.ranks() for frame in frames] == [(1, 9, 20, 17, 5)]
    assert res.total_ranks() == (1, 5, 13, 14, 5)


def test_the_c02_frames_are_minimal(frames):
    """On the verify-paper c02 grid (r, d, v-r-d) the frame is already the
    minimal resolution: minimalize cancels nothing.  The type-one rings are
    complete intersections and take the Koszul route."""
    framed = []
    for r in (1, 2, 3):
        for d in (0, 1):
            for extra in (0, 1, 2):
                ring, gens = model_extension_ring(r, r + extra, d)
                frames.clear()
                res = minimal_free_resolution(PresentedModule.cyclic(ring, gens))
                assert [frame.ranks() for frame in frames] == ([res.total_ranks()] if r > 1 else [])
                framed += frames
    assert len(framed) == 12
    assert framed[-1].ranks() == (1, 8, 21, 25, 14, 3)

"""Betti tables known before the differentials of the two whole routes.

Over a polynomial ring a ``ResolutionBuilder`` knows its modules when it is
built: on the Koszul route they are the subset sums of the forms' degrees,
and on the frame route the Schreyer frame's less the ranks of the constant
blocks of its maps (``resolve._constant_ranks``; F (x) k computes Tor(M, k),
as in La Scala and Stillman, J. Symbolic Comput. 26 (1998)).  The
differentials are built, and the frame minimalized, on the first read of
``maps``.  Here the table read off the ranks must equal the minimalized
complex's, the units charged for the cancellations must be the ones
``minimalize`` makes, the Koszul twists must be Eagon-Northcott's in
order, and a Betti table alone must never minimalize the frame.
"""

import itertools
import random

import pytest

from cak import RingPresentation
from cak import resolve
from cak.complexes import GenericMatrix, _koszul_forms, eagon_northcott, verify_resolution
from cak.groebner import Budget
from cak.resolve import GradedFreeModule, PolyMatrix, PresentedModule, minimal_free_resolution
from conftest import deadline
from test_min_subset import random_form
from test_schreyer_frame import draw_module, rings


@pytest.fixture
def minimalized(monkeypatch):
    """The (frame, budget) of every ``minimalize`` run on a Schreyer frame."""
    frames, calls = [], []
    frame, minimalize = resolve._schreyer_frame, resolve.minimalize

    def recording_frame(*args, **kwargs):
        frames.append(frame(*args, **kwargs))
        return frames[-1]

    def recording_minimalize(complex, budget=None):
        if any(complex is f for f in frames):
            calls.append((complex, budget))
        return minimalize(complex, budget)

    monkeypatch.setattr(resolve, "_schreyer_frame", recording_frame)
    monkeypatch.setattr(resolve, "minimalize", recording_minimalize)
    return calls


def check_against_the_minimalized_frame(module, calls):
    """The table read off the ranks equals the minimalized frame's, and the
    units charged for it are the cancellations minimalize makes; returns
    whether the module took the frame route."""
    calls.clear()
    res = minimal_free_resolution(module)
    table, ranks = res.betti.as_rows(), res.total_ranks()
    assert calls == []
    cx = res.complex
    if not calls:  # the Koszul route
        return False
    (_, budget), = calls
    assert budget.used == budget.limit  # charged at construction, spent by minimalize
    assert cx.betti_table().as_rows() == table and cx.ranks() == ranks
    assert res.betti.as_rows() == table
    return True


@pytest.mark.parametrize("name, ring", list(rings()), ids=[name for name, _ in rings()])
def test_the_frame_modules_of_the_oracle_test(name, ring, minimalized):
    """The draws of ``test_schreyer_frame.py``, in its order and seeds."""
    rng = random.Random(f"schreyer frame {name}")
    framed = 0
    with deadline(60):
        for _ in range(12):
            module = draw_module(ring, rng)
            if module is not None:
                framed += check_against_the_minimalized_frame(module, minimalized)
    assert framed >= 4


def sweep_modules():
    """Thirty seeded modules of rank 1 to 3 in three and four variables
    over F_32003: per module n in {3, 4}, the rank, its twists drawn from
    (0, 0, 1), 1 to 5 columns, each of degree max(twists) + 1 or 2, with
    every monomial of an entry kept with chance 0.4 and given a
    coefficient in [1, 32003); all-zero columns are dropped."""
    rng = random.Random(7)
    for _ in range(30):
        n = rng.choice((3, 4))
        twists = [rng.choice((0, 0, 1)) for _ in range(rng.choice((1, 2, 3)))]
        ring = RingPresentation([f"x{i}" for i in range(n)], [1] * n)
        cols = []
        for _ in range(rng.randint(1, 5)):
            degree = max(twists) + rng.choice((1, 2))
            col = [ring.from_terms([(e, rng.randrange(1, 32003)) for e in exponents(n, degree - t)
                                    if rng.random() >= 0.6]) for t in twists]
            if any(not p.is_zero() for p in col):
                cols.append(col)
        yield PresentedModule(ring, GradedFreeModule(ring, twists), PolyMatrix.from_columns(ring, len(twists), cols))


def exponents(n, degree):
    for combo in itertools.combinations_with_replacement(range(n), degree):
        yield tuple(combo.count(v) for v in range(n))


def test_the_rank_two_and_three_sweep(minimalized):
    """Its module 7 has frame ranks (3, 33, 54, 24) and Betti numbers
    (3, 5, 5, 3): the frame is seven times the minimal resolution."""
    framed = 0
    with deadline(60):
        for i, module in enumerate(sweep_modules()):
            framed += check_against_the_minimalized_frame(module, minimalized)
            if i == 7:
                (frame, _), = minimalized
                assert frame.ranks() == (3, 33, 54, 24)
                assert module.resolution().modules[0].twists == (0, 1, 0)
                assert minimal_free_resolution(module).total_ranks() == (3, 5, 5, 3)
    assert framed >= 20


@pytest.mark.parametrize("weights", [(1, 1, 1, 1, 1), (1, 2, 3, 1, 2)], ids=["standard", "weighted"])
def test_the_koszul_twists_are_eagon_northcotts(weights):
    """F_k's twists, known at construction, are the Eagon-Northcott
    complex's in order, shifted by the ambient twist; construction charges
    what building that complex does; the maps built on first read carry
    the same modules."""
    ring = RingPresentation([f"x{i}" for i in range(5)], weights)
    rng = random.Random(f"koszul twists {weights}")
    seen = set()
    with deadline(60):
        for m in range(1, 6):
            for _ in range(3):
                twist = rng.randint(-2, 3)
                f = [random_form(ring, rng.randint(1, 4), rng, 0.0) for _ in range(m)]
                module = PresentedModule(ring, GradedFreeModule(ring, (twist,)),
                                         PolyMatrix.from_columns(ring, 1, [[g] for g in f]))
                if resolve._koszul_resolution(resolve.presentation_minimalize(module), Budget()) is None:
                    continue
                degrees = [g.homogeneous_degree() for g in f]
                want = eagon_northcott(GenericMatrix._row(ring, f, degrees))
                budget = Budget()
                builder = resolve.ResolutionBuilder(module, budget)
                got = [m.twists for m in builder.modules]
                assert got == [tuple(t + twist for t in mod.twists) for mod in want.modules]
                spent = Budget()
                _koszul_forms(ring, f, degrees, spent)
                assert spent.used == 2 ** m + m
                assert len(builder.maps) == m
                assert [mod.twists for mod in builder.modules] == got
                seen.add(m)
    assert seen == {1, 2, 3, 4, 5}


def test_a_betti_table_never_minimalizes_the_frame(minimalized):
    """``betti``, ``total_ranks`` and the ranks of the builder are read
    without the maps; ``complex`` minimalizes the frame once, however often
    it is read and whichever resolution of the module reads it."""
    ring = RingPresentation(["x", "y", "z"], [1, 1, 1])
    rng = random.Random("four quadrics")
    module = PresentedModule.cyclic(ring, [random_form(ring, 2, rng, zero_chance=0.0) for _ in range(4)])
    res = minimal_free_resolution(module)
    assert res.betti.as_rows() == [[0, 0, 1], [1, 2, 4], [2, 3, 2], [2, 4, 3], [3, 5, 2]]
    assert res.total_ranks() == (1, 4, 5, 2) and res.complete
    assert module.resolution().rank(2) == 5
    assert minimalized == []
    cx = res.complex
    assert res.complex is cx and len(minimalized) == 1
    again = minimal_free_resolution(module, max_length=2)
    assert again.complex.ranks() == (1, 4, 5) and len(minimalized) == 1
    assert verify_resolution(cx, module).ok

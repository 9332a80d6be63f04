"""Differential tests of the divisor index against a linear lead scan.

``DivisorIndex`` finds the reducer of every normal-form step and answers
every lead search of the Groebner engine.  The reference here is the scan it
replaced, written on exponent tuples: a lead divides a key iff both lie in
the same component and the lead has no larger exponent in any variable.
Index and scan must agree on the first divisor, on every normal form, and on
the bases that the engine builds with either of them.  Exponents reach past
the index's clamp up to MAX_EXP, over single-block weighted rings,
elimination orders of two and three blocks, and module keys with several
components and a block bit.
"""

import functools
import random

import pytest

from cak._kernel import CLAMP, DivisorIndex, axpy_terms, normal_form_terms
from cak.errors import DegreeOverflowError, ResourceLimitError
from cak.groebner import (
    Budget,
    GroebnerEngine,
    IdealHandle,
    ModuleContext,
    RingContext,
    module_syzygies,
)
from cak.polyring import GF, MAX_EXP, QQ, Polynomial, RingPresentation
from conftest import deadline

FIELDS = {"GF(32003)": GF(32003), "QQ": QQ}


def rings(field):
    """One weighted single-block ring and elimination orders of two and three blocks."""
    return {
        "weighted": RingPresentation(["a", "b", "c", "d"], [1, 2, 3, 5], field),
        "two blocks": RingPresentation(
            ["a", "b", "c", "d"], [2, 1, 1, 3], field, blocks=((0, 2), (1, 3))
        ),
        "three blocks": RingPresentation(
            ["a", "b", "c", "d", "e"], [1, 1, 2, 1, 3], field, blocks=((4,), (0, 1), (2, 3))
        ),
    }


def contexts(ring):
    return {
        "ring": RingContext(ring),
        "module": ModuleContext(ring, 3),
        "elimination module": ModuleContext(ring, 4, fhigh=2),
    }


# -- the reference: exponent tuples and a linear scan ----------------------------


@functools.lru_cache(maxsize=1 << 16)
def parts(ring, compmask, key):
    """(component bits, exponent tuple) of a ring or module key."""
    if compmask:
        mono = (key >> ModuleContext.COMP_BITS) & ((1 << ring.key_bits) - 1)
        return key & compmask, ring.decode(mono)
    return 0, ring.decode(key)


def scan_divides(ring, compmask, lead, key):
    (ca, ea), (cb, eb) = parts(ring, compmask, lead), parts(ring, compmask, key)
    return ca == cb and all(x <= y for x, y in zip(ea, eb))


def scan_divisors(ring, compmask, leads, key, mask=-1):
    return [
        i for i, lead in enumerate(leads)
        if mask >> i & 1 and scan_divides(ring, compmask, lead, key)
    ]


def scan_normal_form(ring, compmask, f, leads, terms, p, guard, sig=None, sigs=None):
    """The normal form by a scan over every lead, smallest index first."""
    work, out = dict(f), {}
    while work:
        m = max(work)
        c = work[m]
        for i in scan_divisors(ring, compmask, leads, m):
            if sig is None or sigs[i] is None or m - leads[i] + sigs[i] < sig:
                axpy_terms(work, terms[i], -c, m - leads[i], p, guard)
                break
        else:
            out[m] = c
            del work[m]
    return out


@pytest.fixture
def scanning(monkeypatch):
    """Make every DivisorIndex find its candidates by the reference scan,
    for the ring given; the index then returns exactly the divisors.  Normal
    forms compute their candidates inline and keep the index's; they are
    compared with the scan in ``test_normal_forms_match_the_scan``."""

    def use(ring):
        def candidates(index, key, mask=-1):
            found = scan_divisors(ring, index.compmask, index.leads, key, mask)
            return sum(1 << i for i in found)

        monkeypatch.setattr(DivisorIndex, "candidates", candidates)

    return use


def outcome(fn):
    """fn()'s value, or the type of the cak error it raised."""
    try:
        return fn()
    except (DegreeOverflowError, ResourceLimitError) as e:
        return type(e)


# -- random keys -------------------------------------------------------------------


def draw_exponent(rng):
    r = rng.random()
    if r < 0.7:
        return rng.randint(0, 3)
    if r < 0.85:
        return rng.randint(CLAMP - 1, CLAMP + 2)
    if r < 0.95:
        return rng.randint(0, MAX_EXP)
    return MAX_EXP


def draw_key(ctx, rng, expo=None):
    ring = ctx.ring
    mono = ring.encode(expo or [draw_exponent(rng) for _ in ring.vars])
    if isinstance(ctx, ModuleContext):
        return ctx.key(rng.randrange(ctx.ncomp), mono)
    return mono


def with_component_of(ctx, key, mono):
    """The module key of monomial ``mono`` in the component of ``key``."""
    if isinstance(ctx, ModuleContext):
        comp, _ = ctx.decode(key)
        return ctx.key(comp, mono)
    return mono


def draw_query(ctx, leads, rng):
    """A random key, or a multiple of one of the leads (so it has a divisor)."""
    ring = ctx.ring
    if not leads or rng.random() < 0.4:
        return draw_key(ctx, rng)
    lead = rng.choice(leads)
    _, expo = parts(ring, ctx.compmask, lead)
    up = [min(MAX_EXP, e + rng.choice((0, 0, 1, 2, CLAMP))) for e in expo]
    return with_component_of(ctx, lead, ring.encode(up))


CASES = [
    (fname, rname, cname)
    for fname in FIELDS
    for rname in ("weighted", "two blocks", "three blocks")
    for cname in ("ring", "module", "elimination module")
]


@pytest.mark.parametrize("fname,rname,cname", CASES)
def test_divisors_match_the_scan(fname, rname, cname):
    ring = rings(FIELDS[fname])[rname]
    ctx = contexts(ring)[cname]
    rng = random.Random(f"divisors:{fname}:{rname}:{cname}")
    for _ in range(6):
        index = ctx.index()
        leads = []
        for _ in range(rng.randint(1, 40)):
            lead = draw_key(ctx, rng)
            leads.append(lead)
            index.append(lead)
        clamped = {
            i for i, lead in enumerate(leads)
            if max(parts(ring, ctx.compmask, lead)[1]) > CLAMP
        }
        for _ in range(60):
            key = draw_query(ctx, leads, rng)
            mask = -1 if rng.random() < 0.5 else rng.getrandbits(len(leads))
            want = scan_divisors(ring, ctx.compmask, leads, key, mask)
            assert list(index.divisors(key, mask)) == want
            assert index.has_divisor(key, mask) == bool(want)
            # candidates: every divisor, and no other lead unless it is clamped
            cand = {i for i in range(len(leads)) if index.candidates(key, mask) >> i & 1}
            assert set(want) <= cand
            assert cand - set(want) <= clamped


def draw_reducers(ctx, rng, field, count):
    """Monic term dicts over ``ctx`` with small tails below their leads."""
    ring = ctx.ring
    one = field.coerce(1)
    out = []
    for _ in range(count):
        lead = draw_key(ctx, rng)
        terms = {lead: one}
        for _ in range(rng.randint(0, 2)):
            tail = with_component_of(
                ctx, lead, ring.encode([rng.randint(0, 2) for _ in ring.vars])
            )
            if tail < lead:
                terms[tail] = field.coerce(rng.randint(1, 9))
        out.append(terms)
    return out


def draw_poly(ctx, rng, field):
    ring = ctx.ring
    f = {}
    for _ in range(rng.randint(1, 4)):
        expo = [rng.choice((0, 1, 2, 3, CLAMP + 1)) for _ in ring.vars]
        f[with_component_of(ctx, draw_key(ctx, rng), ring.encode(expo))] = field.coerce(
            rng.choice((1, -1, 2, 7))
        )
    return f


@pytest.mark.parametrize("fname,rname,cname", CASES)
def test_normal_forms_match_the_scan(fname, rname, cname):
    field = FIELDS[fname]
    ring = rings(field)[rname]
    ctx = contexts(ring)[cname]
    p, guard = field.p, ctx.guard
    rng = random.Random(f"normal forms:{fname}:{rname}:{cname}")
    with deadline(60):
        for _ in range(8):
            reducers = draw_reducers(ctx, rng, field, rng.randint(1, 25))
            leads = [max(t) for t in reducers]
            index = ctx.index(zip(leads, reducers))
            sigs = [None if rng.random() < 0.3 else draw_key(ctx, rng) for _ in leads]
            for _ in range(10):
                f = draw_poly(ctx, rng, field)
                assert outcome(lambda: normal_form_terms(f, index, p, guard)) == outcome(
                    lambda: scan_normal_form(ring, ctx.compmask, f, leads, reducers, p, guard)
                )
                sig = draw_key(ctx, rng)
                assert outcome(
                    lambda: normal_form_terms(f, index, p, guard, sig, sigs)
                ) == outcome(
                    lambda: scan_normal_form(
                        ring, ctx.compmask, f, leads, reducers, p, guard, sig, sigs
                    )
                )
                q = rng.randrange(len(leads))
                rest = [i for i in range(len(leads)) if i != q]
                assert outcome(
                    lambda: normal_form_terms(f, index, p, guard, mask=~(1 << q))
                ) == outcome(
                    lambda: scan_normal_form(
                        ring, ctx.compmask, f, [leads[i] for i in rest],
                        [reducers[i] for i in rest], p, guard,
                    )
                )


# -- the engine with either search ---------------------------------------------------


def engine_state(engine, fill):
    """The engine's basis and leads after ``fill(engine)``, with its reduced
    basis, or with the error that stopped it (a budget of a few hundred
    pairs stops the larger inputs midway, so the partial bases are compared too)."""
    try:
        fill(engine)
    except ResourceLimitError as e:
        return type(e), engine.G, engine.leads
    return engine.G, engine.leads, engine.reduced_basis()


def draw_generators(ring, rng, count):
    """Small polynomials with a pure power past the clamp now and then."""
    field = ring.field
    gens = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            expo = [rng.randint(0, 2) for _ in ring.vars]
            if rng.random() < 0.2:
                expo = [0] * len(ring.vars)
                expo[rng.randrange(len(expo))] = rng.randint(CLAMP + 1, CLAMP + 4)
            terms[ring.encode(expo)] = field.coerce(rng.randint(1, 50))
        gens.append(terms)
    return gens


def complete_signatures(ring, gens):
    engine = GroebnerEngine(RingContext(ring), ring.field, Budget(200))
    return engine_state(engine, lambda e: e.add_generators(gens))


@pytest.mark.parametrize("fname", list(FIELDS))
@pytest.mark.parametrize("rname", ["weighted", "two blocks", "three blocks"])
def test_signature_completion_matches_the_scan(fname, rname, scanning):
    ring = rings(FIELDS[fname])[rname]
    rng = random.Random(f"add_generators:{fname}:{rname}")
    inputs = [draw_generators(ring, rng, rng.randint(2, 4)) for _ in range(8)]
    with deadline(60):
        got = [complete_signatures(ring, gens) for gens in inputs]
        scanning(ring)
        assert [complete_signatures(ring, gens) for gens in inputs] == got


def draw_columns(ring, rng, nrows, ncols):
    """Packed columns of ModuleContext(ring, nrows), an entry past the clamp
    now and then."""
    ctx = ModuleContext(ring, nrows)
    cols = []
    for _ in range(ncols):
        col = []
        for _ in range(nrows):
            terms = {}
            for _ in range(rng.randint(0, 2)):
                expo = [rng.randint(0, 2) for _ in ring.vars]
                if rng.random() < 0.15:
                    expo[rng.randrange(len(expo))] = CLAMP + 1
                terms[ring.encode(expo)] = ring.field.coerce(rng.randint(1, 50))
            col.append(Polynomial(ring, terms))
        cols.append(ctx.from_column(col))
    return cols


def complete_module(ring, nrows, cols):
    """The Buchberger loop over ModuleContext(ring, nrows), and over the
    elimination layout of the syzygies of the columns."""

    def fill(engine):
        for col in cols:
            engine.add_raw(col)
        engine.complete()

    engine = GroebnerEngine(ModuleContext(ring, nrows), ring.field, Budget(400))
    return engine_state(engine, fill), outcome(
        lambda: module_syzygies(ring, cols, nrows=nrows, budget=400)
    )


@pytest.mark.parametrize("fname", list(FIELDS))
@pytest.mark.parametrize("rname", ["weighted", "two blocks", "three blocks"])
def test_module_completion_matches_the_scan(fname, rname, scanning):
    ring = rings(FIELDS[fname])[rname]
    rng = random.Random(f"complete:{fname}:{rname}")
    inputs = []
    for _ in range(6):
        nrows = rng.randint(1, 3)
        inputs.append((nrows, draw_columns(ring, rng, nrows, rng.randint(1, 3))))
    with deadline(60):
        got = [complete_module(ring, n, cols) for n, cols in inputs]
        scanning(ring)
        assert [complete_module(ring, n, cols) for n, cols in inputs] == got


# -- a huge exponent beside many small ones ----------------------------------------


def test_a_huge_lead_beside_many_small_ones():
    """x^30000 among 300 small leads: the index keeps CLAMP + 1 bitsets per
    variable whatever the exponent, and queries past the clamp still find
    exactly the scan's divisors."""
    ring = RingPresentation(["x", "y", "z", "w"], [1, 1, 1, 1])
    ctx = RingContext(ring)
    rng = random.Random("huge")
    one = ring.field.coerce(1)
    leads = [ring.encode((30000, 0, 0, 0))]
    leads += [ring.encode([rng.randint(0, 4) for _ in range(4)]) for _ in range(300)]
    with deadline(30):
        index = ctx.index((lead, {lead: one}) for lead in leads)
        assert all(len(above) == CLAMP + 1 for _, above in index.rows)
        for x in (0, 3, CLAMP, 29999, 30000, 30001, MAX_EXP):
            for _ in range(20):
                key = ring.encode([x] + [rng.randint(0, 5) for _ in range(3)])
                assert list(index.divisors(key)) == scan_divisors(ring, 0, leads, key)
        f = {ring.encode((30001, 1, 0, 0)): one, ring.encode((29999, 0, 0, 0)): one}
        want = scan_normal_form(ring, 0, f, leads, index.terms, ring.field.p, ring.guard)
        assert normal_form_terms(f, index, ring.field.p, ring.guard) == want
        # the same through an ideal handle and its cached index
        ideal = IdealHandle(ring, [Polynomial(ring, {lead: one}) for lead in leads[:40]])
        gb = ideal.groebner_basis()
        assert gb[-1].lead_key() == leads[0]
        gb_leads = [g.lead_key() for g in gb]
        want = scan_normal_form(ring, 0, f, gb_leads, [g.terms for g in gb], ring.field.p, ring.guard)
        assert ideal.normal_form(Polynomial(ring, f)).terms == want
        assert ideal.contains_poly(Polynomial(ring, {ring.encode((30001, 1, 0, 0)): one}))

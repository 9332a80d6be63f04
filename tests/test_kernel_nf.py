"""The heap-ordered normal form against the max()-ordered loop it replaced.

``normal_form_terms`` pops the largest key of its work dict off a heap and
merges each reducer's multiple inline.  The reference below is the earlier
loop, kept as it was: it takes ``max(work)`` on every step and merges with
a per-term guard check.  The two must agree dict for dict, insertion order
included, over F_7 (where sums cancel often), F_32003 and Q, on rank-one
keys and module keys with the block bit, and in signature mode, and must
raise the same overflow error.

Products, shifted sums and scalings of term dicts go through the one merge
loop ``axpy_terms`` and the one scaling ``scale_terms``.  The loops they
replaced are kept below as references too: the double-loop ``mul_terms``,
the Hilbert bookkeeping's ``_add_shifted`` and the scaling comprehensions
of ``Polynomial.scale``, negation, ``groebner._monic`` and ``Echelon``.
Results must agree dict for dict, key order included.
"""

import random
from fractions import Fraction

import pytest

from cak import _kernel
from cak._kernel import CLAMP, axpy_terms, mul_terms, normal_form_terms, scale_terms
from cak.errors import DegreeOverflowError
from cak.groebner import ModuleContext, RingContext, _monic
from cak._linalg import Echelon
from cak.polyring import GF, MAX_EXP, QQ, Polynomial, RingPresentation

FIELDS = {"GF(7)": GF(7), "GF(32003)": GF(32003), "QQ": QQ}


# -- the reference: the max()-ordered loop ---------------------------------------


def reference_axpy(dst, src, c, delta, p, guard):
    if p is not None:
        c %= p
        if not c:
            return
    elif not c:
        return
    for k, v in src.items():
        nk = k + delta
        if nk & guard != guard:
            raise DegreeOverflowError("exponent overflow in term product")
        nv = dst.get(nk, 0) + c * v
        if p is not None:
            nv %= p
        if nv:
            dst[nk] = nv
        else:
            dst.pop(nk, None)


def reference_normal_form(f, index, p, guard, sig=None, sigs=None):
    work = dict(f)
    out = {}
    leads, gterms, cmask, gmask = index.leads, index.terms, index.cmask, index.gmask
    while work:
        m = max(work)
        c = work[m]
        bits = index.candidates(m)
        while bits:
            low = bits & -bits
            i = low.bit_length() - 1
            lk = leads[i]
            if not ((lk & cmask) - (m & cmask)) & gmask and (
                sig is None or sigs[i] is None or m - lk + sigs[i] < sig
            ):
                reference_axpy(work, gterms[i], -c, m - lk, p, guard)
                break
            bits ^= low
        else:
            out[m] = c
            del work[m]
    return out


def outcome(fn):
    """fn()'s items in order, or the type of the overflow error it raised."""
    try:
        return list(fn().items())
    except DegreeOverflowError as e:
        return type(e)


# -- seeded inputs -----------------------------------------------------------------


RINGS = {
    "plain": lambda field: RingPresentation(["x", "y", "z"], [1, 1, 1], field),
    "weighted": lambda field: RingPresentation(["a", "b", "c", "d"], [2, 1, 1, 3], field),
}
CONTEXTS = {
    "ring": RingContext,
    "module": lambda ring: ModuleContext(ring, 3),
    "elimination module": lambda ring: ModuleContext(ring, 3, fhigh=1),
}


def monic(terms, field):
    lc = terms[max(terms)]
    if field.p is None:
        return {k: Fraction(c) / lc for k, c in terms.items()}
    inv = pow(lc, -1, field.p)
    return {k: c * inv % field.p for k, c in terms.items()}


class Draw:
    """Keys of a context: a monomial in a random component (module keys)."""

    def __init__(self, ctx, rng):
        self.ctx, self.rng, self.n = ctx, rng, len(ctx.ring.vars)

    def key(self, top):
        rng, ring = self.rng, self.ctx.ring
        expo = [rng.randint(0, top) for _ in range(self.n)]
        if rng.random() < 0.1:  # past the divisor index's clamp
            expo[rng.randrange(self.n)] = rng.randint(CLAMP, CLAMP + 3)
        mono = ring.encode(expo)
        if isinstance(self.ctx, ModuleContext):
            return self.ctx.key(rng.randrange(3), mono)
        return mono

    def shift(self, top):
        """The key delta that multiplies by a random monomial."""
        ring = self.ctx.ring
        mono = ring.encode([self.rng.randint(0, top) for _ in range(self.n)])
        bits = ModuleContext.COMP_BITS if isinstance(self.ctx, ModuleContext) else 0
        return (mono - ring.one_key) << bits

    def terms(self, field, count, top):
        return {self.key(top): field.coerce(self.rng.randint(1, 6)) for _ in range(count)}


def draw_case(ctx, field, rng):
    """Monic reducers with tails in any component, and an input dense enough
    in multiples of their leads that merges create, update and cancel keys."""
    draw = Draw(ctx, rng)
    reducers = [monic(draw.terms(field, rng.randint(1, 8), 2), field)
                for _ in range(rng.randint(1, 12))]
    leads = [max(g) for g in reducers]
    index = ctx.index(zip(leads, reducers))
    f = draw.terms(field, rng.randint(1, 10), 5)
    for _ in range(rng.randint(0, 6)):  # whole multiples of reducers
        g, delta = rng.choice(reducers), draw.shift(2)
        c = field.coerce(rng.randint(1, 6))
        for k, v in g.items():
            f[k + delta] = f.get(k + delta, 0) + c * v
    f = {k: field.coerce(v) for k, v in f.items() if field.coerce(v)}
    return index, f


@pytest.mark.parametrize("fname", list(FIELDS))
@pytest.mark.parametrize("rname", list(RINGS))
@pytest.mark.parametrize("cname", list(CONTEXTS))
def test_heap_order_matches_the_max_loop(fname, rname, cname):
    field = FIELDS[fname]
    ctx = CONTEXTS[cname](RINGS[rname](field))
    p, guard = field.p, ctx.guard
    rng = random.Random(f"kernel nf:{fname}:{rname}:{cname}")
    reduced = 0
    for _ in range(40):
        index, f = draw_case(ctx, field, rng)
        n = len(index.leads)
        draw = Draw(ctx, rng)
        sig = draw.key(6)
        sigs = [None if rng.random() < 0.3 else draw.key(4) for _ in range(n)]
        rng.getrandbits(n)  # a draw kept so that later inputs stay the same
        for args in ((), (sig, sigs)):
            got = outcome(lambda: normal_form_terms(f, index, p, guard, *args))
            assert got == outcome(lambda: reference_normal_form(f, index, p, guard, *args))
            reduced += got != list(f.items())
    assert reduced > 40  # most inputs do get rewritten


def overflow_case(field, module):
    """y^2 * z^MAX_EXP against y^2 + z: the lead's multiple is the input
    term, and the tail's, z^(MAX_EXP + 1), overflows."""
    ring = RingPresentation(["x", "y", "z"], [1, 1, 1], field)
    ctx = ModuleContext(ring, 2, fhigh=1) if module else RingContext(ring)
    key = (lambda mono: ctx.key(0, mono)) if module else (lambda mono: mono)
    one = field.coerce(1)
    g = {key(ring.encode((0, 2, 0))): one, key(ring.encode((0, 0, 1))): one}
    f = {key(ring.encode((1, 0, 0))): one, key(ring.encode((0, 2, MAX_EXP))): one}
    return ctx, ctx.index([(max(g), g)]), f, g


@pytest.mark.parametrize("fname", list(FIELDS))
@pytest.mark.parametrize("module", [False, True])
def test_an_overflowing_merge_raises(fname, module):
    field = FIELDS[fname]
    ctx, index, f, g = overflow_case(field, module)
    with pytest.raises(DegreeOverflowError):
        reference_normal_form(f, index, field.p, ctx.guard)
    with pytest.raises(DegreeOverflowError):
        normal_form_terms(f, index, field.p, ctx.guard)
    with pytest.raises(DegreeOverflowError):
        axpy_terms({}, g, 1, max(f) - max(g), field.p, ctx.guard)


def test_a_normal_form_merges_inline(monkeypatch):
    """No ``axpy_terms`` call: each reducer multiple is merged in the loop."""
    calls = []

    def counting(*args):
        calls.append(args)
        return axpy_terms(*args)

    monkeypatch.setattr(_kernel, "axpy_terms", counting)
    field = FIELDS["GF(32003)"]
    ctx = CONTEXTS["module"](RINGS["plain"](field))
    rng = random.Random("inline")
    for _ in range(20):
        index, f = draw_case(ctx, field, rng)
        want = reference_normal_form(f, index, field.p, ctx.guard)
        assert list(normal_form_terms(f, index, field.p, ctx.guard).items()) == list(want.items())
    assert calls == []


# -- products, shifted sums and scalings -------------------------------------------


def reference_mul(a, b, p, one_key, guard):
    """The double loop ``mul_terms`` was, with a guard test per term."""
    out = {}
    if len(a) > len(b):
        a, b = b, a
    for ka, va in a.items():
        base = ka - one_key
        for kb, vb in b.items():
            nk = base + kb
            if nk & guard != guard:
                raise DegreeOverflowError("exponent overflow in term product")
            nv = out.get(nk, 0) + va * vb
            if p is not None:
                nv %= p
            if nv:
                out[nk] = nv
            else:
                out.pop(nk, None)
    return out


def reference_add_shifted(out, poly, shift=0, sign=1):
    """out += sign * t^shift * poly on integer polynomials keyed by degree."""
    for d, c in poly.items():
        v = out.get(d + shift, 0) + sign * c
        if v:
            out[d + shift] = v
        else:
            del out[d + shift]
    return out


def reference_scale(terms, c, p):
    if p is None:
        return {k: v * c for k, v in terms.items()}
    return {k: v * c % p for k, v in terms.items()}


def signed_terms(draw, field, count, top):
    """Terms with coefficients of both signs (fractions over Q), so that
    products and sums cancel."""
    rng = draw.rng
    out = {}
    for _ in range(count):
        c = field.coerce(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
        if c:
            out[draw.key(top)] = c
    return out


@pytest.mark.parametrize("fname", list(FIELDS))
@pytest.mark.parametrize("rname", list(RINGS))
def test_products_match_the_double_loop(fname, rname):
    field = FIELDS[fname]
    ring = RINGS[rname](field)
    p, one_key, guard = field.p, ring.one_key, ring.guard
    rng = random.Random(f"kernel mul:{fname}:{rname}")
    draw = Draw(RingContext(ring), rng)
    cancelled = 0
    for _ in range(150):
        a = signed_terms(draw, field, rng.choice([0, 1, 1, 2, 3, 5, 8]), 2)
        b = signed_terms(draw, field, rng.choice([0, 1, 2, 4, 6, 10]), 2)
        if rng.random() < 0.2:  # (a + v)(a - v): the cross terms cancel
            v = signed_terms(draw, field, 2, 2)
            a, b = dict(a), dict(a)
            axpy_terms(a, v, 1, 0, p, 0)
            axpy_terms(b, v, -1, 0, p, 0)
        for x, y in ((a, b), (b, a)):
            got = list(mul_terms(x, y, p, one_key, guard).items())
            assert got == list(reference_mul(x, y, p, one_key, guard).items())
            cancelled += len(got) < len({kx + ky for kx in x for ky in y})
    assert cancelled > 10


@pytest.mark.parametrize("fname", list(FIELDS))
def test_an_overflowing_product_raises(fname):
    """z^MAX_EXP * (x + z): only the second term's product overflows."""
    field = FIELDS[fname]
    ring = RINGS["plain"](field)
    one = field.coerce(1)
    a = {ring.encode((0, 0, MAX_EXP)): one}
    b = {ring.encode((1, 0, 0)): one, ring.encode((0, 0, 1)): one}
    for x, y in ((a, b), (b, a)):
        with pytest.raises(DegreeOverflowError):
            reference_mul(x, y, field.p, ring.one_key, ring.guard)
        with pytest.raises(DegreeOverflowError):
            mul_terms(x, y, field.p, ring.one_key, ring.guard)


@pytest.mark.parametrize("p", [7, 32003])
def test_a_multiple_of_p_adds_nothing(p):
    dst = {5: 1, 3: p - 1}
    axpy_terms(dst, {5: 2, 9: 1}, 3 * p, 1, p, 0)
    assert dst == {5: 1, 3: p - 1}


def test_shifted_sums_match_add_shifted():
    """Integer polynomials in t, negative degrees and shifts included, as the
    Hilbert bookkeeping of ``cak.resolve`` adds them."""
    rng = random.Random("kernel shifted sums")
    cancelled = 0
    for _ in range(400):
        out = {d: rng.choice([-2, -1, 1, 3]) for d in rng.sample(range(-4, 9), rng.randint(0, 6))}
        poly = {d: rng.choice([-3, -1, 1, 2]) for d in rng.sample(range(-3, 7), rng.randint(0, 5))}
        shift, sign = rng.randint(-5, 5), rng.choice([1, -1])
        if rng.random() < 0.2:  # out - t^0 * out: everything cancels
            poly, shift, sign = dict(out), 0, -1
        want = reference_add_shifted(dict(out), poly, shift, sign)
        got = dict(out)
        axpy_terms(got, poly, sign, shift, None, 0)
        assert list(got.items()) == list(want.items())
        cancelled += len(got) < len(set(out) | {d + shift for d in poly})
    assert cancelled > 40


@pytest.mark.parametrize("fname", list(FIELDS))
def test_scalings_match_the_comprehensions(fname):
    field = FIELDS[fname]
    ring = RINGS["weighted"](field)
    p = field.p
    rng = random.Random(f"kernel scale:{fname}")
    draws = Draw(RingContext(ring), rng), Draw(ModuleContext(ring, 3), rng)
    for _ in range(300):
        terms = signed_terms(rng.choice(draws), field, rng.choice([0, 1, 2, 5, 9]), 3)
        c = field.coerce(Fraction(rng.choice([-5, -1, 2, 3, 4, 6]), rng.randint(1, 4)))
        if not c:
            continue
        want = list(reference_scale(terms, c, p).items())
        assert list(scale_terms(terms, c, p).items()) == want
        f = Polynomial(ring, terms)
        assert list(f.scale(c).terms.items()) == want
        assert list((-f).terms.items()) == [(k, field.neg(v)) for k, v in terms.items()]
        if not terms:
            continue
        lc = terms[max(terms)]
        unit, inv = lc == field.coerce(1), field.inv(lc)
        want = terms if unit else reference_scale(terms, inv, p)
        assert list(_monic(terms, field).items()) == list(want.items())
        # an Echelon stores a new pivot row, and its combination, scaled by 1/lc
        ech, combo = Echelon(p), {0: c}
        assert ech.insert(dict(terms), dict(combo))
        row, row_combo = ech.rows[max(terms)]
        assert list(row.items()) == list(want.items())
        want_combo = combo if unit else reference_scale(combo, inv, p)
        assert list(row_combo.items()) == list(want_combo.items())


@pytest.mark.parametrize("field", list(FIELDS.values()), ids=list(FIELDS))
def test_axpy_by_zero_leaves_the_target(field):
    dst, src = {3: 1, 5: 2}, {3: 4, 7: 1}
    axpy_terms(dst, src, 0, 0, field.p, 0)
    axpy_terms(dst, src, Fraction(0) if field.p is None else field.p, 0, field.p, 0)
    assert dst == {3: 1, 5: 2}

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cak import (
    GF,
    QQ,
    DegreeOverflowError,
    Monomial,
    ParseError,
    PreconditionError,
    RingPresentation,
    parse_poly,
    render_poly,
)
from cak.polyring import MAX_EXP, _coeff_repr
from conftest import P


def test_parse_two_terms():
    ring = RingPresentation(["X", "Y", "Z"], [1, 1, 1])
    p = P(ring, "X^2 - Y*Z")
    assert len(p) == 2


def test_parse_zero():
    ring = RingPresentation(["X", "Y"], [1, 1])
    assert P(ring, "0").is_zero()


def test_parse_weighted_homogeneous_curve_relation(r1_ambient):
    p = P(r1_ambient, "X^7 - Z*W")
    assert p.homogeneous_degree() == 42


def test_parse_error_position():
    ring = RingPresentation(["X"], [1])
    with pytest.raises(ParseError) as exc:
        parse_poly("X + + Y", ring)
    assert exc.value.position == 4


def test_parse_unknown_variable():
    ring = RingPresentation(["X"], [1])
    with pytest.raises(ParseError, match="unknown variable 'Q'"):
        parse_poly("X + Q", ring)


def test_parse_negative_exponent():
    ring = RingPresentation(["X"], [1])
    with pytest.raises(ParseError, match="exponent"):
        parse_poly("X^-1", ring)


def test_weighted_degree_examples():
    ring = RingPresentation(["X", "Y"], [1, 1])
    assert P(ring, "X + Y").homogeneous_degree() == 1
    assert P(ring, "X + Y^2").homogeneous_degree() is None
    with pytest.raises(PreconditionError):
        ring.zero().homogeneous_degree()


def test_poly_arith_examples(kxy):
    assert P(kxy, "x + y") * P(kxy, "x - y") == P(kxy, "x^2 - y^2")
    assert P(kxy, "x + y") ** 0 == kxy.one()
    ring = RingPresentation(["X", "Y", "Z"], [1, 1, 1])
    f, g, h = ring.var("X"), ring.var("Y"), ring.var("Z")
    assert f * f - g * h == P(ring, "X^2 - Y*Z")
    with pytest.raises(PreconditionError):
        f ** -1


def test_compare_monomials():
    ring = RingPresentation(["X", "Y"], [1, 1])
    x2 = Monomial(ring, (2, 0))
    xy = Monomial(ring, (1, 1))
    assert x2.key() > xy.key()
    wring = RingPresentation(["X", "Y"], [6, 11])
    assert Monomial(wring, (0, 1)).key() > Monomial(wring, (1, 0)).key()
    assert xy.key() == Monomial(ring, (1, 1)).key()


def test_exponent_overflow_checked(kxy):
    with pytest.raises(DegreeOverflowError):
        kxy.encode((40000, 0))
    big = P(kxy, "x") ** 30000
    with pytest.raises(DegreeOverflowError):
        big * big  # 60000 > the 15-bit field bound
    from cak._kernel import axpy_terms

    key = big.lead_key()
    with pytest.raises(DegreeOverflowError):
        axpy_terms({}, big.terms, 1, key - kxy.one_key, kxy.field.p, kxy.guard)


def test_mixed_ring_operands_rejected(kxy, kxyz):
    from cak import RingMismatchError

    with pytest.raises(RingMismatchError):
        P(kxy, "x") + P(kxyz, "x")


def test_rational_field_arithmetic():
    ring = RingPresentation(["x"], [1], QQ)
    p = P(ring, "1/2*x + x")
    assert str(p) == "3/2*x"
    assert (p * P(ring, "2")) == P(ring, "3*x")


def test_monomial_rendering(kxy):
    assert str(P(kxy, "x^2*y - 3")) == "x^2*y - 3"
    assert str(P(kxy, "0")) == "0"
    assert str(-P(kxy, "x")) == "-x"


def reference_render(p):
    """The renderer that built a ``Monomial`` per term and formatted it with
    ``Monomial.__str__``; ``render_poly`` must give the same bytes."""
    if p.is_zero():
        return "0"
    ring = p.ring
    parts = []
    for k in sorted(p.terms, reverse=True):
        c = _coeff_repr(p.terms[k], ring.field)
        mono_s = str(Monomial(ring, ring.decode(k)))
        neg = c < 0
        c = -c if neg else c
        if mono_s == "1":
            body = str(c)
        elif c == 1:
            body = mono_s
        else:
            body = f"{c}*{mono_s}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


RENDER_RINGS = {
    "fp": RingPresentation(["x", "y", "z"], [1, 1, 1]),
    "gf7": RingPresentation(["a", "b"], [1, 1], GF(7)),
    "qq": RingPresentation(["x", "y", "z"], [1, 1, 1], QQ),
    "weighted": RingPresentation(["x", "y", "z"], [2, 3, 5]),
    # the fields of a, b sit above those of x, y: not in variable order
    "blocks": RingPresentation(["a", "b", "x", "y"], [1, 2, 1, 1], blocks=((0, 1), (2, 3))),
    "one-var": RingPresentation(["t"], [1], QQ),
}


@pytest.mark.parametrize("name", list(RENDER_RINGS))
def test_render_matches_the_monomial_renderer(name):
    ring = RENDER_RINGS[name]
    rng = random.Random(f"render {name}")
    n = len(ring.vars)

    def coeff():
        c = rng.choice([1, -1, 2, -3, rng.randint(-99, 99) or 5])
        return Fraction(c, rng.choice([1, 1, 2, 7])) if ring.field.p is None else c

    for _ in range(150):
        terms = [
            (tuple(rng.choice([0, 0, 0, 1, 2, 3, 12, MAX_EXP]) for _ in range(n)), coeff())
            for _ in range(rng.randint(0, 5))
        ]
        if rng.random() < 0.3:
            terms.append(((0,) * n, coeff()))  # a constant term
        p = ring.from_terms(terms)
        assert render_poly(p) == reference_render(p)
    for c in (0, 1, -1, 3, -3):
        assert render_poly(ring.constant(c)) == reference_render(ring.constant(c)) == str(c)


# -- property tests ------------------------------------------------------------


def _poly_strategy(ring, max_terms=4, max_exp=3):
    n = len(ring.vars)
    coeff = st.integers(min_value=-50, max_value=50)
    expo = st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * n)
    term = st.tuples(expo, coeff)
    return st.lists(term, max_size=max_terms).map(ring.from_terms)


RING_FP = RingPresentation(["x", "y"], [1, 1])
RING_Q = RingPresentation(["x", "y"], [1, 1], QQ)
RING_W = RingPresentation(["x", "y", "z"], [2, 3, 5])


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    ring=st.sampled_from([RING_FP, RING_Q, RING_W]),
)
def test_ring_axioms(data, ring):
    a = data.draw(_poly_strategy(ring))
    b = data.draw(_poly_strategy(ring))
    c = data.draw(_poly_strategy(ring))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ring.one() == a
    assert (a + (-a)).is_zero()
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(data=st.data(), ring=st.sampled_from([RING_FP, RING_Q, RING_W]))
def test_parse_render_round_trip(data, ring):
    p = data.draw(_poly_strategy(ring))
    assert parse_poly(render_poly(p), ring) == p


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_order_compatible_with_multiplication(data):
    ring = RING_W
    expo = st.tuples(*[st.integers(min_value=0, max_value=5)] * 3)
    a = ring.encode(data.draw(expo))
    b = ring.encode(data.draw(expo))
    c = ring.encode(data.draw(expo))
    if a == b:
        assert ring.mul_keys(a, c) == ring.mul_keys(b, c)
    elif a < b:
        assert ring.mul_keys(a, c) < ring.mul_keys(b, c)
    else:
        assert ring.mul_keys(a, c) > ring.mul_keys(b, c)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fp_matches_rationals_mod_p(data):
    p = 32003
    fp_ring = RingPresentation(["x", "y"], [1, 1], GF(p))
    q_ring = RingPresentation(["x", "y"], [1, 1], QQ)
    terms_a = data.draw(st.lists(
        st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-99, 99)),
        max_size=4,
    ))
    terms_b = data.draw(st.lists(
        st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-99, 99)),
        max_size=4,
    ))
    a_q, b_q = q_ring.from_terms(terms_a), q_ring.from_terms(terms_b)
    a_p, b_p = fp_ring.from_terms(terms_a), fp_ring.from_terms(terms_b)
    prod_q = a_q * b_q + a_q
    prod_p = a_p * b_p + a_p
    reduced = {
        k: int(v) % p for k, v in prod_q.terms.items() if int(v) % p
    }
    assert reduced == prod_p.terms


def test_divisibility_and_quotient_keys():
    ring = RingPresentation(["x", "y", "z"], [1, 2, 1])
    a = ring.encode((1, 0, 2))
    b = ring.encode((2, 1, 2))
    assert ring.mul_keys(a, ring.encode((1, 1, 0))) == b


@pytest.mark.parametrize(
    "ring",
    [
        RingPresentation(["x", "y", "z", "w"], [1, 1, 1, 1]),
        RingPresentation(["x", "y", "z"], [3, 1, 7]),
        RingPresentation(["t", "u", "x", "y", "z"], [2, 1, 5, 1, 3], blocks=((4, 1), (0, 2, 3))),
        RingPresentation(["x"], [1]),
    ],
    ids=["one-block", "weighted", "two-block", "one-variable"],
)
def test_lcm_key_matches_exponent_definition(ring):
    rng = random.Random(repr(ring))
    n = len(ring.vars)

    def expo():
        return tuple(
            rng.choice([0, 1, rng.randint(0, 40), rng.randint(0, MAX_EXP), MAX_EXP - 1, MAX_EXP])
            for _ in range(n)
        )

    for _ in range(1000):
        ea, eb = expo(), expo()
        want = ring.encode(tuple(max(a, b) for a, b in zip(ea, eb)))
        assert ring.lcm_key(ring.encode(ea), ring.encode(eb)) == want, (ea, eb)
        assert ring.lcm_key(ring.encode(eb), ring.encode(ea)) == want, (ea, eb)


def test_substitute(kxyz):
    p = P(kxyz, "x^2 + y")
    out = p.evaluate([P(kxyz, "z"), P(kxyz, "z^2"), P(kxyz, "z")], kxyz)
    assert out == P(kxyz, "2*z^2")


def test_float_coefficients_rejected(kxy):
    from cak import CakError

    with pytest.raises(CakError, match="floating-point"):
        kxy.constant(0.5)
    with pytest.raises(CakError, match="floating-point"):
        P(kxy, "x").scale(1.25)

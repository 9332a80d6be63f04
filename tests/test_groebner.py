import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cak import Polynomial, RingPresentation, parse_poly
from cak.errors import CakError, NotArtinianError, ResourceLimitError
from cak.groebner import (
    Budget,
    IdealHandle,
    ModuleContext,
    RingContext,
    RingMap,
    eliminate,
    ideal_ops,
    module_syzygies,
    ring_map_kernel,
    standard_monomials,
)
from conftest import P, PL, R1_RELATIONS, deadline


def gb_strs(handle, budget=None):
    return [str(g) for g in handle.groebner_basis(budget)]


def test_gb_example_pair(kxy):
    I = IdealHandle(kxy, PL(kxy, "x^2 - y; y^2"))
    assert set(gb_strs(I)) == {"x^2 - y", "y^2"}


def test_gb_zero_ideal(kxy):
    assert gb_strs(IdealHandle(kxy, [])) == []


def test_gb_square_of_maximal():
    ring = RingPresentation(["x1", "x2"], [1, 1])
    Q = IdealHandle(ring, PL(ring, "x1; x2"))
    assert set(gb_strs(Q.power(2))) == {"x1^2", "x1*x2", "x2^2"}


def test_powers_list_each_product_once():
    """a*b and b*a are one generator: (x1..x4)^2 has binom(5, 2) = 10
    generators and (x1..x4)^3 has binom(6, 3) = 20, in first-occurrence
    order; the product's basis is that of the power."""
    ring = RingPresentation(["x1", "x2", "x3", "x4"], [1] * 4)
    m = IdealHandle(ring, PL(ring, "x1; x2; x3; x4"))
    square = m.power(2)
    assert [str(g) for g in square.gens] == [
        "x1^2", "x1*x2", "x1*x3", "x1*x4", "x2^2", "x2*x3", "x2*x4", "x3^2", "x3*x4", "x4^2",
    ]
    assert len(m.power(3).gens) == 20
    assert len(set(m.power(3).gens)) == 20
    assert square.equal(m.product(m))


def test_products_are_charged_before_they_are_formed():
    """One unit per product of two generators: 16 for m*m, then 10 * 4
    more for m^3, whose square lists 10 generators; a budget one short
    stops the power."""
    ring = RingPresentation(["x1", "x2", "x3", "x4"], [1] * 4)
    m = IdealHandle(ring, PL(ring, "x1; x2; x3; x4"))
    budget = Budget()
    m.product(m, budget)
    assert budget.used == 16
    budget = Budget()
    assert len(ideal_ops("power", m, 3, budget).gens) == 20
    assert budget.used == 56
    with pytest.raises(ResourceLimitError):
        ideal_ops("power", m, 3, Budget(55))


def test_normal_form_examples(kxy):
    ring = RingPresentation(["x1", "x2"], [1, 1])
    Q2 = IdealHandle(ring, PL(ring, "x1; x2")).power(2)
    assert Q2.normal_form(P(ring, "x1*x2")).is_zero()
    assert IdealHandle(kxy, PL(kxy, "x; y")).normal_form(P(kxy, "1")) == kxy.one()
    I = IdealHandle(kxy, PL(kxy, "x^2 - y"))
    assert I.normal_form(P(kxy, "y^3")) == P(kxy, "y^3")


def test_ideal_ops_product_equals_power(kxy):
    I = IdealHandle(kxy, PL(kxy, "x; y"))
    assert ideal_ops("equal", I.product(I), I.power(2))


def test_ulrich_colon_identity(r1_ring):
    I = IdealHandle(r1_ring, PL(r1_ring, "X; Z; W"))
    q = IdealHandle(r1_ring, PL(r1_ring, "X"))
    assert ideal_ops("equal", ideal_ops("colon", q, I), I)


def test_colon_hypersurface(kxy):
    # (x*y) : (x) = (y) in k[x,y]
    I = IdealHandle(kxy, PL(kxy, "x*y"))
    J = IdealHandle(kxy, PL(kxy, "x"))
    assert ideal_ops("equal", I.colon(J), IdealHandle(kxy, PL(kxy, "y")))


def test_intersection(kxy):
    A = IdealHandle(kxy, PL(kxy, "x"))
    B = IdealHandle(kxy, PL(kxy, "y"))
    assert ideal_ops("equal", A.intersection(B), IdealHandle(kxy, PL(kxy, "x*y")))


def test_contains(kxy):
    I = IdealHandle(kxy, PL(kxy, "x; y"))
    J = IdealHandle(kxy, PL(kxy, "x^2 + y^2"))
    assert ideal_ops("contains", I, J)
    assert not ideal_ops("contains", J, I)


def test_eliminate_trivial():
    ring = RingPresentation(["t", "X"], [1, 1])
    out = eliminate(IdealHandle(ring, PL(ring, "t - X")), {"t"})
    assert out.is_zero()


def test_eliminate_cusp():
    ring = RingPresentation(["t", "X", "Y"], [1, 2, 3])
    out = eliminate(IdealHandle(ring, PL(ring, "X - t^2; Y - t^3")), {"t"})
    assert gb_strs(out) == ["X^3 - Y^2"]


def test_eliminate_weighted_binomial():
    ring = RingPresentation(["t", "X", "Y"], [1, 6, 11])
    out = eliminate(IdealHandle(ring, PL(ring, "X - t^6; Y - t^11")), {"t"})
    assert gb_strs(out) == ["X^11 - Y^6"]


def test_eliminate_idempotent():
    ring = RingPresentation(["t", "X", "Y"], [1, 2, 3])
    once = eliminate(IdealHandle(ring, PL(ring, "X - t^2; Y - t^3")), {"t"})
    again = eliminate(IdealHandle(once.ring, once.gens), set())
    assert [str(g) for g in again.groebner_basis()] == gb_strs(once)


def test_ring_map_kernel_monomial_curve(r1_ambient):
    target = RingPresentation(["t"], [1], r1_ambient.field)
    images = [target.var("t") ** a for a in (6, 11, 16, 26)]
    ker = ring_map_kernel(RingMap(r1_ambient, target, images))
    expected = IdealHandle(r1_ambient, PL(r1_ambient, R1_RELATIONS))
    assert IdealHandle(r1_ambient, [g.transfer(r1_ambient) for g in ker.gens]).equal(expected)


def test_ring_map_kernel_single_variable():
    src = RingPresentation(["X"], [1])
    tgt = RingPresentation(["t"], [1])
    ker = ring_map_kernel(RingMap(src, tgt, [tgt.var("t")]))
    assert ker.is_zero()


def test_ring_map_kernel_cusp():
    src = RingPresentation(["X", "Y"], [2, 3])
    tgt = RingPresentation(["t"], [1])
    ker = ring_map_kernel(RingMap(src, tgt, ["t^2", "t^3"]))
    assert gb_strs(ker) == ["X^3 - Y^2"]


def test_standard_monomials_examples(kxy):
    sq = IdealHandle(kxy, PL(kxy, "x^2; x*y; y^2"))
    render = lambda ring, keys: [str(Polynomial(ring, {k: 1})) for k in keys]
    assert render(kxy, standard_monomials(sq)) == ["1", "y", "x"]
    ring = RingPresentation(["X"], [1])
    assert render(ring, standard_monomials(IdealHandle(ring, PL(ring, "X^2")))) == ["1", "X"]


def test_standard_monomials_curve_quotient(r1_ring):
    I = IdealHandle(r1_ring, PL(r1_ring, "X; Z; W"))
    assert len(standard_monomials(I)) == 2


def test_standard_monomials_not_finite(kxy):
    with pytest.raises(NotArtinianError):
        standard_monomials(IdealHandle(kxy, PL(kxy, "x")))


def test_budget_fail_stop():
    ring = RingPresentation([f"x{i}" for i in range(1, 7)], [1] * 6)
    gens = [
        ring.var(f"x{i}") * ring.var(f"x{j}") - ring.var(f"x{(i + j) % 6 + 1}")
        for i in range(1, 6)
        for j in range(i, 6)
    ]
    with pytest.raises(ResourceLimitError):
        IdealHandle(ring, gens).groebner_basis(budget=3)


def test_budget_bounds_standard_monomial_enumeration(kxyz):
    # six Buchberger pairs and 478,801 standard monomials: the enumeration
    # must stop once the budget is spent
    ideal = IdealHandle(kxyz, PL(kxyz, "x^400; y^400; z^400; x*y*z"))
    with deadline(5), pytest.raises(ResourceLimitError):
        standard_monomials(ideal, Budget(50))


def test_module_lcm_keeps_the_component():
    ring = RingPresentation(["x", "y", "z"], [1, 2, 1])
    ctx = ModuleContext(ring, 3, fhigh=1)
    a, b = ring.encode((2, 0, 1)), ring.encode((0, 3, 1))
    want = ring.encode((2, 3, 1))
    for comp in range(3):
        assert ctx.lcm(ctx.key(comp, a), ctx.key(comp, b)) == ctx.key(comp, want)
    assert ctx.lcm(ctx.key(0, a), ctx.key(1, b)) is None


def test_a_module_rank_past_the_component_bits_is_refused():
    """The guard runs before anything is built, so no 2^32 components are
    needed to reach it."""
    ring = RingPresentation(["x"], [1])
    with pytest.raises(CakError, match="module rank too large"):
        ModuleContext(ring, 1 << ModuleContext.COMP_BITS)


def test_buchberger_criterion_on_output(kxyz):
    from cak._kernel import normal_form_terms

    I = IdealHandle(kxyz, PL(kxyz, "x^2 - y*z; y^2 - x*z; x*y - z^2"))
    gb = I.groebner_basis()
    ctx = RingContext(kxyz)
    leads = [g.lead_key() for g in gb]
    terms = [g.terms for g in gb]
    for a, b in itertools.combinations(range(len(gb)), 2):
        lcm = kxyz.lcm_key(leads[a], leads[b])
        s = {}
        from cak._kernel import axpy_terms

        axpy_terms(s, terms[a], 1, lcm - leads[a], kxyz.field.p, ctx.guard)
        axpy_terms(s, terms[b], -1, lcm - leads[b], kxyz.field.p, ctx.guard)
        nf = normal_form_terms(s, ctx.index(zip(leads, terms)), kxyz.field.p, ctx.guard)
        assert not nf


@settings(max_examples=12, deadline=None, derandomize=True)
@given(perm=st.permutations(list(range(4))))
def test_reduced_gb_canonical_under_permutation(perm):
    ring = RingPresentation(["X", "Y", "Z", "W"], [6, 11, 16, 26])
    gens = PL(ring, R1_RELATIONS) + [P(ring, "X^7 - Z*W")]
    base = gb_strs(IdealHandle(ring, gens[:4]))
    shuffled = [gens[i] for i in perm]
    assert gb_strs(IdealHandle(ring, shuffled)) == base


MEMBER_RING = RingPresentation(["x", "y"], [1, 1])
MEMBER_IDEAL = IdealHandle(MEMBER_RING, PL(MEMBER_RING, "x^2 - y; y^3"))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_membership_is_ideal_like(data):
    gb = MEMBER_IDEAL.groebner_basis()
    coeffs = data.draw(st.lists(
        st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-9, 9)),
        min_size=1, max_size=3,
    ))
    r = MEMBER_RING.from_terms(coeffs)
    a = gb[0] * r + gb[-1]
    assert MEMBER_IDEAL.normal_form(a).is_zero()


def test_syzygy_projection_generates_kernel(kxy):
    cols = [[P(kxy, "x")], [P(kxy, "y")], [P(kxy, "x + y")]]
    ctx = ModuleContext(kxy, len(cols))
    packed = [ModuleContext(kxy, 1).from_column(c) for c in cols]
    syz = [ctx.to_column(s) for s in module_syzygies(kxy, packed, nrows=1)]
    for col in syz:
        acc = kxy.zero()
        for coeff, (gen,) in zip(col, cols):
            acc = acc + coeff * gen
        assert acc.is_zero()
    assert len(syz) >= 2


def test_gb_over_rationals():
    from cak import QQ

    ring = RingPresentation(["x", "y"], [1, 1], QQ)
    I = IdealHandle(ring, PL(ring, "2*x^2 - y; 3*y^2"))
    assert set(gb_strs(I)) == {"x^2 - 1/2*y", "y^2"}
    assert I.normal_form(P(ring, "y^3")).is_zero()


GB_STRESS_RING = RingPresentation(["x", "y", "z"], [1, 2, 1])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_gb_self_certifies(data):
    """Every pairwise S-polynomial of the reduced basis reduces to zero and
    every input generator lies in the span (full Buchberger criterion)."""
    from cak._kernel import axpy_terms, normal_form_terms

    ring = GB_STRESS_RING
    ctx = RingContext(ring)
    n = len(ring.vars)
    terms_strategy = st.lists(
        st.tuples(st.tuples(*[st.integers(0, 2)] * n), st.integers(-9, 9)),
        min_size=1, max_size=3,
    )
    gens = [
        ring.from_terms(data.draw(terms_strategy))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    handle = IdealHandle(ring, gens)
    gb = handle.groebner_basis()
    leads = [g.lead_key() for g in gb]
    tdicts = [g.terms for g in gb]
    for g in gens:
        assert handle.normal_form(g).is_zero()
    for a in range(len(gb)):
        for b in range(a + 1, len(gb)):
            lcm = ring.lcm_key(leads[a], leads[b])
            s: dict = {}
            axpy_terms(s, tdicts[a], 1, lcm - leads[a], ring.field.p, ctx.guard)
            axpy_terms(s, tdicts[b], -1, lcm - leads[b], ring.field.p, ctx.guard)
            nf = normal_form_terms(s, ctx.index(zip(leads, tdicts)), ring.field.p, ctx.guard)
            assert not nf


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_syzygies_annihilate(data):
    """Each syzygy column composed with the matrix gives exactly zero."""
    ring = GB_STRESS_RING
    n = len(ring.vars)
    nrows = data.draw(st.integers(1, 2))
    ncols = data.draw(st.integers(1, 3))
    terms_strategy = st.lists(
        st.tuples(st.tuples(*[st.integers(0, 2)] * n), st.integers(-5, 5)),
        max_size=2,
    )
    cols = [
        [ring.from_terms(data.draw(terms_strategy)) for _ in range(nrows)]
        for _ in range(ncols)
    ]
    ctx = ModuleContext(ring, ncols)
    packed = [ModuleContext(ring, nrows).from_column(c) for c in cols]
    syz = [ctx.to_column(s) for s in module_syzygies(ring, packed, nrows=nrows)]
    for s_col in syz:
        for i in range(nrows):
            acc = ring.zero()
            for coeff, col in zip(s_col, cols):
                acc = acc + coeff * col[i]
            assert acc.is_zero()


# -- every error branch and the degenerate ideals ------------------------------


def test_ideal_handle_reads_text_and_refuses_other_rings(kxy, kxyz):
    from cak import CakError

    assert IdealHandle(kxy, ["x^2", "0", P(kxy, "y")]).gens == (P(kxy, "x^2"), P(kxy, "y"))
    with pytest.raises(CakError, match="ideal generator from a different ring"):
        IdealHandle(kxyz, [P(kxy, "x")])
    I, J = IdealHandle(kxy, ["x"]), IdealHandle(kxyz, ["x"])
    with pytest.raises(CakError, match="polynomial from a different ring"):
        I.normal_form(P(kxyz, "x"))
    for op in ("sum", "product", "intersection", "colon", "equal", "contains"):
        with pytest.raises(CakError, match="ideals live in different rings"):
            ideal_ops(op, I, J)


def test_ideal_ops_argument_errors(kxy):
    from cak import CakError, PreconditionError

    I = IdealHandle(kxy, ["x", "y"])
    with pytest.raises(PreconditionError, match="ideal power wants an exponent >= 1"):
        I.power(0)
    with pytest.raises(CakError, match="unknown ideal op 'xor'"):
        ideal_ops("xor", I, I)


@pytest.mark.parametrize("relations", [[], ["x^2 - y^2"]])
def test_intersection_with_and_colon_by_the_zero_ideal(relations):
    """I cap (0) is the zero ideal of R, J itself; I : (0) is the unit
    ideal, whether (0) is given by no generator or by the zero polynomial."""
    ring = RingPresentation(["x", "y"], [1, 1], relations=relations)
    I = IdealHandle(ring, ["x*y"])
    for zero in (IdealHandle(ring, []), IdealHandle(ring, ["0"])):
        assert [g.terms for g in I.intersection(zero).groebner_basis()] == [
            r.terms for r in ring.relations
        ]
        assert ideal_ops("colon", I, zero).groebner_basis() == [ring.one()]


def test_module_syzygies_of_no_columns(kxy):
    assert module_syzygies(kxy, [], nrows=2) == []


def test_eliminate_and_ring_map_errors(kxy, kxyz):
    from cak import CakError, QQ

    with pytest.raises(CakError, match=r"cannot drop unknown variables \['q', 't'\]"):
        eliminate(IdealHandle(kxy, ["x"]), ["t", "x", "q"])
    with pytest.raises(CakError, match="one image per source variable required"):
        RingMap(kxy, kxyz, ["x"])
    rational = RingPresentation(["t"], [1], QQ)
    with pytest.raises(CakError, match="source and target must share the coefficient field"):
        RingMap(kxy, rational, ["t", "t"])
    with pytest.raises(CakError, match="image from a different ring"):
        RingMap(kxy, kxyz, [P(kxy, "x"), P(kxy, "y")])
    rmap = RingMap(kxy, kxyz, ["x*z", "y"])
    assert rmap.apply(P(kxy, "x^2 - y")) == P(kxyz, "x^2*z^2 - y")
    with pytest.raises(CakError, match="polynomial from a different ring"):
        rmap.apply(P(kxyz, "x"))

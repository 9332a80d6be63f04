"""End-to-end verification suite behind the verify-paper subcommand: one
case per family of machine-checkable claims.

Every case is pure and independent; the suite runs them one after another
in id order, and reports are byte-identical for a fixed seed (timing fields
aside).  Each case gets its own fail-stop budget, and a case that exhausts
it is reported as failed rather than aborting the suite.
"""

from __future__ import annotations

import fnmatch
import itertools
import json
import random
import time
from dataclasses import dataclass, field

from .complexes import (
    betti_rank_formula,
    eagon_northcott,
    eagon_northcott_rank,
    verify_resolution,
)
from .detring import (
    det_reduction_sequence,
    generic_matrix,
    minors_ideal,
    power_parameter_matrix,
)
from .errors import ResourceLimitError
from .groebner import Budget, IdealHandle, RingMap, ring_map_kernel
from .polyring import RingPresentation, parse_poly_list
from .quotient import (
    QuotientRing,
    cyclic_presentation,
    ext_dims,
    free_module_presentation,
    is_free_module,
    quotient_of,
    residue_field_presentation,
    socle_dim,
    tor_dims,
)
from .resolve import (
    GradedFreeModule,
    PolyMatrix,
    PresentedModule,
    graded_rank_check,
    minimal_free_resolution,
)
from .semigroup import family_2x3_semigroup
from .ulrich import (
    _circulant_quotient,
    ar_instance_check,
    circulant_ulrich_family,
    is_ulrich,
    type_relation_check,
)

DEFAULT_SEED = 0

R1_EXPONENTS = (6, 11, 16, 26)
R1_RELATIONS = "X^7 - Z*W; Y^2 - X*Z; Z^2 - X*W; W^2 - X^6*Z"


def r1_ambient() -> RingPresentation:
    return RingPresentation(["X", "Y", "Z", "W"], R1_EXPONENTS)


def r1_presentation() -> RingPresentation:
    S = r1_ambient()
    return S.extend_relations(parse_poly_list(R1_RELATIONS, S))


def model_extension_ring(r: int, vprime: int, d: int):
    """Ambient k[X1..Xv', Z1..Zd] with the square-plus-linear defining ideal
    in the X-block; the Z-block supplies the d free parameters."""
    names = [f"X{i}" for i in range(1, vprime + 1)] + [f"Z{i}" for i in range(1, d + 1)]
    ring = RingPresentation(names, [1] * len(names))
    gens = []
    for i in range(r):
        for j in range(i, r):
            gens.append(ring.var(f"X{i + 1}") * ring.var(f"X{j + 1}"))
    for i in range(r, vprime):
        gens.append(ring.var(f"X{i + 1}"))
    return ring, gens


def random_form(ring, degree, rng, zero_chance=0.4):
    """Random homogeneous form of the given (weight-1) degree."""
    n = len(ring.vars)
    terms = []
    p = ring.field.p
    for combo in itertools.combinations_with_replacement(range(n), degree):
        if rng.random() < zero_chance:
            continue
        expo = [0] * n
        for i in combo:
            expo[i] += 1
        c = rng.randrange(1, p)
        terms.append((tuple(expo), c))
    return ring.from_terms(terms)


def random_presented_module(ring, rng, max_cols=2, max_degree=2) -> PresentedModule:
    """Small random graded cyclic-or-rank-2 module presentation."""
    rank = 1 if rng.random() < 0.7 else 2
    twists = (0,) * rank
    ncols = rng.randint(1, max_cols)
    cols = []
    for _ in range(ncols):
        deg = rng.randint(1, max_degree)
        cols.append([random_form(ring, deg, rng) for _ in range(rank)])
    amb = GradedFreeModule(ring, twists)
    return PresentedModule(ring, amb, PolyMatrix.from_columns(ring, rank, cols))


@dataclass
class CaseResult:
    id: str
    title: str
    passed: bool
    elapsed: float
    details: dict = field(default_factory=dict)
    error: str | None = None

    def as_dict(self, timing=True):
        out = {
            "id": self.id,
            "title": self.title,
            "passed": self.passed,
            "details": self.details,
            "error": self.error,
        }
        if timing:
            out["elapsed"] = round(self.elapsed, 3)
        return out


class Check:
    """Collects named assertions for one case."""

    def __init__(self):
        self.failures: list[str] = []
        self.details: dict = {}

    def expect(self, cond, message):
        if not cond:
            self.failures.append(message)

    def equal(self, got, want, label):
        if got != want:
            self.failures.append(f"{label}: got {got!r}, want {want!r}")


# -- cases ---------------------------------------------------------------------


def case_01_minimal_resolution(check: Check, seed, budget):
    """Minimal free resolution of the four-generated monomial curve has
    total Betti ranks (1, 4, 5, 2) and length 3."""
    S = r1_ambient()
    res = minimal_free_resolution(
        PresentedModule.cyclic(S, parse_poly_list(R1_RELATIONS, S)), budget=budget
    )
    check.equal(tuple(res.total_ranks()), (1, 4, 5, 2), "total ranks")
    check.equal(res.complex.length, 3, "length")
    check.expect(res.complete, "resolution should be complete")
    check.details["ranks"] = list(res.total_ranks())
    check.details["betti"] = res.betti.as_rows()


def case_02_betti_formula(check: Check, seed, budget):
    """Closed-formula ranks agree with computed resolutions across the
    (r, d, v-r-d) grid, and give (1,4,5,2) at (4,2,1)."""
    check.equal(betti_rank_formula(4, 2, 1), (1, 4, 5, 2), "formula (4,2,1)")
    grid = {}
    for r in (1, 2, 3):
        for d in (0, 1):
            for extra in (0, 1, 2):
                v = r + d + extra
                ring, gens = model_extension_ring(r, v - d, d)
                res = minimal_free_resolution(
                    PresentedModule.cyclic(ring, gens), budget=budget
                )
                want = betti_rank_formula(v, r, d)
                got = tuple(res.total_ranks())
                grid[f"v{v}_r{r}_d{d}"] = list(got)
                check.equal(got, want, f"(v,r,d)=({v},{r},{d})")
    check.details["grid"] = grid


def case_03_toric_kernel(check: Check, seed, budget):
    """The toric kernel of the (6,11,16,26) monomial map equals the stated
    four binomials, as ideals."""
    S = r1_ambient()
    target = RingPresentation(["t"], [1], S.field)
    images = [target.var("t") ** a for a in R1_EXPONENTS]
    kernel = ring_map_kernel(RingMap(S, target, images), budget)
    expected = IdealHandle(S, parse_poly_list(R1_RELATIONS, S))
    computed = IdealHandle(S, [g.transfer(S) for g in kernel.gens])
    check.expect(computed.equal(expected, budget), "kernel != expected ideal")
    check.details["kernel"] = [str(g) for g in computed.groebner_basis(budget)]


def case_04_ulrich_instances(check: Check, seed, budget):
    """Ulrich certification: the monomial-curve instance with its stated
    lengths, and three circulant-family instances with CI residue."""
    ring = r1_presentation()
    R = QuotientRing(ring)
    I = IdealHandle(ring, parse_poly_list("X; Z; W", ring))
    q = IdealHandle(ring, parse_poly_list("X", ring))
    rep = is_ulrich(R, I, q, 1, budget)
    check.expect(rep.is_ulrich, "monomial-curve instance not certified")
    check.equal(rep.len_R_mod_I, 2, "len(R/I)")
    check.equal(rep.mu_I, 3, "mu(I)")
    check.equal(rep.len_I_mod_q, 4, "len(I/q)")
    check.expect(rep.residue_complete_intersection, "R/I should be a CI")
    check.details["curve"] = rep.as_dict()

    S3 = RingPresentation(["X", "Y", "Z"], [1, 1, 1])
    _, rep1 = circulant_ulrich_family(S3, "X", "Y", "Z", budget=budget)
    check.expect(rep1.is_ulrich and rep1.residue_complete_intersection, "(X,Y,Z) instance")
    check.equal(rep1.len_R_mod_I, 1, "(X,Y,Z) len(R/I)")
    check.equal(rep1.len_I_mod_q, 2, "(X,Y,Z) len(I/q)")
    _, rep2, rep2b = circulant_ulrich_family(S3, "X^2", "Y", "Z", f1="X", budget=budget)
    check.expect(rep2.is_ulrich and rep2.residue_complete_intersection, "(X^2,Y,Z) instance")
    check.expect(rep2b.is_ulrich and rep2b.residue_complete_intersection, "(X,Y,Z) factor instance")
    _, rep3 = circulant_ulrich_family(S3, "X", "Y^2", "Z^3", budget=budget)
    check.expect(rep3.is_ulrich and rep3.residue_complete_intersection, "(X,Y^2,Z^3) instance")
    check.details["circulant"] = [rep1.as_dict(), rep2.as_dict(), rep2b.as_dict(), rep3.as_dict()]


def case_05_power_minors(check: Check, seed, budget):
    """(x1..xn)^l is the l x l minors ideal of the banded matrix, and the
    layer Q^i/Q^(i+1) has the binomial rank."""
    import math

    pairs = [(l, n) for l in (1, 2, 3) for n in (1, 2, 3)] + [(2, 4), (4, 2)]
    for l, n in pairs:
        ring = RingPresentation([f"x{i}" for i in range(1, n + 1)], [1] * n)
        Q = IdealHandle(ring, ring.gens())
        mat = power_parameter_matrix(l, n, ring)
        check.expect(
            minors_ideal(mat, l, budget=budget).equal(Q.power(l), budget),
            f"minors != Q^{l} for (l,n)=({l},{n})",
        )
    ranks = {}
    for n in (1, 2, 3):
        ring = RingPresentation([f"x{i}" for i in range(1, n + 1)], [1] * n)
        Q = IdealHandle(ring, ring.gens())
        for i in (1, 2, 3):
            mu = graded_rank_check(ring, Q, i, budget)
            ranks[f"n{n}_i{i}"] = mu
            check.equal(mu, math.comb(i + n - 1, n - 1), f"rank (n={n}, i={i})")
    check.details["layer_ranks"] = ranks


def case_06_eagon_northcott(check: Check, seed, budget):
    """Eagon-Northcott complexes verify as resolutions: generic 2 x q for
    q <= 4, and the banded matrices for (x1..xn)^2 with n <= 3."""
    import math

    for q in (2, 3, 4):
        ring, gm = generic_matrix(2, q)
        cx = eagon_northcott(gm, budget)
        want = tuple([1] + [k * math.comb(q, k + 1) for k in range(1, q)])
        check.equal(cx.ranks(), want, f"EN ranks 2x{q}")
        target = PresentedModule.cyclic(ring, minors_ideal(gm, 2, budget=budget).gens)
        rep = verify_resolution(cx, target, budget)
        check.expect(rep.ok, f"EN 2x{q} verification: {rep.messages}")
    for n in (1, 2, 3):
        ring = RingPresentation([f"x{i}" for i in range(1, n + 1)], [1] * n)
        mat = power_parameter_matrix(2, n, ring)
        cx = eagon_northcott(mat, budget)
        for k in range(len(cx.ranks())):
            check.equal(
                cx.ranks()[k], eagon_northcott_rank(2, n + 1, k), f"EN rank (2,n={n},k={k})"
            )
        Q2 = IdealHandle(ring, ring.gens()).power(2)
        rep = verify_resolution(cx, PresentedModule.cyclic(ring, Q2.gens), budget)
        check.expect(rep.ok, f"EN banded n={n} verification: {rep.messages}")


def case_07_type_relation(check: Check, seed, budget):
    """r(R) = (mu(I) - d) * r(R/I) on every certified instance."""
    ring = r1_presentation()
    R = QuotientRing(ring)
    I = IdealHandle(ring, parse_poly_list("X; Z; W", ring))
    q = IdealHandle(ring, parse_poly_list("X", ring))
    lhs, rhs, equal, mu = type_relation_check(R, I, q, 1, budget)
    check.expect(equal, f"curve instance: {lhs} != {rhs}")
    check.equal((lhs, rhs, mu), (2, 2, 3), "curve type relation data")

    S3 = RingPresentation(["X", "Y", "Z"], [1, 1, 1])
    results = {"curve": [lhs, rhs]}
    for name, fgh, f1 in (
        ("xyz", ("X", "Y", "Z"), None),
        ("x2yz", ("X^2", "Y", "Z"), "X"),
        ("xy2z3", ("X", "Y^2", "Z^3"), None),
    ):
        R, fgh_S = _circulant_quotient(S3, fgh)
        ring = R.presentation
        f, g, h = (p.transfer(ring) for p in fgh_S)
        I = IdealHandle(ring, [f, g, h])
        q = IdealHandle(ring, [f])
        lhs, rhs, equal, mu = type_relation_check(R, I, q, 1, budget)
        check.expect(equal, f"{name}: {lhs} != {rhs}")
        results[name] = [lhs, rhs]
        if f1 is not None:
            f1p = parse_poly_list(f1, ring)[0]
            I1 = IdealHandle(ring, [f1p, g, h])
            q1 = IdealHandle(ring, [f1p])
            lhs1, rhs1, equal1, _ = type_relation_check(R, I1, q1, 1, budget)
            check.expect(equal1, f"{name} factor instance: {lhs1} != {rhs1}")
    check.details["type_relation"] = results


DUALITY_RINGS = (
    ("x_cubed", ["X"], ["X^3"], ["X^2"]),
    ("x2y2", ["X", "Y"], ["X^2", "Y^2"], ["X", "Y^2"]),
    ("m_cubed", ["X", "Y"], ["X^3", "X^2*Y", "X*Y^2", "Y^3"], ["X", "Y^2"]),
)


def case_08_duality_transfer(check: Check, seed, budget):
    """Duality transfer suite over three Artinian rings with Gorenstein
    residue ideal I: Ext-vanishing against R/I forces Tor-vanishing, and
    Tor-vanishing makes Ext agree over R and over R/I."""
    bound = 6
    nonvacuous = 0
    for name, vars_, rels, ideal in DUALITY_RINGS:
        ring = RingPresentation(vars_, [1] * len(vars_), relations=rels)
        R = QuotientRing(ring)
        RI = quotient_of(ring, ideal)
        check.equal(socle_dim(RI, budget), 1, f"{name}: R/I must be Gorenstein")
        ri_as_module = cyclic_presentation(ring, ideal)
        rng = random.Random(f"{seed}:{name}:duality")
        modules = [random_presented_module(ring, rng) for _ in range(20)]
        modules.append(free_module_presentation(ring))
        modules.append(residue_field_presentation(ring))
        for idx, M in enumerate(modules):
            e = ext_dims(R, M, ri_as_module, bound, budget)
            t = tor_dims(R, M, ri_as_module, bound, budget)
            if all(x == 0 for x in e):
                check.expect(
                    all(x == 0 for x in t),
                    f"{name}#{idx}: Ext vanished but Tor = {t}",
                )
            if all(x == 0 for x in t):
                nonvacuous += 1
                # R/I has the layout of R: the packed columns carry over
                rels = PolyMatrix.packed(RI.presentation, M.relations.nrows, M.relations.cols)
                m_bar = PresentedModule(
                    RI.presentation, GradedFreeModule(RI.presentation, M.ambient.twists), rels
                )
                e_low = ext_dims(
                    RI, m_bar, free_module_presentation(RI.presentation), bound, budget
                )
                check.equal(e, e_low, f"{name}#{idx}: Ext over R vs over R/I")
    check.expect(nonvacuous >= 1, "suite never exercised the Tor-vanishing branch")
    check.details["nonvacuous"] = nonvacuous


def case_09_family_2x3(check: Check, seed, budget):
    """Four-generated semigroup family equals its determinantal-plus-quadric
    presentation for one full period n = 6..11."""
    matches = {}
    for n in range(6, 12):
        _, _, match = family_2x3_semigroup(n, budget=budget)
        matches[str(n)] = match
        check.expect(match, f"presentation mismatch at n={n}")
    check.details["matches"] = matches


def case_10_det_reduction(check: Check, seed, budget):
    """Reduction-sequence identity for (s,t) in {(2,3), (2,4), (3,5)}."""
    for s, t in ((2, 3), (2, 4), (3, 5)):
        forms, rep = det_reduction_sequence(s, t, budget=budget)
        check.expect(rep.equality, f"(s,t)=({s},{t}) reduction identity failed")
        check.details[f"s{s}t{t}_forms"] = len(forms)


AR_RINGS = (
    ("dual_numbers", ["X"], ["X^2"]),
    ("yz2_w2", ["Y", "Z", "W"], ["Y^2", "Y*Z", "Z^2", "W^2"]),
)


def case_11_ar_checker(check: Check, seed, budget):
    """Vanishing-implies-free instance checker: free module passes, residue
    field fails at i = 1, and 20 seeded random non-free modules per ring are
    never classified consistent_free (bound 10)."""
    bound = 10
    for name, vars_, rels in AR_RINGS:
        ring = RingPresentation(vars_, [1] * len(vars_), relations=rels)
        R = QuotientRing(ring)
        v_free = ar_instance_check(R, free_module_presentation(ring), bound, budget)
        check.equal(v_free.classification, "consistent_free", f"{name}: free module")
        v_k = ar_instance_check(R, residue_field_presentation(ring), bound, budget)
        check.equal(v_k.classification, "hypothesis_fails", f"{name}: residue field")
        check.expect(
            v_k.first_nonvanishing is not None and v_k.first_nonvanishing[0] == 1,
            f"{name}: residue field should fail at i=1",
        )
        rng = random.Random(f"{seed}:{name}:ar")
        produced = 0
        attempts = 0
        while produced < 20 and attempts < 400:
            attempts += 1
            M = random_presented_module(ring, rng)
            free, _ = is_free_module(R, M, budget)
            if free:
                continue
            produced += 1
            verdict = ar_instance_check(R, M, bound, budget)
            check.expect(
                verdict.classification != "consistent_free",
                f"{name}#{produced}: non-free module classified consistent_free",
            )
        check.equal(produced, 20, f"{name}: non-free sample count")
        check.details[f"{name}_attempts"] = attempts


CASES = [
    ("c01_minimal_resolution", case_01_minimal_resolution),
    ("c02_betti_formula", case_02_betti_formula),
    ("c03_toric_kernel", case_03_toric_kernel),
    ("c04_ulrich_instances", case_04_ulrich_instances),
    ("c05_power_minors", case_05_power_minors),
    ("c06_eagon_northcott", case_06_eagon_northcott),
    ("c07_type_relation", case_07_type_relation),
    ("c08_duality_transfer", case_08_duality_transfer),
    ("c09_family_2x3", case_09_family_2x3),
    ("c10_det_reduction", case_10_det_reduction),
    ("c11_ar_checker", case_11_ar_checker),
]


def run_case(case_id: str, fn, seed: int, budget_limit) -> CaseResult:
    check = Check()
    title = (fn.__doc__ or case_id).strip().split("\n")[0]
    start = time.perf_counter()
    error = None
    try:
        fn(check, seed, Budget(budget_limit))
    except ResourceLimitError as e:
        error = f"resource limit: {e}"
    except Exception as e:  # a case failure must not kill the suite
        error = f"{type(e).__name__}: {e}"
    elapsed = time.perf_counter() - start
    passed = error is None and not check.failures
    if check.failures:
        error = "; ".join(check.failures) if error is None else error
    return CaseResult(case_id, title, passed, elapsed, check.details, error)


@dataclass
class SuiteResult:
    seed: int
    cases: list[CaseResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def as_dict(self, timing=True):
        return {
            "seed": self.seed,
            "passed": self.passed,
            "cases": [c.as_dict(timing) for c in self.cases],
        }

    def to_json(self, timing=True) -> str:
        return json.dumps(self.as_dict(timing), indent=2, sort_keys=True)

    def summary(self) -> str:
        lines = []
        for c in self.cases:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"{mark}  {c.id}  ({c.elapsed:.2f}s)  {c.title}")
            if c.error:
                lines.append(f"      {c.error}")
        state = "all passed" if self.passed else "FAILURES"
        lines.append(f"{len([c for c in self.cases if c.passed])}/{len(self.cases)} cases passed ({state})")
        return "\n".join(lines)


def run_suite(pattern=None, seed=DEFAULT_SEED, budget=None) -> SuiteResult:
    results = [
        run_case(cid, fn, seed, budget)
        for cid, fn in CASES
        if pattern is None or fnmatch.fnmatch(cid, pattern)
    ]
    return SuiteResult(seed, results)

"""Ulrich ideal certification, structure-condition checks, the type
relation, model rings, the circulant determinantal family, and the
instance-level vanishing-implies-free checker.

Freeness of I/I^2 and I/q is decided by the length criterion: a surjection
from a free module of the right rank is bijective iff the lengths agree.
All lengths are standard-monomial counts in the ambient polynomial ring, so
every verdict is exact.  One handle per ideal: lengths, socles and the
residue complete-intersection test are read off the handles of I and q, so
no Groebner basis is completed twice and no quotient ring is built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .errors import NotArtinianError, PreconditionError
from .groebner import IdealHandle, _as_budget, standard_monomials
from .polyring import RingPresentation, parse_poly
from .quotient import (
    QuotientRing,
    _handle,
    _homology_dims,
    _socle,
    as_presentation,
    free_module_presentation,
    is_complete_intersection,
    is_free_module,
    minimal_generator_count,
    quotient_of,
)
from .resolve import (
    PresentedModule,
    is_regular_sequence,
    module_length,
)


def _parameter_basis(R, q: IdealHandle, d: int, budget):
    """Standard monomials of R/q when q is a parameter ideal of R: d = dim R
    generators, homogeneous of positive degree, with R/q Artinian; else
    None.  An Artinian R/q already bounds dim R by d (Krull's height
    theorem), so the dimension is read only when d > 0."""
    if len(q.gens) != d or not all(g.homogeneous_degree() for g in q.gens):
        return None
    try:
        basis = standard_monomials(q, budget)
    except NotArtinianError:
        return None
    R = R if isinstance(R, QuotientRing) else QuotientRing(q.ring)
    if d and R.dimension(budget) != d:
        return None
    return basis


def is_parameter_ideal(R, q, d: int, budget=None) -> bool:
    """True iff q has exactly d = dim R homogeneous generators of positive
    degree and R/q is Artinian."""
    q = _handle(as_presentation(R), q)
    return _parameter_basis(R, q, d, _as_budget(budget)) is not None


def _parameter_pair(R, I, q, d: int, budget):
    """The ring, both ideals as handles, the budget and the standard
    monomials of R/I and of R/q, once q is checked to be a parameter ideal
    of d generators contained in I."""
    ring = as_presentation(R)
    I = _handle(ring, I)
    q = _handle(ring, q)
    if I.gens == q.gens:  # one handle, so one basis, when I = q
        I = q
    budget = _as_budget(budget)
    basis_q = _parameter_basis(R, q, d, budget)
    if basis_q is None:
        raise PreconditionError("q is not a parameter ideal of the stated dimension")
    if not all(I.contains_poly(g, budget) for g in q.gens):
        raise PreconditionError("q is not contained in I")
    return ring, I, q, budget, standard_monomials(I, budget), basis_q


def _cover_rank(ring, I: IdealHandle, q: IdealHandle, len_RI: int, budget) -> int:
    """Rank of a minimal free cover of I/q over R/I: dim I/(q + mI)."""
    mI = [v * g for v in ring.gens() for g in I.gens]
    return module_length(IdealHandle(ring, q.gens + tuple(mI)), budget) - len_RI


@dataclass
class UlrichReport:
    """Certification record for a candidate Ulrich ideal."""

    q_is_parameter_reduction: bool
    I_not_q: bool
    I2_eq_qI: bool
    ImodI2_free: bool
    ImodI2_rank: int
    residue_complete_intersection: bool
    residue_gorenstein: bool
    len_R_mod_I: int
    len_I_mod_q: int
    mu_I: int

    @property
    def is_ulrich(self) -> bool:
        return self.I_not_q and self.I2_eq_qI and self.ImodI2_free

    def as_dict(self):
        return {"is_ulrich": self.is_ulrich, **asdict(self)}


def is_ulrich(R, I, q, d: int, budget=None) -> UlrichReport:
    """Certify the Ulrich conditions for I with the supplied reduction q.

    Preconditions: q is a parameter ideal of d homogeneous generators with
    Artinian quotient, and q is contained in I.
    """
    ring, I, q, budget, basis_I, basis_q = _parameter_pair(R, I, q, d, budget)

    len_RI = len(basis_I)
    mu = minimal_generator_count(ring, I.gens, budget)

    I2 = I.power(2)
    qI = I2 if q is I else q.product(I) if q.gens else q
    i2_eq_qi = I2.equal(qI, budget)
    i_not_q = not I.equal(q, budget)

    len_RI2 = module_length(I2, budget)
    free = (len_RI2 - len_RI) == mu * len_RI

    ci, _v, _mu = is_complete_intersection(ring, I, budget)
    gor = _socle(I, basis_I, budget) == 1

    return UlrichReport(
        q_is_parameter_reduction=i2_eq_qi,
        I_not_q=i_not_q,
        I2_eq_qI=i2_eq_qi,
        ImodI2_free=free,
        ImodI2_rank=mu,
        residue_complete_intersection=ci,
        residue_gorenstein=gor,
        len_R_mod_I=len_RI,
        len_I_mod_q=len(basis_q) - len_RI,
        mu_I=mu,
    )


@dataclass
class StructureReport:
    """Checks for the parameter-square presentation conditions: I^2 inside a
    parameter ideal q strictly below I, I/q free over R/I, and R/I a
    complete intersection."""

    i2_in_q: bool
    q_proper_in_I: bool
    ImodQ_free: bool
    ImodQ_rank: int
    residue_complete_intersection: bool
    len_R_mod_I: int
    len_I_mod_q: int

    @property
    def ok(self) -> bool:
        return (
            self.i2_in_q
            and self.q_proper_in_I
            and self.ImodQ_free
            and self.residue_complete_intersection
        )

    def as_dict(self):
        return {"ok": self.ok, **asdict(self)}


def check_structure_conditions(R, I, q, d: int, budget=None) -> StructureReport:
    ring, I, q, budget, basis_I, basis_q = _parameter_pair(R, I, q, d, budget)

    i2_in_q = all(q.contains_poly(g, budget) for g in I.power(2).gens)
    q_proper = not I.equal(q, budget)
    len_RI = len(basis_I)
    len_ImodQ = len(basis_q) - len_RI
    rank = _cover_rank(ring, I, q, len_RI, budget)
    free = i2_in_q and len_ImodQ == rank * len_RI
    ci, _v, _mu = is_complete_intersection(ring, I, budget)
    return StructureReport(
        i2_in_q=i2_in_q,
        q_proper_in_I=q_proper,
        ImodQ_free=free,
        ImodQ_rank=rank,
        residue_complete_intersection=ci,
        len_R_mod_I=len_RI,
        len_I_mod_q=len_ImodQ,
    )


def type_relation_check(R, I, q, d: int, budget=None):
    """Compare r(R) with (mu(I) - d) * r(R/I) after verifying that q sits
    inside I as part of a minimal generating set, I^2 is inside q, and I/q
    is free over R/I.  Returns (lhs, rhs, equal, mu)."""
    ring, I, q, budget, basis_I, basis_q = _parameter_pair(R, I, q, d, budget)

    len_RI = len(basis_I)
    mu = minimal_generator_count(ring, I.gens, budget)
    if mu - _cover_rank(ring, I, q, len_RI, budget) != d:
        raise PreconditionError(
            "q generators are not part of a minimal generating set of I"
        )
    if not all(q.contains_poly(g, budget) for g in I.power(2).gens):
        raise PreconditionError("I^2 is not contained in q")
    if (len(basis_q) - len_RI) != (mu - d) * len_RI:
        raise PreconditionError("I/q is not free over R/I (length mismatch)")

    lhs = _socle(q, basis_q, budget)
    rhs = (mu - d) * _socle(I, basis_I, budget)
    return lhs, rhs, lhs == rhs, mu


def ulrich_model_ring(r: int, v: int):
    """The Artinian model k[X_1..X_v]/[(X_1..X_r)^2 + (X_{r+1}..X_v)],
    together with the ideal I = (X_1..X_r).  For 1 <= r <= v this carries
    the square-zero Ulrich-style ideal with complete-intersection residue."""
    if not 1 <= r <= v:
        raise PreconditionError("need 1 <= r <= v")
    names = [f"X{i}" for i in range(1, v + 1)]
    base = RingPresentation(names, [1] * v)
    rels = []
    for i in range(r):
        for j in range(i, r):
            rels.append(base.var(names[i]) * base.var(names[j]))
    for i in range(r, v):
        rels.append(base.var(names[i]))
    ring = base.extend_relations(rels)
    R = QuotientRing(ring)
    I = IdealHandle(ring, [ring.var(names[i]) for i in range(r)])
    return R, I


def _circulant_quotient(S: RingPresentation, fgh):
    """S modulo the 2x2 minors of [[f, g, h], [h, f, g]], and f, g, h as
    polynomials of S (parsed when given as strings)."""
    f, g, h = (parse_poly(p, S) if isinstance(p, str) else p for p in fgh)
    return quotient_of(S, [f * f - g * h, g * g - h * f, h * h - f * g]), (f, g, h)


def circulant_ulrich_family(S: RingPresentation, f, g, h, f1=None, budget=None):
    """Quotient by the 2x2 minors of [[f, g, h], [h, f, g]], i.e. by
    (f^2 - g*h, g^2 - h*f, h^2 - f*g), for a homogeneous regular sequence
    f, g, h.  Certifies I = (f, g, h) with reduction (f); when a factor f1
    of f is supplied, also certifies I1 = (f1, g, h) with reduction (f1).

    Returns (R, report) or (R, report, report1).
    """
    budget = _as_budget(budget)
    R, (f, g, h) = _circulant_quotient(S, (f, g, h))
    if not is_regular_sequence(S, [f, g, h], budget):
        raise PreconditionError("f, g, h is not a regular sequence of length 3")
    ring = R.presentation
    lift = lambda *ps: IdealHandle(ring, [p.transfer(ring) for p in ps])
    report = is_ulrich(R, lift(f, g, h), lift(f), 1, budget)
    if f1 is None:
        return R, report
    f1 = parse_poly(f1, S) if isinstance(f1, str) else f1
    if not IdealHandle(S, [f1]).contains_poly(f, budget):
        raise PreconditionError("f1 does not divide f")
    return R, report, is_ulrich(R, lift(f1, g, h), lift(f1), 1, budget)


@dataclass
class ArVerdict:
    """Outcome of the bounded vanishing-implies-free instance check."""

    bound: int
    module_free: bool
    first_nonvanishing: tuple[int, str] | None
    ext_self: list[int] = field(default_factory=list)
    ext_ring: list[int] = field(default_factory=list)

    @property
    def classification(self) -> str:
        if self.first_nonvanishing is not None:
            return "hypothesis_fails"
        return "consistent_free" if self.module_free else "counterexample_candidate"

    def as_dict(self):
        return {
            "bound": self.bound,
            "module_free": self.module_free,
            "first_nonvanishing": list(self.first_nonvanishing)
            if self.first_nonvanishing
            else None,
            "classification": self.classification,
            "ext_self": list(self.ext_self),
            "ext_ring": list(self.ext_ring),
        }


def ar_instance_check(R, module: PresentedModule, bound: int, budget=None) -> ArVerdict:
    """Check Ext^i(M, M) and Ext^i(M, R) for i = 1..bound over an Artinian
    quotient, stopping at the first nonvanishing group.  Classification:
    hypothesis_fails when some Ext is nonzero, consistent_free when all
    vanish and M is free, counterexample_candidate otherwise (with the
    bound recorded; no proof claim is made)."""
    ring = as_presentation(R)
    budget = _as_budget(budget)
    if bound < 1:
        raise PreconditionError("bound must be >= 1")
    free, _rank = is_free_module(R, module, budget)
    verdict = ArVerdict(bound=bound, module_free=free, first_nonvanishing=None)
    ext_self = _homology_dims(R, module, module, 1, bound + 1, budget)
    ext_ring = _homology_dims(R, module, free_module_presentation(ring), 1, bound + 1, budget)
    for i, (e_self, e_ring) in enumerate(zip(ext_self, ext_ring), start=1):
        verdict.ext_self.append(e_self)
        verdict.ext_ring.append(e_ring)
        if e_self:
            verdict.first_nonvanishing = (i, "Ext(M,M)")
            break
        if e_ring:
            verdict.first_nonvanishing = (i, "Ext(M,R)")
            break
    return verdict

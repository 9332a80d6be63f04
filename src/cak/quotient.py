"""Homological algebra over quotient rings R = S/J.

Membership and normal forms over R take place in the S-lift: a submodule
of R^r is computed as the submodule of S^r that contains J*S^r, whose
generators J*e_i come from ``groebner.relation_multiples``.  The
finite-length view of a module, an `ArtinianModule` (see :mod:`cak.resolve`),
reads its standard basis off such an engine, or off the handle of J when
the module is free.  Minimal R-free resolutions over a graded Artinian R
are linear algebra on the standard monomials of R (see :mod:`cak.resolve`);
over other quotients they read syzygies in S of the columns together with
J*e_i.  Ext and Tor are finite-dimensional linear algebra over the
coefficient field on a standard-monomial basis, so R (and the second
argument) must be Artinian; positive-dimensional inputs are first cut down
by an explicit parameter sequence, as the certification workflows do.
Every rank (Hom, Tensor, socle) is taken by the one sparse echelon form of
:mod:`cak._linalg`, at one budget unit per vector, a zero vector charged by
its caller without an insertion; the Hom and Tensor matrices are assembled
from each differential's entries, decoded once per matrix.  The socle and
the complete-intersection test of S/K read the handle of K and build no
second quotient ring: S/K is a complete intersection iff mu(K) = n = ht K,
counted on the basis the handle caches.

Each datum has one owner that computes it once, charged to the call that
does: the ring owns the handle of J (``groebner.relations_ideal``) and R as
a module (``PresentedModule.free``), a handle its basis, standard monomials
and monomial normal forms (read by the socle and by R's view), and a module
its resolution (extended on demand by Ext, Tor and Tor_0) and its view
(``PresentedModule.target``), the Ext/Tor target; R's view is also the one
that every Artinian resolution step over R reads.
"""

from __future__ import annotations

import itertools

from ._linalg import Echelon, matrix_rank
from .errors import CakError, NotArtinianError, PreconditionError, RingMismatchError
from .groebner import (
    IdealHandle,
    _as_budget,
    lead_exponents,
    minimal_generator_count,
    relations_ideal,
    standard_monomials,
)
from .polyring import Polynomial, RingPresentation, parse_poly
from .resolve import (
    ArtinianModule,
    PolyMatrix,
    PresentedModule,
    hilbert_numerator,
    module_standard_basis,  # kept under this module's name, as its callers use it
)


def as_presentation(R) -> RingPresentation:
    return R.presentation if isinstance(R, QuotientRing) else R


def _handle(ring, gens) -> IdealHandle:
    if isinstance(gens, IdealHandle):
        return gens
    return IdealHandle(ring, gens)


class QuotientRing:
    """Ring presentation with relations, plus its cached dimension.  The
    ``defining_ideal`` is the presentation's one handle of its relations,
    whose basis and standard monomials (read by the standard basis, the
    socle and the dimension) are computed and charged once."""

    __slots__ = ("presentation", "defining_ideal", "_dim")

    def __init__(self, presentation: RingPresentation):
        self.presentation = presentation
        self.defining_ideal = relations_ideal(presentation)
        self._dim = None

    def dimension(self, budget=None) -> int:
        """Krull dimension (-1 for the zero ring), computed once: n minus
        the order of (1 - t) in the Hilbert numerator of the lead-term ideal
        of the relations, which has the same dimension, so inhomogeneous
        relations are fine."""
        if self._dim is None:
            ring = self.presentation
            leads = lead_exponents(self.defining_ideal, budget)
            num = hilbert_numerator(leads, ring.weights, budget)
            coeffs = [num.get(i, 0) for i in range(max(num, default=-1) + 1)]
            order = 0
            while coeffs and not sum(coeffs):
                # divide by 1 - t: the partial sums, the last of which is 0
                coeffs = list(itertools.accumulate(coeffs))[:-1]
                order += 1
            self._dim = len(ring.vars) - order if coeffs else -1
        return self._dim

    def standard_basis(self, budget=None):
        """Keys of the standard monomials of the defining ideal, sorted
        (Artinian case)."""
        return _standard_basis(self.defining_ideal, budget)

    def __repr__(self):
        return f"QuotientRing({self.presentation!r})"


def _standard_basis(ideal: IdealHandle, budget) -> tuple:
    """Keys of the standard monomials of ring/(ideal + relations), which
    must be Artinian and nonzero."""
    if ideal.is_unit(budget):
        raise CakError("relations generate the unit ideal")
    return tuple(standard_monomials(ideal, budget))


def quotient_of(R, extra) -> QuotientRing:
    """R/(extra) as a new quotient presentation."""
    ring = as_presentation(R)
    return QuotientRing(ring.extend_relations(extra))


# -- basic invariants ---------------------------------------------------------


def _linear_rank(ring, polys, budget=None) -> int:
    """Rank of the linear parts (the coefficients of the variables)."""
    unit_keys = [ring.var_key(i) for i in range(len(ring.vars))]
    rows = [row for row in ([p.terms.get(k, 0) for k in unit_keys] for p in polys) if any(row)]
    return matrix_rank(rows, ring.field.p, budget)


def embedding_dim(R, budget=None) -> int:
    """dim m/m^2: variables minus the rank of the relations' linear parts."""
    ring = as_presentation(R)
    return len(ring.vars) - _linear_rank(ring, ring.relations, budget)


def socle_dim(R, budget=None) -> int:
    """Dimension of (0 : m) in an Artinian quotient."""
    R = R if isinstance(R, QuotientRing) else QuotientRing(as_presentation(R))
    budget = _as_budget(budget)
    return _socle(R.defining_ideal, R.standard_basis(budget), budget)


def _socle(ideal: IdealHandle, basis, budget) -> int:
    """Socle dimension of ring/(ideal + relations), whose standard monomial
    keys are ``basis``: the normal forms of the standard monomials times every
    variable, one row per monomial, have rank dim - socle."""
    ring = ideal.ring
    index = {k: i for i, k in enumerate(basis)}
    ech = Echelon(ring.field.p, budget)
    for k in index:
        row = {}
        for i in range(len(ring.vars)):
            for key, c in ideal.monomial_normal_form(ring.mul_keys(ring.var_key(i), k), budget):
                row[i * len(basis) + index[key]] = c
        ech.insert(row)
    return len(basis) - ech.rank


def cm_type(R, params, budget=None) -> int:
    """Cohen-Macaulay type via the socle of the Artinian reduction R/(params).

    ``params`` must be a homogeneous system of parameters; this is validated
    by the Artinian check after cutting.
    """
    ring = as_presentation(R)
    budget = _as_budget(budget)
    params = [p if isinstance(p, Polynomial) else parse_poly(p, ring) for p in params]
    for p in params:
        if p.is_zero() or p.homogeneous_degree() is None:
            raise PreconditionError("parameters must be nonzero homogeneous")
    cut = IdealHandle(ring, params)
    try:
        basis = _standard_basis(cut, budget)
    except NotArtinianError:
        raise PreconditionError(
            "params are not a system of parameters (quotient not Artinian)"
        ) from None
    return _socle(cut, basis, budget)


# -- module presentations over R ---------------------------------------------


def is_free_module(R, module: PresentedModule, budget=None):
    """(True, rank) iff the module's minimal resolution ends at length 0
    (``known_at``): a nonzero normal-form relation column never lies in
    J*F, so one survives into d_1 whenever the module is not free."""
    if module.ring is not as_presentation(R):
        raise RingMismatchError("module is not presented over the given ring")
    builder = module.resolution(budget)
    if builder.known_at == 0:
        return True, builder.rank(0)
    return False, None


def _homology_dims(R, module, against, start: int, stop: int, budget, *, tensor=False):
    """Yield dim_k H_i of Hom(F, N), or of F (x) N with ``tensor``, for
    i = start .. stop - 1, where F is the module's minimal resolution over
    R and N is ``against``, whose view (``PresentedModule.target``) is built
    once per module object.  F is extended only as far as the caller consumes."""
    ring = as_presentation(R)
    if module.ring is not ring or against.ring is not ring:
        raise RingMismatchError("modules are not presented over the given ring")
    builder = module.resolution(budget)
    target = against.target(budget)
    rank_of = _tensor_rank if tensor else _hom_rank

    def induced_rank(i):
        """Rank of the map induced by d_i (d_0 = 0)."""
        if i == 0:
            return 0
        builder.extend(i, budget)
        return rank_of(builder.differential(i), builder.rank(i - 1), builder.rank(i), target, budget)

    below = induced_rank(start)
    for i in range(start, stop):
        above = induced_rank(i + 1)
        yield target.dim * builder.rank(i) - below - above
        below = above


def ext_dims(R, module: PresentedModule, against: PresentedModule, bound: int, budget=None):
    """dim_k Ext^i(M, N) for i = 1..bound over the Artinian quotient."""
    if bound < 1:
        raise PreconditionError("bound must be >= 1")
    return list(_homology_dims(R, module, against, 1, bound + 1, _as_budget(budget)))


def _hom_rank(mat: PolyMatrix, r_lo: int, r_hi: int, target: ArtinianModule, budget) -> int:
    """Rank of Hom(d, N): Hom(F_lo, N) -> Hom(F_hi, N), one sparse row per
    (basis vector j of F_lo, basis element b of N) over the coordinates
    (basis vector c of F_hi, basis element of N): row j of d times b."""
    return _assembled_rank(mat, r_lo, r_hi, target, budget, by_rows=True)


def tor_dims(R, module: PresentedModule, against: PresentedModule, bound: int, budget=None):
    """dim_k Tor_i(M, N) for i = 1..bound over the Artinian quotient."""
    if bound < 1:
        raise PreconditionError("bound must be >= 1")
    return list(_homology_dims(R, module, against, 1, bound + 1, _as_budget(budget), tensor=True))


def _tensor_rank(mat: PolyMatrix, r_lo: int, r_hi: int, target: ArtinianModule, budget) -> int:
    """Rank of d (x) N : N^(r_hi) -> N^(r_lo): the Hom assembly along the
    columns of d instead of its rows."""
    return _assembled_rank(mat, r_hi, r_lo, target, budget, by_rows=False)


def _assembled_rank(mat: PolyMatrix, n_lines: int, width: int, target, budget, by_rows: bool) -> int:
    """Rank of the matrix with one sparse row per (line of d, basis element
    b of N), a line being a row of d (``by_rows``) or a column: for every
    entry e of the line, the coordinates of e * b at (position of e in the
    line, basis element of N).  The entries are d's own term sets
    (``PolyMatrix.grid``), on which ``basis_times`` caches; a row that
    vanishes is charged its unit without an insertion."""
    dim = target.dim
    if n_lines == 0 or width == 0 or dim == 0:
        return 0
    lines: list = [[] for _ in range(n_lines)]
    for (i, j), f in mat.grid().items():
        line, pos = (i, j) if by_rows else (j, i)
        lines[line].append((pos * dim, f))
    ech, zeros, times = Echelon(target.p, budget), 0, target.basis_times
    for line in lines:
        for b in range(dim):
            row = {}
            for base, f in line:
                for t, v in times(f, b):
                    row[base + t] = v
            zeros += not row
            if row:
                ech.insert(row)
    budget.spend(zeros)
    return ech.rank


def tor_zero_dim(R, module: PresentedModule, against: PresentedModule, budget=None) -> int:
    """dim_k (M tensor N) = dim Tor_0."""
    return next(_homology_dims(R, module, against, 0, 1, _as_budget(budget), tensor=True))


def free_module_presentation(R, rank: int | None = None, twists=None) -> PresentedModule:
    """R^rank in degrees ``twists`` (all 0 by default); R itself is one
    module per ring (``PresentedModule.free``), with one resolution and view."""
    ring = as_presentation(R)
    twists = (0,) * (1 if rank is None else rank) if twists is None else tuple(twists)
    if rank is not None and rank != len(twists):
        raise PreconditionError(f"rank {rank} disagrees with {len(twists)} twists")
    return PresentedModule.free(ring, twists)


def residue_field_presentation(R) -> PresentedModule:
    ring = as_presentation(R)
    return PresentedModule.cyclic(ring, ring.gens())


def cyclic_presentation(R, gens) -> PresentedModule:
    ring = as_presentation(R)
    gens = [parse_poly(g, ring) if isinstance(g, str) else g for g in gens]
    return PresentedModule.cyclic(ring, gens)


# -- complete intersections by the height test --------------------------------


def is_complete_intersection(ring: RingPresentation, extra_gens=(), budget=None):
    """Whether ring/(relations + extra) is an Artinian complete intersection:
    K = relations + extra is then m-primary in S = k[x_1..x_n], so S/K is
    one iff mu(K) = n = ht K (Bruns-Herzog 2.3).  mu(K) is counted over S on
    the reduced basis that the handle of K (``extra_gens`` may be one)
    caches, so K must be homogeneous.  Returns (flag, embdim, mu): embdim is
    n - rank of the linear parts of K, and mu = mu(K) - (n - embdim)."""
    budget = _as_budget(budget)
    K = _handle(ring, extra_gens)
    _standard_basis(K, budget)  # raises unless ring/K is Artinian and nonzero
    ambient = ring.polynomial_ambient()
    basis = [g.transfer(ambient) for g in K.groebner_basis(budget)]
    mu = minimal_generator_count(ambient, basis, budget)
    n = len(ring.vars)
    v = n - _linear_rank(ring, basis, budget)
    return mu == n, v, mu - (n - v)

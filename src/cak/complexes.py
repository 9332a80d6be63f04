"""Eagon-Northcott complexes, with the Koszul complex of a sequence as the
Eagon-Northcott complex of its 1 x m matrix, tensor products of complexes,
the closed Betti-rank formula, and certified resolution verification.

All complexes carry explicit differentials (not just rank bookkeeping) so
that d o d = 0 and exactness can be checked on the nose.  Basis orderings
are lexicographic on index tuples throughout, which fixes every sign.  The
Eagon-Northcott and tensor sign rules make d o d = 0 by construction, so no
complex is multiplied out when it is built: `ChainComplex.composition_defect`
and `verify_resolution` check d o d, never the constructor.  Each map is
written as packed columns (`PolyMatrix.packed`): a column's entries are
placed where they land, with no dense grid of polynomials.
"""

from __future__ import annotations

import itertools
import math

from .errors import CakError, PreconditionError
from .groebner import (
    ModuleContext,
    _as_budget,
    _rank_one,
    module_membership_engine,
    module_syzygies,
)
from .polyring import Polynomial, RingPresentation
from .resolve import (
    ChainComplex,
    GradedFreeModule,
    PolyMatrix,
    PresentedModule,
    alternating_twist_sum,
    lead_module_hilbert_numerator,
)


class GenericMatrix:
    """A matrix of homogeneous polynomials with consistent row and column
    degrees (entry (i, j) homogeneous of degree col_deg[j] - row_deg[i])."""

    __slots__ = ("ring", "entries", "nrows", "ncols", "row_degrees", "col_degrees")

    def __init__(self, ring, entries):
        self.ring = ring
        self.entries = tuple(tuple(row) for row in entries)
        self.nrows = len(self.entries)
        self.ncols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.ncols:
                raise CakError("ragged matrix")
        row_degrees, col_degrees = self._solve_degrees()
        self.row_degrees = tuple(row_degrees)
        self.col_degrees = tuple(col_degrees)

    @classmethod
    def _row(cls, ring, elems, degrees) -> "GenericMatrix":
        """The 1 x m matrix of nonzero forms whose degrees are known: its
        row has degree 0 and its columns the forms' degrees."""
        self = object.__new__(cls)
        self.ring, self.entries = ring, (tuple(elems),)
        self.nrows, self.ncols = 1, len(self.entries[0])
        self.row_degrees, self.col_degrees = (0,), tuple(degrees)
        return self

    def _solve_degrees(self):
        """Row and column degrees read off the nonzero entries.  Every row is
        processed once, and each of its nonzero entries is checked against
        the degrees there, so a solution fits every entry."""
        degs = {"r": [None] * self.nrows, "c": [None] * self.ncols}
        lines = {"r": self.entries, "c": tuple(zip(*self.entries))}
        # propagate degree constraints across the nonzero-entry graph: a row
        # node reaches the columns of its entries, a column node the rows
        for start in range(self.nrows):
            if degs["r"][start] is not None:
                continue
            degs["r"][start] = 0
            queue = [("r", start)]
            while queue:
                kind, idx = queue.pop()
                far = "c" if kind == "r" else "r"
                for k, p in enumerate(lines[kind][idx]):
                    if p.is_zero():
                        continue
                    d = p.homogeneous_degree()
                    if d is None:
                        i, j = (idx, k) if kind == "r" else (k, idx)
                        raise CakError(f"entry ({i}, {j}) is not homogeneous")
                    want = degs[kind][idx] + (d if kind == "r" else -d)
                    if degs[far][k] is None:
                        degs[far][k] = want
                        queue.append((far, k))
                    elif degs[far][k] != want:
                        raise CakError("inconsistent row/column degrees")
        return [[0 if d is None else d for d in degs[kind]] for kind in "rc"]

    def submatrix(self, row_idx, col_idx):
        return [[self.entries[i][j] for j in col_idx] for i in row_idx]

    def __repr__(self):
        return f"GenericMatrix({self.nrows}x{self.ncols})"


def determinant(ring, rows, budget=None) -> Polynomial:
    """Laplace expansion along the first row, memoized on column subsets;
    each memo entry costs one budget unit."""
    n = len(rows)
    if n == 0:
        return ring.one()
    if any(len(r) != n for r in rows):
        raise CakError("determinant of a non-square matrix")
    budget = _as_budget(budget)
    memo = {}

    def rec(i, cols):
        if i == n:
            return ring.one()
        got = memo.get((i, cols))
        if got is not None:
            return got
        budget.spend()
        acc = ring.zero()
        for pos, j in enumerate(cols):
            a = rows[i][j]
            if a.is_zero():
                continue
            rest = cols[:pos] + cols[pos + 1 :]
            sub = rec(i + 1, rest)
            term = a * sub
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[(i, cols)] = acc
        return acc

    return rec(0, tuple(range(n)))


# -- Koszul -------------------------------------------------------------------


def koszul_complex(ring: RingPresentation, elems, budget=None) -> ChainComplex:
    """Exterior-algebra complex on the given homogeneous elements: the
    Eagon-Northcott complex of the 1 x m matrix of the elements."""
    elems = list(elems)
    degrees = []
    for f in elems:
        if f.ring is not ring:
            raise CakError("element from a different ring")
        if f.is_zero():
            raise PreconditionError("Koszul complex wants nonzero elements")
        d = f.homogeneous_degree()
        if d is None:
            raise PreconditionError("Koszul complex wants homogeneous elements")
        degrees.append(d)
    return _koszul_forms(ring, elems, degrees, budget)


def _koszul_forms(ring, elems, degrees, budget) -> ChainComplex:
    """``koszul_complex`` on nonzero forms of ``ring`` of the given degrees."""
    if not elems:
        return ChainComplex(ring, [GradedFreeModule(ring, [0])], [])
    return eagon_northcott(GenericMatrix._row(ring, elems, degrees), budget)


# -- Eagon-Northcott ----------------------------------------------------------


def eagon_northcott(matrix: GenericMatrix, budget=None) -> ChainComplex:
    """Eagon-Northcott complex of an s x t matrix (s <= t): length t-s+1,
    resolving ring/(maximal minors) when the expected depth is attained.

    Step k >= 1 has basis (J, a) with J an (s+k-1)-subset of columns and a an
    exponent vector over the rows with |a| = k-1, ordered lexicographically;
    rank binom(t, s+k-1) * binom(s+k-2, k-1).  For k >= 2, d_k sends (J, a)
    to the sum of (-1)^l m[i][J_l] (J - J_l, a - e_i); exactly one (l, i)
    reaches each target, so its entry is written into the packed column as
    it is.  Each basis element costs one budget unit, and so does each memo
    entry of the minors of d_1.
    """
    s, t = matrix.nrows, matrix.ncols
    if s > t:
        raise PreconditionError("Eagon-Northcott wants s <= t")
    ring = matrix.ring
    budget = _as_budget(budget)
    rdeg, cdeg = matrix.row_degrees, matrix.col_degrees
    rsum = sum(rdeg)

    def compositions(total, parts):
        if parts == 1:
            return [(total,)]
        out = []
        for first in range(total, -1, -1):
            for rest in compositions(total - first, parts - 1):
                out.append((first,) + rest)
        return sorted(out)

    budget.spend()
    bases = [[((), ())]]  # Y_0: single generator
    modules = [GradedFreeModule(ring, [0])]
    for k in range(1, t - s + 2):
        basis = []
        for J in itertools.combinations(range(t), s + k - 1):
            for a in compositions(k - 1, s):
                budget.spend()
                basis.append((J, a))
        bases.append(basis)
        twists = [
            sum(cdeg[j] for j in J) - sum(ai * ri for ai, ri in zip(a, rdeg)) - rsum
            for (J, a) in basis
        ]
        modules.append(GradedFreeModule(ring, twists))

    # d_1: (J, ()) -> minor on columns J
    minors = [determinant(ring, matrix.submatrix(range(s), J), budget) for J, _a in bases[1]]
    maps = [PolyMatrix.packed(ring, 1, _rank_one(ring, minors))]
    neg = ring.field.neg
    for k in range(2, t - s + 2):
        src, tgt = bases[k], bases[k - 1]
        pos = {key: idx for idx, key in enumerate(tgt)}
        ctx, cols = ModuleContext(ring, len(tgt)), []
        for J, a in src:
            col = {}
            for l, jl in enumerate(J):
                rest = J[:l] + J[l + 1 :]
                for i in range(s):
                    m = matrix.entries[i][jl]
                    if a[i] and m:  # the one (l, i) that reaches this row
                        ridx = pos[(rest, a[:i] + (a[i] - 1,) + a[i + 1 :])]
                        for key, c in m.terms.items():
                            col[ctx.key(ridx, key)] = c if l % 2 == 0 else neg(c)
            cols.append(col)
        maps.append(PolyMatrix.packed(ring, len(tgt), cols))
    return ChainComplex(ring, modules, maps)


def eagon_northcott_rank(s: int, t: int, k: int) -> int:
    """Expected rank at homological degree k for an s x t input."""
    if k == 0:
        return 1
    return math.comb(t, s + k - 1) * math.comb(s + k - 2, k - 1)


# -- tensor products -----------------------------------------------------------


def tensor_complexes(c: ChainComplex, d: ChainComplex) -> ChainComplex:
    """Total complex of the double complex C (x) D with the sign convention
    d(a (x) b) = da (x) b + (-1)^|a| a (x) db.  Summands of each total degree
    are ordered by the C-degree, then C-basis index, then D-basis index.
    Column a (x) b is the packed column a of d^C and the packed column b of
    (-1)^|a| d^D, each re-keyed to the rows of its summand."""
    if c.ring is not d.ring:
        raise CakError("complexes live over different rings")
    ring = c.ring
    lc, ld = c.length, d.length
    total = lc + ld

    def summands(k):
        return [(i, k - i) for i in range(max(0, k - ld), min(k, lc) + 1)]

    offsets = []
    modules = []
    for k in range(total + 1):
        offs = {}
        twists = []
        for (i, j) in summands(k):
            offs[(i, j)] = len(twists)
            for tc in c.modules[i].twists:
                for td in d.modules[j].twists:
                    twists.append(tc + td)
        offsets.append(offs)
        modules.append(GradedFreeModule(ring, twists))

    maps = []
    for k in range(1, total + 1):
        tgt_off, ctx, cols = offsets[k - 1], ModuleContext(ring, modules[k - 1].rank), []
        for (i, j) in summands(k):
            rc, rd = c.modules[i].rank, d.modules[j].rank
            # d^C sends row tr to row (tr, bd) of C_(i-1) (x) D_j, and d^D
            # sends row tr to row (bc, tr) of C_i (x) D_(j-1), times (-1)^i
            dc = _triples(c.maps[i - 1]) if (i - 1, j) in tgt_off else [()] * rc
            dd = _triples(d.maps[j - 1], i % 2) if (i, j - 1) in tgt_off else [()] * rd
            tc, td = tgt_off.get((i - 1, j)), tgt_off.get((i, j - 1))
            rd1 = d.modules[j - 1].rank if j else 0
            for bc in range(rc):
                for bd in range(rd):
                    col = {ctx.key(tc + tr * rd + bd, m): v for tr, m, v in dc[bc]}
                    col.update((ctx.key(td + bc * rd1 + tr, m), v) for tr, m, v in dd[bd])
                    cols.append(col)
        maps.append(PolyMatrix.packed(ring, ctx.ncomp, cols))
    return ChainComplex(ring, modules, maps)


def _triples(mat: PolyMatrix, flip=False):
    """Each column of ``mat`` as its (row, monomial key, coefficient)
    triples, the coefficients negated when ``flip``."""
    ctx, neg = ModuleContext(mat.ring, mat.nrows), mat.ring.field.neg
    return [[(*ctx.decode(k), neg(v) if flip else v) for k, v in col.items()] for col in mat.cols]


# -- the closed Betti formula ---------------------------------------------------


def betti_rank_formula(v: int, r: int, d: int, budget=None) -> tuple[int, ...]:
    """Total Betti ranks (1, b_1, ..., b_{v-d}) predicted for a ring with
    embedding dimension v, type r and dimension d that carries an Ulrich
    ideal with complete-intersection residue ring: the rank at step i is
    sum_j beta_{i-j} * binom(v-r-d, j) with beta_0 = 1 and beta_k =
    k*binom(r+1, k+1) for 1 <= k <= r.  Since beta_k = 0 for k outside
    0..r, j runs from max(0, i-r) to min(i, v-r-d).  Each rank costs one
    budget unit."""
    if r < 1 or d < 0:
        raise PreconditionError("need r >= 1 and d >= 0")
    if v < r + d:
        raise PreconditionError("need v >= r + d (mu(I) = d + r <= v)")
    budget = _as_budget(budget)
    e = v - r - d
    beta = [1] + [k * math.comb(r + 1, k + 1) for k in range(1, r + 1)]
    ranks, low = [], 1  # low = binom(e, max(0, i - r))
    for i in range(v - d + 1):
        budget.spend()
        if i > r:
            low = low * (e - i + r + 1) // (i - r)
        rank, c = 0, low
        for j in range(max(0, i - r), min(i, e) + 1):
            rank += beta[i - j] * c
            c = c * (e - j) // (j + 1)
        ranks.append(rank)
    return tuple(ranks)


# -- verification ----------------------------------------------------------------


class VerificationReport:
    """Outcome of verify_resolution: named checks plus messages."""

    __slots__ = ("checks", "messages")

    def __init__(self):
        self.checks: dict[str, bool] = {}
        self.messages: list[str] = []

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def record(self, name: str, passed: bool, message: str = ""):
        self.checks[name] = passed
        if message and not passed:
            self.messages.append(f"{name}: {message}")

    def as_dict(self):
        return {"ok": self.ok, "checks": dict(self.checks), "messages": list(self.messages)}

    def __repr__(self):
        state = "pass" if self.ok else "FAIL"
        return f"VerificationReport({state}: {self.checks})"


def verify_resolution(
    complex: ChainComplex, target: PresentedModule, budget=None
) -> VerificationReport:
    """Check that the complex is a resolution of the target module:
    d o d = 0, H_0 matches, exactness in positive degrees (kernel-image
    comparison step by step), and over a polynomial ambient the
    Euler/Hilbert-numerator identity."""
    report = VerificationReport()
    ring = complex.ring
    budget = _as_budget(budget)

    defect = complex.composition_defect()
    report.record("dd_zero", defect is None, f"d_{defect} o d_{defect and defect + 1} != 0" if defect else "")

    if complex.modules[0].rank != target.ambient.rank:
        report.record("h0", False, "ambient ranks differ")
        return report

    nrows = target.ambient.rank
    d1_cols = complex.maps[0].cols if complex.maps else ()
    rel_cols = target.relations.cols
    _, eng1 = module_membership_engine(ring, d1_cols, nrows, budget=budget)
    ctx2, eng2 = module_membership_engine(ring, rel_cols, nrows, budget=budget)
    h0 = all(map(eng1.contains, rel_cols)) and all(map(eng2.contains, d1_cols))
    report.record("h0", h0, "image of d_1 differs from the target relations")

    for i in range(1, complex.length + 1):
        di = complex.differential(i)
        syz = module_syzygies(ring, di.cols, nrows=di.nrows, budget=budget)
        nxt = complex.differential(i + 1).cols if i < complex.length else ()
        _, eng = module_membership_engine(ring, nxt, di.ncols, budget=budget)
        exact = all(eng.contains(s) for s in syz)
        report.record(
            f"exact_at_{i}", exact, f"kernel of d_{i} exceeds the image of d_{i + 1}"
        )

    if not ring.relations:
        lhs = alternating_twist_sum(complex)
        rhs = lead_module_hilbert_numerator(ctx2, eng2, target.ambient.twists, budget)
        report.record("euler", lhs == rhs, "alternating twist sum != Hilbert numerator")
    return report

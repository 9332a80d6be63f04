"""Graded free modules, syzygies, minimal free resolutions, Betti tables,
lengths and Hilbert-series bookkeeping.

Differentials are `PolyMatrix` objects, whose columns are packed module
elements, the one matrix form of the library: every route of a resolution
and `minimalize` read and write them in that form.  `minimalize` is unit
cancellation on packed columns; a resolution runs it on the presentation it
starts from, and over a polynomial ring on the Schreyer frame it resolves
the module by.  No option selects a route; the ring and the module do.

- **Koszul.**  Over a graded ring that is not Artinian, a cyclic
  R/(f_1..f_m) with m <= n homogeneous f_i of positive degree that form a
  regular sequence (`is_regular_sequence`) is resolved by the Koszul
  complex on the f_i (Bruns-Herzog, Cor. 1.6.19), whose entries are the
  f_i up to sign, so it is minimal.
- **Schreyer frame.**  Every other module over a polynomial ring is
  resolved whole from the reduced Groebner basis of its columns: each level
  of the frame takes one reduction per minimal pair of the level before,
  and by Schreyer's lemma the frame is no longer than the number of
  variables.  It is usually not minimal, and one `minimalize` makes it so
  (La Scala and Stillman, J. Symbolic Comput. 26 (1998); Erocal, Motsak,
  Schreyer and Steenpass, J. Symbolic Comput. 74 (2016)).

- **Artinian steps.**  Over a graded Artinian quotient (every relation
  homogeneous, finite staircase) F (x) R is a finite graded vector space on
  the standard monomials, so a syzygy step is sparse linear algebra on R's
  own `ArtinianModule` view: the kernel of d (x) R degree by degree, then a
  complement of R_+ times that kernel.
- **Syzygy steps.**  Over a ring whose relations are not Artinian a step
  reads syzygies off the pair reductions of one module completion, which
  processes the pairs of the row block only (Schreyer), and picks the
  minimal subset with a module Groebner basis.

Both kinds of step keep a minimal generating set (graded Nakayama greedy),
so all differentials have entries of strictly positive weighted degree and
the ranks are Betti numbers.

On the Koszul and frame routes the Betti table is known before any
differential is: the Koszul twists are the subset sums of the forms'
degrees, and the frame's minimal twists are its own less the ranks of the
constant blocks of its maps (``_constant_ranks``), since F (x) k computes
Tor(M, k).  The differentials are built, and the frame minimalized, on
first read.

A module's resolution is computed once per `PresentedModule` object: the
module owns one `ResolutionBuilder` (`PresentedModule.resolution`), and every
consumer (`minimal_free_resolution`, Ext, Tor, the AR checker) reads it and
extends it only as far as it needs.  A module also owns its one
finite-length view, an `ArtinianModule` (`PresentedModule.target`).  R is
one module per ring (`PresentedModule.free`), so R's view, which the
Artinian steps of every resolution over R and Ext/Tor into R read, is built
once per ring.  It reads J through the ring's one handle of it
(``groebner.relations_ideal``): its standard monomials and its normal forms
of packed elements, which `minimalize` reads too.  `is_regular_sequence` and
R's dimension read R's Hilbert numerator off it, computed once per ring.

Regular sequences have one test, `is_regular_sequence` (a face test over a
polynomial ring, else the Hilbert series), which the Koszul route,
`graded_rank_check` and the Ulrich certifiers read.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import math
import operator

from ._kernel import EXP_MASK, axpy_terms, normal_form_terms
from ._linalg import Echelon
from .errors import CakError, NotArtinianError, PreconditionError
from .groebner import (
    Budget,
    GroebnerEngine,
    IdealHandle,
    ModuleContext,
    RingContext,
    _as_budget,
    buchberger,
    minimal_generating_subset,
    minimal_generator_count,
    module_membership_engine,
    module_syzygies,
    relations_ideal,
    staircase,
    standard_monomials,
)
from .polyring import DEG_BITS, RingPresentation


class GradedFreeModule:
    """Free module with one integer degree shift per basis element."""

    __slots__ = ("ring", "twists")

    def __init__(self, ring: RingPresentation, twists):
        self.ring = ring
        self.twists = tuple(int(t) for t in twists)

    @property
    def rank(self) -> int:
        return len(self.twists)

    def __repr__(self):
        return f"F(rank {self.rank}, twists {self.twists})"


class PolyMatrix:
    """Matrix of polynomials stored by columns.  Column j is a module
    element: a packed term dict in the layout of ``ModuleContext(ring,
    nrows)`` (``cols``), the one form in which the library builds, reads
    and rewrites matrices (``packed``).  Rows of polynomials exist only at
    the edges: the row-major constructor and ``from_columns`` check and
    pack matrices given from outside, and ``entries`` unpacks the rows.
    The Hom and Tensor ranks read the entries as term sets (``grid``),
    decoded once per matrix."""

    __slots__ = ("ring", "nrows", "ncols", "cols", "_grid")

    def __init__(self, ring: RingPresentation, entries, ncols: int | None = None):
        rows = [tuple(row) for row in entries]
        ncols = len(rows[0]) if rows else (ncols or 0)
        if any(len(row) != ncols for row in rows):
            raise CakError("ragged matrix")
        cols = [[row[j] for row in rows] for j in range(ncols)]
        self.ring, self.nrows, self.ncols = ring, len(rows), ncols
        self.cols, self._grid = PolyMatrix.from_columns(ring, len(rows), cols).cols, None

    @classmethod
    def packed(cls, ring, nrows, cols) -> "PolyMatrix":
        """The matrix whose columns are the given packed term dicts."""
        self = object.__new__(cls)
        self.ring, self.nrows, self.cols = ring, nrows, tuple(cols)
        self.ncols, self._grid = len(self.cols), None
        return self

    @classmethod
    def zero(cls, ring, nrows, ncols):
        return cls.packed(ring, nrows, [{} for _ in range(ncols)])

    @classmethod
    def from_columns(cls, ring, nrows, columns):
        """The matrix whose columns are the given lists of ``nrows``
        polynomials of ``ring``."""
        cols = [tuple(col) for col in columns]
        if any(len(col) != nrows for col in cols):
            raise CakError("ragged matrix")
        if any(p.ring is not ring for col in cols for p in col):
            raise CakError("matrix entry from a different ring")
        return cls.packed(ring, nrows, map(ModuleContext(ring, nrows).from_column, cols))

    @property
    def entries(self) -> tuple:
        """The rows, as tuples of polynomials."""
        ctx = ModuleContext(self.ring, self.nrows)
        cols = [ctx.to_column(col) for col in self.cols]
        return tuple(tuple(col[i] for col in cols) for i in range(self.nrows))

    def grid(self) -> dict:
        """The nonzero entries, (row, column) -> frozenset of (monomial key,
        coefficient) pairs, in column order; built on first use and the
        same objects on every call."""
        if self._grid is None:
            ctx, grid = ModuleContext(self.ring, self.nrows), {}
            for j, col in enumerate(self.cols):
                for k, v in col.items():
                    i, mono = ctx.decode(k)
                    grid.setdefault((i, j), []).append((mono, v))
            self._grid = {pos: frozenset(terms) for pos, terms in grid.items()}
        return self._grid

    def compose(self, other: "PolyMatrix") -> "PolyMatrix":
        """Matrix product self * other: column j is the sum over the terms
        c * x^m * e_k of other's column j of c * x^m times column k of self."""
        if self.ncols != other.nrows:
            raise CakError("matrix shapes do not compose")
        ctx, inner = ModuleContext(self.ring, self.nrows), ModuleContext(self.ring, other.nrows)
        p, one_key, bits = self.ring.field.p, self.ring.one_key, ModuleContext.COMP_BITS
        out = []
        for col in other.cols:
            acc: dict = {}
            for key, c in col.items():
                k, mono = inner.decode(key)
                axpy_terms(acc, self.cols[k], c, (mono - one_key) << bits, p, ctx.guard)
            out.append(acc)
        return PolyMatrix.packed(self.ring, self.nrows, out)

    def is_zero(self) -> bool:
        return not any(self.cols)

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols})"


class PresentedModule:
    """Cokernel presentation: ambient graded free module and a relation
    matrix whose columns are the relations.  It owns its resolution and its
    finite-length view (``target``, the Ext/Tor target), each built once;
    R itself is one module per ring (``free``), whose view is also the one
    the Artinian resolution steps over R read."""

    __slots__ = ("ring", "ambient", "relations", "column_degrees", "_resolution", "_target")

    def __init__(self, ring, ambient: GradedFreeModule, relations: PolyMatrix):
        if relations.nrows != ambient.rank:
            raise CakError("relation matrix must have one row per ambient basis element")
        self.ring = ring
        self.ambient = ambient
        self.relations = relations
        ctx = ModuleContext(ring, ambient.rank, twists=ambient.twists)
        self.column_degrees = tuple(ctx.column_degree(col) for col in relations.cols)
        self._resolution = None
        self._target = None

    @classmethod
    def _with_degrees(cls, ring, ambient, relations, degrees) -> "PresentedModule":
        """The module of ``relations``, whose column degrees are known."""
        self = object.__new__(cls)
        self.ring, self.ambient, self.relations = ring, ambient, relations
        self.column_degrees = tuple(degrees)
        self._resolution = self._target = None
        return self

    def resolution(self, budget=None) -> "ResolutionBuilder":
        """The minimal free resolution of this module over ring/(relations),
        created on first use and extended on demand by its readers."""
        if self._resolution is None:
            self._resolution = ResolutionBuilder(self, budget)
        return self._resolution

    def target(self, budget=None) -> "ArtinianModule":
        """This module as an `ArtinianModule` over ring/(relations), created
        on first use and charged to that call."""
        if self._target is None:
            self._target = ArtinianModule(self.ring, self.relations.cols, self.ambient.rank, budget)
        return self._target

    @classmethod
    def cyclic(cls, ring, gens) -> "PresentedModule":
        """R/(gens) as a module over the ring presentation."""
        gens = [g for g in gens if not g.is_zero()]
        amb = GradedFreeModule(ring, (0,))
        return cls(ring, amb, PolyMatrix.from_columns(ring, 1, [[g] for g in gens]))

    @classmethod
    def free(cls, ring, twists=(0,)) -> "PresentedModule":
        """R^r in degrees ``twists``; R itself (twists (0,)) is made once
        per ring and kept on it."""
        amb = GradedFreeModule(ring, twists)
        if amb.twists != (0,):
            return cls(ring, amb, PolyMatrix.zero(ring, amb.rank, 0))
        if ring._free_module is None:
            ring._free_module = cls(ring, amb, PolyMatrix.zero(ring, 1, 0))
        return ring._free_module


class ChainComplex:
    """Graded free modules and maps[i] : modules[i+1] -> modules[i].  The
    constructor checks shapes only; d o d = 0 is checked by
    `composition_defect` (and `verify_resolution`), never at construction."""

    __slots__ = ("ring", "modules", "maps")

    def __init__(self, ring, modules, maps):
        self.ring = ring
        self.modules = list(modules)
        self.maps = list(maps)
        if len(self.maps) != max(len(self.modules) - 1, 0):
            raise CakError("complex needs one map between consecutive modules")
        for i, m in enumerate(self.maps):
            if m.nrows != self.modules[i].rank or m.ncols != self.modules[i + 1].rank:
                raise CakError(f"map {i + 1} has the wrong shape")

    @property
    def length(self) -> int:
        return len(self.modules) - 1

    def differential(self, i: int) -> PolyMatrix:
        """d_i : F_i -> F_{i-1} (1-based)."""
        return self.maps[i - 1]

    def ranks(self) -> tuple[int, ...]:
        return tuple(m.rank for m in self.modules)

    def composition_defect(self):
        """Index i where d_i o d_{i+1} != 0, or None if a complex."""
        for i in range(len(self.maps) - 1):
            if not self.maps[i].compose(self.maps[i + 1]).is_zero():
                return i + 1
        return None

    def betti_table(self) -> "BettiTable":
        return _betti_table(self.modules)


def _betti_table(modules) -> "BettiTable":
    entries = {}
    for i, mod in enumerate(modules):
        for t in mod.twists:
            entries[(i, t)] = entries.get((i, t), 0) + 1
    return BettiTable(entries)


class BettiTable:
    """Map (homological degree, internal degree) -> rank."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict):
        self.entries = dict(entries)

    def total_ranks(self) -> tuple[int, ...]:
        if not self.entries:
            return ()
        top = max(i for i, _ in self.entries)
        out = [0] * (top + 1)
        for (i, _), r in self.entries.items():
            out[i] += r
        return tuple(out)

    def as_rows(self):
        """Sorted [homological degree, internal degree, rank] triples."""
        return [[i, j, self.entries[(i, j)]] for (i, j) in sorted(self.entries)]

    def format_macaulay(self) -> str:
        """Rows indexed by internal degree - homological degree; rows with no
        entries (possible under non-standard weights) are skipped."""
        if not self.entries:
            return "(empty)"
        cols = range(max(i for i, _ in self.entries) + 1)
        slopes = sorted({j - i for (i, j) in self.entries})
        width = max(6, max(len(str(r)) for r in self.entries.values()) + 2)
        lines = ["      " + "".join(f"{i:>{width}}" for i in cols)]
        totals = self.total_ranks()
        lines.append("total:" + "".join(f"{t:>{width}}" for t in totals))
        for s in slopes:
            cells = []
            for i in cols:
                r = self.entries.get((i, s + i))
                cells.append(f"{r if r else '.':>{width}}")
            lines.append(f"{s:>5}:" + "".join(cells))
        return "\n".join(lines)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __repr__(self):
        return f"BettiTable({self.total_ranks()})"


# -- syzygies and resolutions -------------------------------------------------


def _minimal_columns(ring, columns, degrees, twists, budget):
    """A minimal generating subset of packed columns of the free module
    with basis degrees ``twists``, given the columns' degrees: (matrix of
    the kept columns, their degrees)."""
    keep = minimal_generating_subset(ring, columns, degrees, twists, budget=budget)
    mat = PolyMatrix.packed(ring, len(twists), [columns[j] for j in keep])
    return mat, [degrees[j] for j in keep]


def _syzygy_step(matrix: PolyMatrix, twists, budget):
    """One syzygy step: minimal generators of the kernel of ``matrix``,
    whose columns have degrees ``twists``, and their degrees."""
    ring = matrix.ring
    cols = module_syzygies(ring, matrix.cols, nrows=matrix.nrows, budget=budget)
    ctx = ModuleContext(ring, len(twists), twists=twists)
    # over homogeneous relations the syzygies of homogeneous columns are
    # homogeneous, so a lead has the degree; else the scan raises on them
    degs = [ctx.degree(max(c)) if ring.homogeneous else ctx.column_degree(c) for c in cols]
    return _minimal_columns(ring, cols, degs, twists, budget)


def module_standard_basis(ctx, engine, budget=None):
    """Standard basis of the quotient of the free module by the submodule
    of a completed module engine (see ``module_membership_engine``): module
    keys in (component, monomial) order, each component's staircase walked
    on the engine's divisor index.  Errors when it is not
    finite-dimensional."""
    ring = ctx.ring
    budget = _as_budget(budget)
    deltas = [(ring.var_key(i) - ring.one_key) << ctx.COMP_BITS for i in range(len(ring.vars))]
    basis = []
    for comp in range(ctx.ncomp):
        keys, missing = staircase(engine.index, ctx.key(comp, ring.one_key), deltas, budget)
        if missing:
            raise NotArtinianError(f"module component {comp} is not finite-dimensional")
        basis.extend(sorted(keys))
    return basis


class ArtinianModule:
    """A finite-length module N = R^r/(columns) over an Artinian R = S/J,
    ``columns`` packed term dicts of ``ModuleContext(ring, nrows)``: its
    standard basis of module keys in (component, monomial) order, the basis
    index of each key, and normal forms of a monomial times an element
    (``times``) and of a polynomial times a basis element (``basis_times``,
    sparse and cached).  With no nonzero column N is free and reads the
    handle of J, R's standard monomials in each component and its normal
    forms of packed elements (``IdealHandle.module_normal_form``), so it
    runs no completion; it also groups R's standard monomials by degree
    (``by_degree``, up to ``top``) for the Artinian steps, which read R's
    own view.  Else a module engine on the columns and J*e_i gives the
    basis and the normal forms.
    """

    def __init__(self, ring: RingPresentation, columns, nrows: int, budget=None):
        self.ring, self.p = ring, ring.field.p
        self.ctx = ctx = ModuleContext(ring, nrows)
        budget = _as_budget(budget)
        if any(columns):
            _, self._engine = module_membership_engine(ring, columns, nrows, budget=budget)
            self.basis = module_standard_basis(ctx, self._engine, budget)
        else:
            self._engine, self._relations = None, relations_ideal(ring)
            std = standard_monomials(self._relations, budget)
            self.basis = [ctx.key(comp, key) for comp in range(nrows) for key in std]
            self.by_degree: dict[int, list[int]] = {}
            for key in std:  # in key order
                self.by_degree.setdefault(ring.key_degree(key), []).append(key)
            self.top = max(self.by_degree, default=-1)
        self.index = {key: i for i, key in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._op_cache: dict = {}

    def times(self, s: int, vec: dict) -> dict:
        """Normal form of the monomial ``s`` times ``vec``, a packed element
        of N, or of R^r for any r on a free view (it reduces componentwise)."""
        if self._engine is None:
            return self._relations.module_normal_form(vec, s)
        shifted: dict = {}
        axpy_terms(shifted, vec, 1, (s - self.ring.one_key) << ModuleContext.COMP_BITS, self.p, self.ctx.guard)
        return self._engine.reduce(shifted)

    def basis_times(self, f: frozenset, b: int) -> tuple:
        """The (basis index, coefficient) pairs of f * (basis element b),
        for a polynomial f given as its frozenset of (monomial key,
        coefficient) pairs."""
        cache = self._op_cache.setdefault(f, {})
        got = cache.get(b)
        if got is None:
            comp, mono = self.ctx.decode(self.basis[b])
            nf = self.times(mono, {self.ctx.key(comp, k): c for k, c in f})
            got = cache[b] = tuple((self.index[k], c) for k, c in nf.items())
        return got


def _artinian_minimal(view, vecs, degrees, twists, budget):
    """A minimal generating subset of the elements ``vecs`` of F (x) R of
    the given degrees, F with basis degrees ``twists`` and R's view
    ``view``: (matrix of the kept elements, their degrees).  Visited by
    (degree, index), an element of degree t is kept iff it is not in the
    span of R_(t - deg c) * c over the kept c of lower degree and the kept
    elements of degree t (the graded Nakayama rule).  A product that
    vanishes is charged its unit without an insertion."""
    order = sorted(range(len(vecs)), key=lambda j: (degrees[j], j))
    kept = []
    for t, group in itertools.groupby(order, key=degrees.__getitem__):
        ech, zeros = Echelon(view.p, budget), 0
        for j in kept:
            for s in view.by_degree.get(t - degrees[j], ()):
                vec = view.times(s, vecs[j])
                zeros += not vec
                if vec:
                    ech.insert(vec)
        for j in group:
            if ech.insert(dict(vecs[j])):
                kept.append(j)
        budget.spend(zeros)
    kept.sort()
    mat = PolyMatrix.packed(view.ring, len(twists), [vecs[j] for j in kept])
    return mat, [degrees[j] for j in kept]


def _artinian_step(view, matrix: PolyMatrix, twists, budget):
    """Minimal generators of the kernel of d (x) R for the matrix d whose
    columns have degrees ``twists``, R's view being ``view``, and their
    degrees.  Degree by degree, the kernel K_t of d on (F (x) R)_t comes
    from tracked elimination of the images of its standard basis; the
    minimal subset of the K_t is then a complement of R_+ * K in each K_t.
    A basis element whose image vanishes is a kernel vector as it stands:
    it is charged its unit without an insertion."""
    ctx, one = ModuleContext(view.ring, matrix.ncols), view.ring.field.coerce(1)
    kernel, degs = [], []
    for t in range(min(twists), max(twists) + view.top + 1):
        ech, zeros = Echelon(view.p, budget), 0
        for j, (tw, col) in enumerate(zip(twists, matrix.cols)):
            for s in view.by_degree.get(t - tw, ()):
                combo = {ctx.key(j, s): one}
                vec = view.times(s, col)
                zeros += not vec
                if not (vec and ech.insert(vec, combo)):
                    kernel.append(combo)
                    degs.append(t)
        budget.spend(zeros)
    return _artinian_minimal(view, kernel, degs, twists, budget)


class Resolution:
    """A module's resolution (``builder``, extended to ``max_length``) up to
    that bound.  The Betti table and the ranks are read off the builder's
    modules; the complex is built on first read, and with it any
    differential the builder has not built yet.  ``complete``: the builder
    saw the end at a bound no larger (``ResolutionBuilder.known_at``)."""

    __slots__ = ("betti", "complete", "_ranks", "_builder", "_n_maps", "_complex")

    def __init__(self, builder: "ResolutionBuilder", max_length: int):
        n_maps = min(len(builder.modules) - 1, max_length)
        modules = builder.modules[: n_maps + 1]
        self.betti, self._ranks = _betti_table(modules), tuple(m.rank for m in modules)
        self.complete = builder.known_at is not None and builder.known_at <= max_length
        self._builder, self._n_maps, self._complex = builder, n_maps, None

    @property
    def complex(self) -> ChainComplex:
        if self._complex is None:
            b, n = self._builder, self._n_maps
            maps = b.maps[:n]  # first: a whole route's first read replaces its modules
            self._complex = ChainComplex(b.ring, b.modules[: n + 1], maps)
        return self._complex

    def total_ranks(self) -> tuple[int, ...]:
        return self._ranks


def presentation_minimalize(module: PresentedModule, budget=None):
    """Isomorphic presentation with no unit relation entries and no zero
    relation columns: ``minimalize`` on F_0 <- F_1, zero columns dropped.
    Returns a new PresentedModule.  Over a graded ring a surviving column
    keeps its degree, the twist minimalize carried, so no degree is computed
    again."""
    ring = module.ring
    # zero columns have no degree; any twist will do, they are dropped below
    col_twists = [0 if d is None else d for d in module.column_degrees]
    cx = ChainComplex(ring, [module.ambient, GradedFreeModule(ring, col_twists)], [module.relations])
    cx = minimalize(cx, budget)
    amb = cx.modules[0]
    kept = []
    if cx.maps:
        kept = [(col, d) for col, d in zip(cx.maps[0].cols, cx.modules[1].twists) if col]
    relations = PolyMatrix.packed(ring, amb.rank, [col for col, _ in kept])
    if not ring.homogeneous:  # reducing modulo J may break a column's degree
        return PresentedModule(ring, amb, relations)
    return PresentedModule._with_degrees(ring, amb, relations, [d for _, d in kept])


def _koszul_resolution(module: PresentedModule, budget):
    """The Koszul complex on f, every twist shifted by the ambient one, as
    (its modules, a function that builds it): the minimal resolution of
    ``module`` when it is R/(f) as in the module docstring's Koszul route;
    else None.  F_k has one basis element per k-subset of the forms, in
    ``itertools.combinations`` order, which is Eagon-Northcott's; the units
    ``_koszul_forms`` will charge, 2^m for its basis and m for the minors of
    d_1, are charged here."""
    ring = module.ring
    if module.ambient.rank != 1 or not ring.homogeneous:
        return None
    ctx = ModuleContext(ring, 1)
    f = [ctx.to_column(col)[0] for col in module.relations.cols]
    if not 0 < len(f) <= len(ring.vars):
        return None
    # each form's degree is read once, here, and passed down
    degrees = [g.homogeneous_degree() for g in f]
    if not all(degrees) or not _regular_forms(ring, f, degrees, budget):
        return None
    from .complexes import _koszul_forms  # complexes imports this module

    m, twist = len(f), module.ambient.twists[0]
    units = 2 ** m + m
    _as_budget(budget).spend(units)
    modules = [GradedFreeModule(ring, [twist + sum(degrees[j] for j in subset)
                                       for subset in itertools.combinations(range(m), k)])
               for k in range(m + 1)]
    return modules, lambda: ChainComplex(ring, modules, _koszul_forms(ring, f, degrees, Budget(units)).maps)


def _constant_ranks(complex: ChainComplex) -> list[dict]:
    """For each map d_i of a graded complex over a polynomial ring, the
    rank over k of its block of constant entries in each degree j, as
    {j: rank}: the rank of d_i (x) k on F_i's degree-j part.  A constant
    entry joins a column and a row of one degree, so each column degree
    has its own echelon form."""
    p, bits = complex.ring.field.p, ModuleContext.COMP_BITS
    bound, low = (complex.ring.one_key + 1) << bits, (1 << bits) - 1
    out = []
    for mat, mod in zip(complex.maps, complex.modules[1:]):
        blocks: dict = {}
        for t, col in zip(mod.twists, mat.cols):
            if col and min(col) < bound:  # the keys of constant entries lie below it
                blocks.setdefault(t, Echelon(p)).insert({k & low: c for k, c in col.items() if k < bound})
        out.append({t: ech.rank for t, ech in blocks.items()})
    return out


def _frame_resolution(module: PresentedModule, budget):
    """The minimal resolution of ``module`` over a polynomial ring, as (its
    modules, a function that builds it): the Schreyer frame's modules, each
    less the constant ranks of the maps on either side
    (beta_(i,j) = f_(i,j) - r_(i,j) - r_(i+1,j)), then the frame
    minimalized.  Every cancellation ``minimalize`` makes lowers the rank of
    F (x) k's differential by one, so it makes sum r_(i,j) of them; they
    are charged here."""
    ring, frame = module.ring, _schreyer_frame(module, budget)
    ranks = _constant_ranks(frame)
    units = sum(sum(r.values()) for r in ranks)
    budget.spend(units)
    cuts = [collections.Counter() for _ in frame.modules]
    for i, r in enumerate(ranks):  # d_(i+1) cancels in F_(i+1) and F_i
        cuts[i].update(r)
        cuts[i + 1].update(r)
    # grouped by degree: the first read of maps puts minimalize's order in place
    twists = [list((collections.Counter(m.twists) - cut).elements()) for m, cut in zip(frame.modules, cuts)]
    while len(twists) > 1 and not twists[-1]:
        twists.pop()
    return [GradedFreeModule(ring, t) for t in twists], lambda: minimalize(frame, Budget(units))


def _frame_generators(ring, cols, offsets, budget):
    """The reduced Groebner basis of the columns, in F_0's frame layout,
    ``offsets`` the key offset of each component code: through the
    signature engine at rank one, else through the module engine, which
    the offsets make order by total degree."""
    bits, low = ModuleContext.COMP_BITS, (1 << ModuleContext.COMP_BITS) - 1
    if len(offsets) == 1:
        gens = [{k >> bits: c for k, c in col.items()} for col in cols]
        basis = buchberger(gens, RingContext(ring), ring.field, budget)
        return [{k << bits: c for k, c in g.items()} for g in basis]
    gens = [{k + offsets[k & low]: c for k, c in col.items()} for col in cols]
    return buchberger(gens, ModuleContext(ring, len(offsets)), ring.field, budget)


def _frame_pairs(ring, level, index, layout):
    """The minimal pairs of a frame level: for each element i, in order,
    the (i, j, lcm) with j > i in i's lead component whose lcm of the
    leads is minimal among them (the first j for equal lcms), ordered
    lex-descending by lcm monomial; ``lcm`` is the key of the lcm in the
    level's layout."""
    s, pairs, rctx = layout.shift, [], RingContext(ring)
    for i, (lead, _) in enumerate(level):
        later = index.comps[lead & layout.compmask] >> (i + 1) << (i + 1)
        lcms = []
        while later:
            bit = later & -later
            later ^= bit
            j = bit.bit_length() - 1
            # under one degree field a divisor's fields, and so its key, are larger
            lcms.append((-ring.lcm_fields(lead >> s, level[j][0] >> s), j))
        lcms.sort()
        minimal, group = rctx.index(), []
        for fields, j in lcms:
            if not minimal.has_divisor(-fields):
                minimal.append(-fields)
                group.append((ring.decode(-fields), j))
        group.sort(reverse=True)
        pairs.extend((i, j, layout.lcm(lead, level[j][0])) for _, j in group)
    return pairs


def _schreyer_frame(module: PresentedModule, budget) -> ChainComplex:
    """A free resolution of ``module``, over a polynomial ring, that is
    usually not minimal: the Schreyer frame of the reduced Groebner basis
    of its columns (Schreyer's theorem; La Scala and Stillman, J. Symbolic
    Comput. 26 (1998); Erocal, Motsak, Schreyer and Steenpass, J. Symbolic
    Comput. 74 (2016)).

    F_k's layout is ``RingContext(ring, s, (1 << s) - 1)``, s = COMP_BITS *
    (k + 1): the key of x^a * e_i is the key in F_(k-1) of x^a * lead(g_i),
    g_i the i-th column of d_k, shifted up over the code of i, so the key
    order is the induced order with ties broken by index.  F_0's keys are
    module keys, each component's twist above the lowest added in the top
    degree field.  Each level is a Groebner basis of the syzygies of the one
    before, in the induced order, and is sorted within each lead component
    lex-descending by lead monomial, so by Schreyer's lemma the frame has
    length at most the number of variables.  A minimal pair (i, j) of
    ``_frame_pairs`` gives the element with lead m*e_i: the normal form of
    m*g_i - m'*g_j by the level, one budget unit, whose (popped key,
    reducer, coefficient) steps are its other terms, each key shifted into
    the next layout."""
    ring, twists = module.ring, module.ambient.twists
    field, p, bits = ring.field, ring.field.p, ModuleContext.COMP_BITS
    modules, maps = [module.ambient], []
    if not module.relations.ncols:
        return ChainComplex(ring, modules, maps)
    # each component's twist above the lowest, in the top degree field
    base, low = min(twists), (1 << bits) - 1
    offsets = [(t - base) << (ring.key_bits - DEG_BITS + bits) for t in reversed(twists)]
    level = [(max(g), g) for g in _frame_generators(ring, module.relations.cols, offsets, budget)]
    level.sort(key=lambda e: (e[0] & low, ring.decode(e[0] >> bits)), reverse=True)
    cols = [{k - offsets[k & low]: c for k, c in g.items()} for _, g in level]
    k, unit, minus = 1, field.coerce(1), field.neg(field.coerce(1))
    while level:  # level: the columns of d_k, as (lead, terms) in F_(k-1)'s layout
        s, n = bits * k, len(level)
        layout = RingContext(ring, s, (1 << s) - 1)
        maps.append(PolyMatrix.packed(ring, modules[-1].rank, cols))
        modules.append(GradedFreeModule(ring, [ring.key_degree(lead >> s) + base for lead, _ in level]))
        index = layout.index(level)
        nxt = []
        for i, j, key in _frame_pairs(ring, level, index, layout):
            (lead_i, g_i), (lead_j, g_j) = level[i], level[j]
            work, steps = {}, []
            axpy_terms(work, g_i, 1, key - lead_i, p, layout.guard)
            axpy_terms(work, g_j, -1, key - lead_j, p, layout.guard)
            budget.spend()
            normal_form_terms(work, index, p, layout.guard, steps=steps)  # zero: a Groebner basis
            key <<= bits
            syz = {key | (n - 1 - i): unit, key | (n - 1 - j): minus}
            for t, l, c in steps:
                syz[(t << bits) | (n - 1 - l)] = field.neg(c)
            nxt.append((key | (n - 1 - i), syz))
        # the columns of d_(k+1): x^a * e_l has the key of x^a * lead(g_l) above l's code
        leads = [lead for lead, _ in level]
        cols = [{((((t >> bits) - leads[n - 1 - (t & low)]) >> s) + ring.one_key) << bits | (t & low): c
                 for t, c in g.items()} for _, g in nxt]
        level, k = nxt, k + 1
    return ChainComplex(ring, modules, maps)


class ResolutionBuilder:
    """Minimal free resolution of a module, by one of four routes chosen by
    the ring and the module alone; no option selects one.

    Every route starts from ``presentation_minimalize``.  Two know the
    whole resolution's modules, so its Betti table, at construction:

    - a cyclic R/(f), f a homogeneous regular sequence of m <= n elements
      of positive degree over a graded R that is not Artinian, by the
      Koszul complex on f (``_koszul_resolution``), whose twists are the
      subset sums of the forms' degrees;
    - every other module over a polynomial ring by one Schreyer frame
      (``_schreyer_frame``), whose minimal twists are read off the ranks of
      its constant blocks (``_frame_resolution``).

    On these two routes ``modules`` is read without building a map; the
    first read of ``maps`` (or ``differential``) builds the Koszul maps or
    runs ``minimalize`` on the frame, once, and puts the built complex's
    modules in place: the same twists, perhaps in another order.  The other
    two routes go one syzygy step at a time, each step keeping a minimal
    generating set, so the differentials have positive-degree entries and
    the ranks are Betti numbers: linear algebra over a graded Artinian ring
    (``_artinian_step``), and lift-to-ambient syzygies over any other ring
    with relations (``_syzygy_step``), whose minimal resolutions are
    generally infinite.  ``budget`` pays for what construction computes,
    the whole resolution on the first two routes (the maps built on first
    read included) and the first step on the others; each ``extend``
    charges its caller's.

    ``known_at``, the one record of where the resolution ends, is the
    least bound n at which a builder extended to n maps has seen the end
    (None until then): a whole route's length, set at construction; on a
    step route, 0 for a free module, else k + 1 when the step after k maps
    comes back empty.  That step runs only when more than k maps are asked
    for, so a step route is not complete at a bound equal to its length,
    whatever was asked before.
    """

    def __init__(self, module: PresentedModule, budget=None):
        ring = module.ring
        budget = _as_budget(budget)
        self.ring = ring
        # read only by cakbench's tracer, for resolve.resolutions.distinct_ratio
        self.qrels = tuple(ring.relations)
        module = presentation_minimalize(module, budget)
        twists0 = module.ambient.twists
        self.modules = [GradedFreeModule(ring, twists0)]
        self._maps: list[PolyMatrix] = []
        self._whole = None  # on a whole route, until maps are read: the function that builds them
        self._artinian = None  # R's own view when R is graded Artinian
        self._step = _syzygy_step  # a step route's step: (d, its twists, budget) -> next d, twists
        if ring.relations and ring.homogeneous:
            with contextlib.suppress(NotArtinianError):  # an infinite staircase
                self._artinian = PresentedModule.free(ring).target(budget)
        whole = None if self._artinian is not None else _koszul_resolution(module, budget)
        if whole is None and not ring.relations:
            whole = _frame_resolution(module, budget)
        if whole is not None:
            self.modules, self._whole = whole
            self._next, self.known_at = None, len(self.modules) - 1
            return
        # the next differential and its column degrees, computed but not yet
        # appended.  presentation_minimalize left every relation entry
        # reduced modulo J, so over an Artinian ring the columns lie in F (x) R
        cols, degs = module.relations.cols, module.column_degrees
        if self._artinian is not None:
            self._step = functools.partial(_artinian_step, self._artinian)
            self._next = _artinian_minimal(self._artinian, cols, degs, twists0, budget)
        else:
            self._next = _minimal_columns(ring, cols, degs, twists0, budget)
        self.known_at = None if self._next[1] else 0

    @property
    def complete(self) -> bool:
        return self.known_at is not None

    @property
    def maps(self) -> list[PolyMatrix]:
        """The differentials built so far; a whole route builds all of them
        on the first read."""
        if self._whole is not None:
            cx, self._whole = self._whole(), None
            self._maps, self.modules = cx.maps, cx.modules
        return self._maps

    def extend(self, n_maps: int, budget=None):
        """Ensure at least ``n_maps`` differentials, or the end seen."""
        budget = _as_budget(budget)
        while self.known_at is None and len(self._maps) < n_maps:
            if self._next is None:
                self._next = self._step(self._maps[-1], self.modules[-1].twists, budget)
            mat, degs = self._next
            self._next = None
            if not degs:  # the step after k >= 1 maps: the end, seen at bound k + 1
                self.known_at = len(self._maps) + 1
                break
            self._maps.append(mat)
            self.modules.append(GradedFreeModule(self.ring, degs))

    def rank(self, i: int) -> int:
        """Rank of F_i; 0 past termination (call ``extend(i)`` first)."""
        return self.modules[i].rank if i < len(self.modules) else 0

    def differential(self, i: int) -> PolyMatrix:
        """d_i : F_i -> F_(i-1), the zero map past termination (call
        ``extend(i)`` first)."""
        if i <= len(self.maps):
            return self.maps[i - 1]
        return PolyMatrix.zero(self.ring, self.rank(i - 1), self.rank(i))


def minimal_free_resolution(
    module: PresentedModule,
    max_length: int | None = None,
    budget=None,
) -> Resolution:
    """Minimal graded free resolution of coker(relations), to ``max_length``.

    Over the polynomial ambient the default length bound is the number of
    variables (the global-dimension bound), which every resolution there
    meets.  Over a quotient (a ring with relations) the relations are
    divided out; resolutions are generally infinite, so an explicit
    ``max_length`` is required.  The result is a truncation of the module's
    own resolution, which keeps whatever was computed for later calls,
    ``complete`` when it is known to end within the bound (on a step route
    not at a bound equal to its length; see ``ResolutionBuilder``).
    """
    ring = module.ring
    if max_length is None:
        if ring.relations:
            raise PreconditionError(
                "resolutions over a quotient ring need an explicit length bound"
            )
        max_length = len(ring.vars)
    if max_length < 0:
        raise PreconditionError("max_length must be >= 0")
    budget = _as_budget(budget)
    builder = module.resolution(budget)
    builder.extend(max_length, budget)
    return Resolution(builder, max_length)


def minimalize(complex: ChainComplex, budget=None) -> ChainComplex:
    """Homotopy-equivalent complex with every unit (degree-0) differential
    entry cancelled.  Idempotent on already-minimal complexes.  Each
    cancellation costs one budget unit.

    The maps are worked on as packed columns, every entry reduced modulo the
    relations by the ring's handle of J (``IdealHandle.module_normal_form``),
    which builds no index of its own.  Units are taken in order of map, then
    row, then column; a cancellation at (r, c) adds to each column with an
    entry e in row r -e/u times the pivot column, one ``axpy_terms`` per
    term of e, and deletes row r, column c and their neighbours' matching
    column and row.
    Rows and columns keep their first numbering until the end, when the
    surviving ones are renumbered once."""
    ring, field = complex.ring, complex.ring.field
    p, bits = field.p, ModuleContext.COMP_BITS
    low, guard = (1 << bits) - 1, ring.guard << bits
    bound = (ring.one_key + 1) << bits  # the keys of constant entries lie below it
    budget = _as_budget(budget)
    ranks = [m.rank for m in complex.modules]
    cols = [dict(enumerate(map(dict, m.cols))) for m in complex.maps]
    relations = None
    if ring.relations and any(m.nrows and m.ncols for m in complex.maps):
        relations = relations_ideal(ring)
        relations.divisor_index(budget)  # J's basis is charged here, all-zero maps included
        for mcols in cols:
            for c, col in mcols.items():
                mcols[c] = relations.module_normal_form(col, budget=budget)

    def track(munits, c, col):
        # munits[c]: the row codes of column c whose entry is a nonzero
        # constant and nothing else, when there are any
        u = ()
        if col and min(col) < bound:
            codes = [k & low for k in col]
            u = [k & low for k in col if k < bound and codes.count(k & low) == 1]
        if u:
            munits[c] = u
        else:
            munits.pop(c, None)

    units = [{} for _ in cols]
    for munits, mcols in zip(units, cols):
        for c, col in mcols.items():
            track(munits, c, col)
    alive = [[True] * r for r in ranks]
    idx = 0
    while True:
        # a cancellation in map idx rewrites only map idx and deletes a row
        # or column of its neighbours, so maps before idx gain no unit
        while idx < len(cols) and not units[idx]:
            idx += 1
        if idx == len(cols):
            break
        budget.spend()
        r, c = min((ranks[idx] - 1 - max(u), c) for c, u in units[idx].items())
        code, mcols, munits = ranks[idx] - 1 - r, cols[idx], units[idx]
        pivot, ukey = mcols.pop(c), (ring.one_key << bits) | code
        del munits[c]
        scale = field.neg(field.inv(pivot.pop(ukey)))
        for cc, col in mcols.items():
            entry = [(k, v) for k, v in col.items() if k & low == code]
            if not entry:
                continue
            acc = col if relations is None else {}
            for k, v in entry:
                del col[k]
                axpy_terms(acc, pivot, scale * v, k - ukey, p, guard)
            if relations is not None:
                axpy_terms(col, relations.module_normal_form(acc, budget=budget), 1, 0, p, guard)
            track(munits, cc, col)
        if idx + 1 < len(cols):  # row c of the next map
            code_c = ranks[idx + 1] - 1 - c
            for cc, col in cols[idx + 1].items():
                if drop := [k for k in col if k & low == code_c]:
                    for k in drop:
                        del col[k]
                    track(units[idx + 1], cc, col)
        if idx:  # column r of the previous map, which holds no unit
            del cols[idx - 1][r]
        alive[idx][r] = alive[idx + 1][c] = False

    twists = [[t for t, a in zip(m.twists, keep) if a] for m, keep in zip(complex.modules, alive)]
    while len(twists) > 1 and not twists[-1]:
        twists.pop()
        cols.pop()
    maps = []
    for i, mcols in enumerate(cols):
        nrows = len(twists[i])
        if nrows == ranks[i]:
            out = list(mcols.values())
        else:
            rows = [r for r in range(ranks[i]) if alive[i][r]]
            recode = {ranks[i] - 1 - r: nrows - 1 - n for n, r in enumerate(rows)}
            out = [{k - (k & low) + recode[k & low]: v for k, v in col.items()} for col in mcols.values()]
        maps.append(PolyMatrix.packed(ring, nrows, out))
    return ChainComplex(ring, [GradedFreeModule(ring, t) for t in twists], maps)


# -- lengths, Hilbert data, regular sequences ---------------------------------


def module_length(ideal: IdealHandle, budget=None) -> int:
    """Vector-space dimension of ring/(ideal + relations); requires the
    quotient to be Artinian and supported at the origin."""
    try:
        return len(standard_monomials(ideal, budget))
    except NotArtinianError as e:
        raise NotArtinianError(f"not Artinian at origin: {e}") from None


def hilbert_numerator(gens, weights, budget=None) -> dict[int, int]:
    """K-polynomial of S/(monomial ideal): numerator of the Hilbert series
    over the product of (1 - t^w).  ``gens`` are exponent tuples.  Every
    ideal the pivot recursion meets is kept sorted by its pivot order,
    (weighted degree, tuple), so it has one memo key however it is met, and
    costs one budget unit per generator once."""
    weights = tuple(weights)
    budget = _as_budget(budget)

    def wdeg(e):
        return sum(map(operator.mul, e, weights))

    def minimal(fs):
        # the weights are positive, so a proper divisor comes first in this order
        out = []
        for g in sorted(set(fs), key=lambda e: (wdeg(e), e)):
            if not any(all(map(operator.le, h, g)) for h in out):
                out.append(g)
        return tuple(out)

    memo = {}

    def rec(fs):
        if not fs:
            return {0: 1}
        if fs in memo:
            return memo[fs]
        budget.spend(len(fs))
        pivot, rest = fs[-1], fs[:-1]
        colon = minimal([tuple([a - b if a > b else 0 for a, b in zip(e, pivot)]) for e in rest])
        out = dict(rec(rest))
        axpy_terms(out, rec(colon), -1, wdeg(pivot), None, 0)
        memo[fs] = out
        return out

    return rec(minimal(map(tuple, gens)))


def quotient_hilbert_numerator(ideal: IdealHandle, budget=None) -> dict[int, int]:
    """K-polynomial of ring/(ideal + relations), read off the lead-term ideal
    of its basis once per handle: once per ring for R on the handle of J."""
    if ideal._hilb is None:
        leads = [ideal.ring.decode(g.lead_key()) for g in ideal.groebner_basis(budget)]
        ideal._hilb = hilbert_numerator(leads, ideal.ring.weights, budget)
    return dict(ideal._hilb)


def lead_module_hilbert_numerator(ctx, engine, twists, budget) -> dict[int, int]:
    """K-polynomial of the cokernel of the submodule of a completed module
    engine over the polynomial ambient, read off its lead-term module, which
    the engine's leads generate component by component; ``twists`` are the
    degrees of the basis vectors of ``ctx``."""
    per = [[] for _ in range(ctx.ncomp)]
    for key in engine.leads:
        comp, mono = ctx.decode(key)
        per[comp].append(ctx.ring.decode(mono))
    out: dict[int, int] = {}
    for tau, gens in zip(twists, per):
        axpy_terms(out, hilbert_numerator(gens, ctx.ring.weights, budget), 1, tau, None, 0)
    return out


def alternating_twist_sum(complex: ChainComplex) -> dict[int, int]:
    """Sum over i of (-1)^i t^(twists of F_i), as an integer polynomial."""
    out: dict[int, int] = {}
    for i, mod in enumerate(complex.modules):
        for t in mod.twists:
            axpy_terms(out, {t: 1}, -1 if i % 2 else 1, 0, None, 0)
    return out


def is_regular_sequence(ring, elems, budget=None) -> bool:
    """Hilbert-series test: homogeneous elements f_i of positive degrees d_i
    of the graded ring R = ring/(relations) form a regular sequence iff
    HS(R/(f)) = HS(R) * prod(1 - t^(d_i)) (Stanley, Adv. Math. 28 (1978)),
    compared as Hilbert numerators read off lead-term ideals.  The
    difference is the sum over k of t^(d_k) * HS(0 : f_k in
    R/(f_1..f_(k-1))) * prod_(j>k) (1 - t^(d_j)); each nonzero summand has a
    positive lowest coefficient, so the sum vanishes only when every
    annihilator does.

    Over a polynomial ring with m <= n elements a face test comes first:
    if the f_i with x_(m+1)..x_n set to 0 have finite colength in
    k[x_1..x_m], (f, x_(m+1), .., x_n) is a homogeneous system of parameters
    of the Cohen-Macaulay S, so f is regular (Bruns-Herzog, Thm. 2.1.2);
    for m = n finite colength is also necessary, so the test decides."""
    elems = list(elems)
    budget = _as_budget(budget)
    if any(e.is_zero() for e in elems):
        return False
    degrees = []
    for e in elems:
        d = e.homogeneous_degree()
        if d is None:
            raise PreconditionError("regular-sequence test wants homogeneous elements")
        if d == 0:
            return False
        degrees.append(d)
    return _regular_forms(ring, elems, degrees, budget)


def _regular_forms(ring, elems, degrees, budget) -> bool:
    """``is_regular_sequence`` on nonzero forms of the positive ``degrees``."""
    if not elems:
        return True
    if not ring.homogeneous:
        raise PreconditionError("regular-sequence test wants homogeneous relations")
    if not ring.relations and len(elems) <= len(ring.vars):
        face = _face_is_artinian(ring, elems, budget)
        if face or len(elems) == len(ring.vars):
            return face
    want = quotient_hilbert_numerator(relations_ideal(ring), budget)
    for d in degrees:
        shifted = dict(want)
        axpy_terms(shifted, want, -1, d, None, 0)  # times (1 - t^d)
        want = shifted
    return quotient_hilbert_numerator(IdealHandle(ring, elems), budget) == want


def _face_is_artinian(ring, elems, budget) -> bool:
    """The face test of ``is_regular_sequence``, for m = len(elems)."""
    m = len(elems)
    # a field holds EXP_MASK - exponent, so a term free of x_v fills field v
    full = sum(EXP_MASK << s for s in ring.field_shifts[m:])
    engine = GroebnerEngine(RingContext(ring), ring.field, budget)
    engine.add_generators([{k: c for k, c in f.terms.items() if k & full == full} for f in elems])
    leads = [ring.decode(k) for k in engine.leads]  # they generate the lead ideal
    return all(any(e[i] == sum(e) > 0 for e in leads) for i in range(m))


def graded_rank_check(ring, q_ideal: IdealHandle, i: int, budget=None) -> int:
    """Minimal generator count of Q^i/Q^(i+1) for an ideal Q of the
    polynomial ring generated by a homogeneous regular sequence; asserts it
    equals binom(i + n - 1, n - 1).

    Regularity is certified by ``is_regular_sequence`` (its face test).
    When S/Q is Artinian, its length is then prod(degrees) / prod(weights),
    and the layer length is also checked against a free S/Q-module of the
    asserted rank.
    """
    budget = _as_budget(budget)
    if ring.relations:
        raise PreconditionError("graded_rank_check works over the polynomial ring")
    gens = list(q_ideal.gens)
    n = len(gens)
    if n == 0 or i < 1:
        raise PreconditionError("need a nonempty ideal and i >= 1")
    for g in gens:
        if g.homogeneous_degree() is None:
            raise PreconditionError("parameter ideal generators must be homogeneous")
    if not is_regular_sequence(ring, gens, budget):
        raise PreconditionError("non-regular sequence detected")
    qi = q_ideal.power(i)
    # Q^(i+1) sits inside m*Q^i, so mu(Q^i / Q^(i+1)) = mu(Q^i)
    mu = minimal_generator_count(ring, qi.gens, budget)
    expected = math.comb(i + n - 1, n - 1)
    if mu != expected:
        raise CakError(f"rank of Q^{i}/Q^{i + 1} is {mu}, expected {expected}")
    if n == len(ring.vars):
        len_sq = math.prod(g.degree() for g in gens) // math.prod(ring.weights)
        layer = module_length(q_ideal.power(i + 1), budget) - module_length(qi, budget)
        if layer != expected * len_sq:
            raise CakError("layer length does not match a free S/Q-module of that rank")
    return mu

"""Groebner engine and ideal-level operations.

One engine serves polynomial rings and free modules: a term position is a
single int key (see :mod:`cak.polyring`), laid out by one class,
:class:`RingContext`: exponent fields ``shift`` bits up, over component
bits.  Module keys put the component rank in the low 32 bits and, for
syzygy elimination, a block bit above the monomial part so that target
components dominate.

Every search for a lead that divides a key goes through a
:class:`~cak._kernel.DivisorIndex` built by the context: the reducers of a
normal form, the chain criterion, the principal-syzygy, rewriter,
regular-reducibility and singular-lead tests of the signature completion,
the minimal leads of a reduced basis, the cached reducers of an
:class:`IdealHandle` and the walk of :func:`staircase`, which visits keys.
No search on keys scans the lead list.  The Hilbert recursion of
:mod:`cak.resolve` is the one walk left on exponent tuples, scanning its
generators: its pivot order (weighted degree, then tuple) fixes its budget
units.

Rank-one input (every ideal basis, elimination and ring-map kernel) is
completed by a signature-based algorithm, which never reduces a Koszul
syzygy and so never reduces to zero on a regular sequence, and queues each
J-pair signature once; module input is completed by Buchberger's pair
loop.  Both end in the same reduced basis.
The pair loop can stop at a degree: a minimal generating subset over
homogeneous relations completes its membership basis only through the
degree of the column it tests, since homogeneous pairs of higher degree
never reduce a column of lower degree.  In a syzygy elimination layout only
the pairs of the row block are processed: by Schreyer's theorem their
reductions already give generators of the syzygy module, so syzygies are
read off the engine as they appear, never off a reduced basis.

Ideals of a quotient ring R = S/J are handled through their full preimage:
an :class:`IdealHandle` always computes the reduced Groebner basis of
``gens + ring.relations`` in the ambient polynomial ring, which makes
membership, equality, colon and intersection uniform across S and S/J.
Submodules of R^r are handled the same way, in the S-lift: every module
engine is seeded with the relation multiples J*e_i of
:func:`relation_multiples`, and syzygies leave the engine as packed term
dicts.  A free R^r needs no engine: the ring's one handle of J reduces its
elements from cached monomial normal forms (``IdealHandle.module_normal_form``).
"""

from __future__ import annotations

import heapq
import itertools

from ._kernel import DivisorIndex, axpy_terms, normal_form_terms, scale_terms
from .errors import CakError, DegreeOverflowError, PreconditionError, NotArtinianError, ResourceLimitError
from .polyring import Field, Polynomial, RingPresentation, parse_poly

DEFAULT_BUDGET = 10**6


class Budget:
    """Work counter.  One unit is charged:

    - per pair taken from a completion's queue: a Buchberger pair of a
      module completion, a J-pair signature of a rank-one signature
      completion (queued once);
    - per minimal pair reduced by a level of a Schreyer frame
      (``resolve._schreyer_frame``), and per unit cancelled by
      ``resolve.minimalize``, which the frame route charges when it reads
      the frame's constant ranks, before it minimalizes;
    - per standard monomial enumerated, and per generator of each monomial
      ideal met by the ``resolve.hilbert_numerator`` recursion (for R itself, once per ring);
    - per vector inserted into a ``_linalg.Echelon`` or skipped as zero
      (the Artinian resolution steps, the Hom/Tensor ranks of Ext/Tor and
      the socle);
    - per basis element of an Eagon-Northcott or Koszul complex, per memo
      entry of a ``complexes.determinant`` and per rank of
      ``complexes.betti_rank_formula``;
    - per product of two generators formed by ``IdealHandle.product``,
      ``power`` included.

    A cached datum is charged once, to the call that computes it.
    Exceeding the limit is an error, never a wrong answer."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = None):
        self.limit = DEFAULT_BUDGET if limit is None else int(limit)
        self.used = 0

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise ResourceLimitError(
                f"work budget of {self.limit} exceeded"
            )


def _as_budget(budget) -> Budget:
    if budget is None:
        return Budget()
    if isinstance(budget, Budget):
        return budget
    return Budget(budget)


class RingContext:
    """The layout of term keys: exponent fields ``shift`` bits up, over the
    component bits ``compmask``.  It derives what a
    :class:`~cak._kernel.DivisorIndex` reads (``shifts``, ``cmask``,
    ``gmask``) and the guard of a product (``guard``), builds the index and
    takes lcms.  It serves three layouts: polynomial keys at shift 0,
    module keys (:class:`ModuleContext`) at ``COMP_BITS`` and level k of a
    Schreyer frame at COMP_BITS * (k + 1) over every lower bit."""

    __slots__ = ("ring", "shift", "compmask", "shifts", "cmask", "gmask", "guard")

    def __init__(self, ring: RingPresentation, shift: int = 0, compmask: int = 0):
        self.ring, self.shift, self.compmask = ring, shift, compmask
        self.shifts = tuple(s + shift for s in ring.field_shifts)
        self.cmask, self.gmask = (m << shift for m in ring.div_mask)
        self.guard = ring.guard << shift

    def index(self, entries=()) -> DivisorIndex:
        """A divisor index over this layout holding the (lead, terms) pairs
        of ``entries``, in order."""
        index = DivisorIndex(self.shifts, self.compmask, self.cmask, self.gmask)
        for lead, terms in entries:
            index.append(lead, terms)
        return index

    def lcm(self, k1: int, k2: int):
        """The key of the lcm of two keys of one component; None for two
        components."""
        s, comp = self.shift, self.compmask
        if (k1 ^ k2) & comp:
            return None
        mono = self.ring.lcm_key((k1 & ~comp) >> s, (k2 & ~comp) >> s)
        return (mono << s) | (k1 & comp)


class ModuleContext(RingContext):
    """Layout for terms of a free module of rank ``ncomp``.

    The first ``fhigh`` components form the dominant order block (used to
    read syzygies off an elimination Groebner basis); with ``fhigh=0`` the
    order is plain term-over-position with earlier components breaking ties.
    ``twists`` are the degrees of the basis vectors, so ``degree`` is the
    internal degree of a term of a graded free module; by default they are
    all zero and stored as ``()``, so a context takes the same memory at
    every rank.
    """

    COMP_BITS = 32

    __slots__ = ("ncomp", "fhigh", "twists", "blockbit", "_rk_mask")

    def __init__(self, ring: RingPresentation, ncomp: int, fhigh: int = 0, twists=None):
        if ncomp >= 1 << self.COMP_BITS:
            raise CakError("module rank too large")
        self.ncomp = ncomp
        self.fhigh = fhigh
        self.twists = () if twists is None else tuple(twists)
        self.blockbit = 1 << (self.COMP_BITS + ring.key_bits)
        super().__init__(ring, self.COMP_BITS, ((1 << self.COMP_BITS) - 1) | self.blockbit)
        self._rk_mask = (1 << ring.key_bits) - 1

    def key(self, comp: int, mono_key: int) -> int:
        k = (mono_key << self.COMP_BITS) + (self.ncomp - 1 - comp)
        if comp < self.fhigh:
            k += self.blockbit
        return k

    def decode(self, key: int):
        comp = self.ncomp - 1 - (key & ((1 << self.COMP_BITS) - 1))
        mono = (key >> self.COMP_BITS) & self._rk_mask
        return comp, mono

    def degree(self, key: int) -> int:
        comp, mono = self.decode(key)
        return self.ring.key_degree(mono) + (self.twists[comp] if self.twists else 0)

    # -- element conversion ------------------------------------------------

    def from_column(self, column) -> dict:
        """Column of polynomials (length ncomp) -> term dict."""
        terms = {}
        for i, poly in enumerate(column):
            for k, c in poly.terms.items():
                terms[self.key(i, k)] = c
        return terms

    def to_column(self, terms: dict) -> list[Polynomial]:
        """Term dict -> column of ncomp polynomials; the zero entries share
        one zero polynomial."""
        per: dict = {}
        for k, c in terms.items():
            comp, mono = self.decode(k)
            per.setdefault(comp, {})[mono] = c
        zero = self.ring.zero()
        return [Polynomial(self.ring, per[i]) if i in per else zero for i in range(self.ncomp)]

    def column_degree(self, terms: dict):
        """Internal degree of a homogeneous term dict; None when it is zero.
        Components are checked in order, each first for homogeneity and
        then against the degree of the earlier ones."""
        per: dict = {}
        for k in terms:
            comp, mono = self.decode(k)
            d = self.ring.key_degree(mono)
            if per.setdefault(comp, d) != d:
                per[comp] = None
        deg = None
        for comp in sorted(per):
            d = per[comp]
            if d is None:
                raise CakError("matrix column is not homogeneous")
            if self.twists:
                d += self.twists[comp]
            if deg is None:
                deg = d
            elif deg != d:
                raise CakError("matrix column has inconsistent degrees")
        return deg


def relation_multiples(ctx, rank: int) -> list[dict]:
    """J*e_i: the ring's relations times each of the first ``rank`` basis
    vectors of ``ctx``, relation by relation.  Every module engine over
    R = S/J adds these, so it computes the S-lift of a submodule of R^rank:
    the submodule of S^rank that contains J*S^rank."""
    return [
        {ctx.key(i, k): c for k, c in rel.terms.items()}
        for rel in ctx.ring.relations
        for i in range(rank)
    ]


def _monic(terms: dict, field: Field) -> dict:
    lc = terms[max(terms)]
    return terms if lc == field.coerce(1) else scale_terms(terms, field.inv(lc), field.p)


class GroebnerEngine:
    """Groebner completion over one term layout.

    Rank-one input (a :class:`RingContext` at shift 0) goes through
    :meth:`add_generators`, a signature-based completion.  Module input
    goes through the incremental Buchberger loop of :meth:`add_raw`,
    :meth:`add` and :meth:`complete`: normal pair strategy (minimal lcm
    degree first, ties by pair index) plus the chain criterion.  Pair
    degrees include the context's twists, and ``complete(upto)`` leaves
    the pairs above degree ``upto`` queued, so on homogeneous input the
    basis is a Groebner basis through that degree.  In an elimination
    layout (``fhigh`` > 0) an element below the block takes no pairs.
    ``zero_reductions`` counts the reductions that gave zero.

    The basis lives in one :class:`~cak._kernel.DivisorIndex`; ``G`` and
    ``leads`` are its lists.  Every search for a lead dividing a key (a
    reducer, a chain-criterion witness, a principal syzygy, a rewriter) is
    a query of that index or of the signature index of a step.
    """

    def __init__(self, ctx, field: Field, budget: Budget):
        self.ctx = ctx
        self.field = field
        self.budget = budget
        self.index = ctx.index()
        self.G: list[dict] = self.index.terms
        self.leads: list[int] = self.index.leads
        self._heap: list = []
        self._pending: set = set()
        self.zero_reductions = 0

    def reduce(self, terms: dict) -> dict:
        return normal_form_terms(terms, self.index, self.field.p, self.ctx.guard)

    def contains(self, terms: dict) -> bool:
        return not self.reduce(terms)

    def _append(self, terms: dict):
        ctx, t, lk = self.ctx, len(self.G), max(terms)
        self.index.append(lk, terms)
        if ctx.fhigh and not lk & ctx.blockbit:
            # a syzygy of an elimination layout reduces tails, takes no pairs
            return
        # pairs exist only within a component (and its block bit)
        peers = self.index.comps[lk & ctx.compmask] ^ (1 << t)
        while peers:
            low = peers & -peers
            peers ^= low
            i = low.bit_length() - 1
            lcm_key = ctx.lcm(self.leads[i], lk)
            heapq.heappush(self._heap, (ctx.degree(lcm_key), i, t, lcm_key))
            self._pending.add((i, t))

    def add_raw(self, terms: dict):
        """Insert a generator without pre-reduction (classic Buchberger)."""
        if terms:
            self._append(_monic(dict(terms), self.field))

    def add(self, terms: dict, upto: int | None = None) -> bool:
        """Complete through degree ``upto``, reduce, insert the remainder if
        nonzero; True if the basis grew.  The new element's pairs stay
        queued for the next call."""
        self.complete(upto)
        nf = self.reduce(terms)
        if not nf:
            return False
        self._append(_monic(nf, self.field))
        return True

    def complete(self, upto: int | None = None):
        """Process queued pairs in degree order, all of them or only those
        of degree at most ``upto``; the others stay queued."""
        ctx, G, leads = self.ctx, self.G, self.leads
        p = self.field.p
        heap, pending = self._heap, self._pending
        while heap and (upto is None or heap[0][0] <= upto):
            _, i, j, lcm_key = heapq.heappop(heap)
            pending.discard((i, j))
            self.budget.spend()
            # chain criterion: a third lead dividing the lcm, both its pairs done
            chained = False
            for t in self.index.divisors(lcm_key, ~(1 << i | 1 << j)):
                if ((i, t) if i < t else (t, i)) not in pending and (
                    (j, t) if j < t else (t, j)
                ) not in pending:
                    chained = True
                    break
            if chained:
                continue
            s: dict = {}
            axpy_terms(s, G[i], 1, lcm_key - leads[i], p, ctx.guard)
            axpy_terms(s, G[j], -1, lcm_key - leads[j], p, ctx.guard)
            nf = self.reduce(s)
            if nf:
                self._append(_monic(nf, self.field))
            else:
                self.zero_reductions += 1

    def add_generators(self, gens):
        """Signature-based completion of rank-one generators (the RB
        algorithm of Eder and Faugere's survey, incremental, with
        position-over-term signatures).

        Generators are sorted by lead key and added one at a time, each
        fully reduced by the basis so far.  Within the step of generator
        f_i a signature m*e_i is kept as the key of m; the basis from the
        earlier steps lies in lower positions, so it reduces freely.
        An element's ratio is its signature minus its lead; a J-pair's
        signature is the lcm of the leads plus the larger ratio, so a pair
        of equal ratios is skipped before any lcm.  A signature that is
        principal (divisible by a lead of the earlier basis) or met before
        in the step is not queued; both tests read the lcm's exponent
        fields alone (``lcm_fields``).  The queue holds bare signatures,
        each once, popped in increasing order: RB reduces a signature once,
        from its canonical rewriter, so which pair queued it does not
        matter.  A signature divisible by one that reduced to zero is
        skipped.  Otherwise the multiple of its canonical rewriter, the
        last-added element whose signature divides it, is reduced, unless
        that multiple's lead is not regular reducible (it would come out
        singular).  Reducing the rewriter's multiple keeps the rewrite
        criterion sound: the rewriter need not have a J-pair of its own at
        that signature, for instance when its pair at a divisor of it came
        out singular.
        Reductions are signature-regular only, and a result whose lead is
        reducible at its own signature is dropped.  On a regular sequence
        no reduction gives zero.
        """
        ctx = self.ctx
        ring, p, guard, cmask = ctx.ring, self.field.p, ctx.guard, ctx.cmask
        lcm_fields, lcm_key = ring.lcm_fields, ring.lcm_key
        G, leads, index = self.G, self.leads, self.index
        for f in sorted((g for g in gens if g), key=max):
            f = self.reduce(f)
            if not f:
                self.zero_reductions += 1
                continue
            start = len(G)
            earlier = (1 << start) - 1  # the basis of the earlier steps
            sigs: list = [None] * start
            ratios: list = [None] * start  # sig - lead: a multiple's lcm + ratio is its signature
            # the signatures of this step, element start + b at position b
            sig_index = ctx.index()
            zero_sigs = ctx.index()
            heap: list = []
            seen: set = set()  # the exponents of the signatures queued or found principal

            def insert(terms, sig):
                t, lk = len(G), max(terms)
                index.append(lk, terms)
                sigs.append(sig)
                sig_index.append(sig)
                ratio = sig - lk
                ratios.append(ratio)
                # an earlier-basis lead coprime to lk gives jsig = lead * sig,
                # a principal syzygy: only those sharing a variable are paired
                peers = (index.sharing(lk) & earlier) | (((1 << t) - 1) ^ earlier)
                while peers:
                    low = peers & -peers
                    peers ^= low
                    j = low.bit_length() - 1
                    a, b, r = lk, leads[j], ratio  # a: the side of the larger ratio
                    if j >= start:
                        if ratios[j] == ratio:
                            continue
                        if ratios[j] > ratio:
                            a, b, r = b, a, ratios[j]
                    # the exponent fields of jsig, under the degree of its owner's signature
                    jsig = lcm_fields(a, b) + r
                    e = jsig & cmask
                    if e in seen:
                        continue
                    seen.add(e)
                    # a lead of the earlier basis dividing jsig: a principal syzygy
                    if not index.has_divisor(jsig, earlier):
                        heapq.heappush(heap, lcm_key(a, b) + r)

            insert(_monic(f, self.field), ring.one_key)
            while heap:
                sig = heapq.heappop(heap)
                self.budget.spend()
                if zero_sigs.has_divisor(sig):
                    continue
                # the canonical rewriter: the last element whose signature divides sig
                owner = start + max(sig_index.divisors(sig))
                m = sig - ratios[owner]
                if not any(
                    sigs[b] is None or m - leads[b] + sigs[b] < sig for b in index.divisors(m)
                ):
                    continue
                h: dict = {}
                axpy_terms(h, G[owner], 1, sig - sigs[owner], p, guard)
                h = normal_form_terms(h, index, p, guard, sig, sigs)
                if not h:
                    self.zero_reductions += 1
                    zero_sigs.append(sig)
                    continue
                lk = max(h)
                if not any(
                    lk - leads[b] + sigs[b] == sig for b in index.divisors(lk, -1 << start)
                ):
                    insert(_monic(h, self.field), sig)

    def reduced_basis(self) -> list[dict]:
        """Unique reduced (monic, auto-reduced) basis, sorted by lead key."""
        survivors = self.ctx.index()
        for t in sorted(range(len(self.G)), key=lambda t: self.leads[t]):
            lk = self.leads[t]
            if not survivors.has_divisor(lk):
                survivors.append(lk, self.G[t])
        # a survivor is monic, and a lead divides no smaller key: only tails reduce
        p, guard, out = self.field.p, self.ctx.guard, []
        for lead, terms in zip(survivors.leads, survivors.terms):
            tail = dict(terms)
            out.append({lead: tail.pop(lead), **normal_form_terms(tail, survivors, p, guard)})
        return out


def buchberger(gens, ctx, field: Field, budget=None) -> list[dict]:
    """Reduced Groebner basis of the given term dicts."""
    engine = GroebnerEngine(ctx, field, _as_budget(budget))
    if isinstance(ctx, ModuleContext):
        for g in gens:
            engine.add_raw(g)
        engine.complete()
    else:
        engine.add_generators(gens)
    return engine.reduced_basis()


# -- ideals -----------------------------------------------------------------


class IdealHandle:
    """Generator list within a ring presentation with a cached reduced
    Groebner basis of the full preimage (generators + ring relations), the
    divisor index of that basis (``divisor_index``), which its normal forms
    reduce by and ``standard_monomials`` walks, the keys of its standard
    monomials, the Hilbert numerator of its quotient
    (``resolve.quotient_hilbert_numerator``) and the normal forms of
    monomials (``monomial_normal_form``), from which it reduces packed
    elements of a free module (``module_normal_form``).

    The caches are write-once, and each datum is charged to the call that
    computes it; concurrent duplicate computation is harmless because the
    reduced basis is canonical.
    """

    __slots__ = ("ring", "gens", "_gb", "_index", "_std", "_hilb", "_nf")

    def __init__(self, ring: RingPresentation, gens):
        self.ring = ring
        parsed = []
        for g in gens:
            if isinstance(g, str):
                g = parse_poly(g, ring)
            if g.ring is not ring:
                raise CakError("ideal generator from a different ring")
            if not g.is_zero():
                parsed.append(g)
        self.gens = tuple(parsed)
        self._gb = None
        self._index = None  # a DivisorIndex over _gb, built on first use
        self._std = None  # (standard monomial keys, variables with no pure power)
        self._hilb = None  # the K-polynomial of ring/(gens + relations)
        self._nf: dict[int, tuple] = {}  # monomial key -> (key, coeff) pairs of its normal form

    def groebner_basis(self, budget=None) -> list[Polynomial]:
        if self._gb is None:
            ctx = RingContext(self.ring)
            dicts = [
                g.terms for g in itertools.chain(self.gens, self.ring.relations)
            ]
            gb = buchberger(dicts, ctx, self.ring.field, budget)
            self._gb = tuple(Polynomial(self.ring, d) for d in gb)
        return list(self._gb)

    def divisor_index(self, budget=None) -> DivisorIndex:
        """The divisor index over the reduced basis, built once: its normal
        forms reduce by it and its staircase walks it."""
        if self._index is None:
            gb = self.groebner_basis(budget)
            self._index = RingContext(self.ring).index((g.lead_key(), g.terms) for g in gb)
        return self._index

    def normal_form(self, p: Polynomial, budget=None) -> Polynomial:
        if p.ring is not self.ring:
            raise CakError("polynomial from a different ring")
        nf = normal_form_terms(p.terms, self.divisor_index(budget), self.ring.field.p, self.ring.guard)
        return Polynomial(self.ring, nf)

    def monomial_normal_form(self, key: int, budget=None) -> tuple:
        """The (key, coeff) pairs of the normal form of the monomial ``key``,
        computed once per handle into ``_nf``, which ``module_normal_form``
        reads first."""
        if key not in self._nf:
            mono = Polynomial(self.ring, {key: self.ring.field.coerce(1)})
            self._nf[key] = tuple(self.normal_form(mono, budget).terms.items())
        return self._nf[key]

    def module_normal_form(self, vec: dict, s: int | None = None, budget=None) -> dict:
        """The normal form of x^s * ``vec`` (``vec`` if ``s`` is None) modulo
        (gens + relations) * F, ``vec`` a packed element of a free module F
        of any rank: the cached normal form of each term's monomial, in the
        term's component (normal forms are unique and linear)."""
        bits, shift = ModuleContext.COMP_BITS, 0 if s is None else s - self.ring.one_key
        low_mask, guard, p, cache, out = (1 << bits) - 1, self.ring.guard, self.ring.field.p, self._nf, {}
        for k, c in vec.items():
            prod = (k >> bits) + shift
            if prod & guard != guard:
                raise DegreeOverflowError("exponent overflow in monomial product")
            nf = cache.get(prod)
            if nf is None:
                nf = self.monomial_normal_form(prod, budget)
            low = k & low_mask
            for sk, sc in nf:
                kk = (sk << bits) | low
                v = out.get(kk, 0) + c * sc
                if p is not None:
                    v %= p
                if v:
                    out[kk] = v
                else:
                    del out[kk]
        return out

    def contains_poly(self, p: Polynomial, budget=None) -> bool:
        return self.normal_form(p, budget).is_zero()

    def contains(self, other: "IdealHandle", budget=None) -> bool:
        self._check(other)
        return all(self.contains_poly(g, budget) for g in other.gens)

    def equal(self, other: "IdealHandle", budget=None) -> bool:
        self._check(other)
        mine = [g.terms for g in self.groebner_basis(budget)]
        theirs = [g.terms for g in other.groebner_basis(budget)]
        return mine == theirs

    def is_zero(self, budget=None) -> bool:
        return not self.groebner_basis(budget)

    def is_unit(self, budget=None) -> bool:
        gb = self.groebner_basis(budget)
        return len(gb) == 1 and gb[0].lead_key() == self.ring.one_key

    def _check(self, other):
        if self.ring is not other.ring:
            raise CakError("ideals live in different rings")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "IdealHandle") -> "IdealHandle":
        self._check(other)
        return IdealHandle(self.ring, self.gens + other.gens)

    def product(self, other: "IdealHandle", budget=None) -> "IdealHandle":
        """The ideal of the products of the generators, each product charged
        one budget unit before it is formed."""
        self._check(other)
        budget = _as_budget(budget)
        gens = {}  # each product once, in first-occurrence order
        for a in self.gens:
            for b in other.gens:
                budget.spend()
                gens[a * b] = None
        return IdealHandle(self.ring, gens)

    def power(self, n: int, budget=None) -> "IdealHandle":
        """The n-th power, by n - 1 products with this ideal."""
        if n < 1:
            raise PreconditionError("ideal power wants an exponent >= 1")
        budget = _as_budget(budget)
        out = self
        for _ in range(n - 1):
            out = out.product(self, budget)
        return out

    def intersection(self, other: "IdealHandle", budget=None) -> "IdealHandle":
        """(self + J) cap (other + J) from the syzygies of the generators of
        both modulo J: the a-parts sum a_i f_i of the syzygies, with J
        itself, generate it."""
        self._check(other)
        a, b = self.gens, other.gens
        if not a or not b:
            return relations_ideal(self.ring)
        syz = module_syzygies(self.ring, _rank_one(self.ring, a + b), nrows=1, budget=budget)
        ctx = ModuleContext(self.ring, len(a) + len(b))
        gens = []
        for s in syz:
            acc = self.ring.zero()
            for coeff, f in zip(ctx.to_column(s), a):
                acc = acc + coeff * f
            if not acc.is_zero():
                gens.append(acc)
        return IdealHandle(self.ring, gens)

    def colon(self, other: "IdealHandle", budget=None) -> "IdealHandle":
        """(self : other), computed generator-by-generator via syzygies
        modulo J: c is in (self + J : g) iff c*g + sum a_i f_i lies in J.
        Each part's coefficients c are reduced modulo J, and the zeros
        dropped, before the parts are intersected."""
        self._check(other)
        if not other.gens:
            return IdealHandle(self.ring, [self.ring.one()])
        relations = relations_ideal(self.ring)
        result = None
        ctx = ModuleContext(self.ring, 1 + len(self.gens))
        for g in other.gens:
            cols = _rank_one(self.ring, (g,) + self.gens)
            syz = module_syzygies(self.ring, cols, nrows=1, budget=budget)
            gens = [relations.normal_form(ctx.to_column(s)[0], budget) for s in syz]
            part = IdealHandle(self.ring, gens)
            result = part if result is None else result.intersection(part, budget)
        return result


def relations_ideal(ring: RingPresentation) -> IdealHandle:
    """The ring's one handle of its relations J, made on first use."""
    if ring._relations_ideal is None:
        ring._relations_ideal = IdealHandle(ring, ())
    return ring._relations_ideal


def _rank_one(ring, polys) -> list[dict]:
    """The polynomials as packed columns of the free module of rank one."""
    ctx = ModuleContext(ring, 1)
    return [ctx.from_column([f]) for f in polys]


def ideal_ops(op: str, left: IdealHandle, right=None, budget=None):
    """Dispatch ideal arithmetic per the CLI surface."""
    if op == "sum":
        return left + right
    if op == "product":
        return left.product(right, budget)
    if op == "power":
        return left.power(int(right), budget)
    if op == "intersection":
        return left.intersection(right, budget)
    if op == "colon":
        return left.colon(right, budget)
    if op == "equal":
        return left.equal(right, budget)
    if op == "contains":
        return left.contains(right, budget)
    raise CakError(f"unknown ideal op {op!r}")


# -- syzygies ----------------------------------------------------------------


def module_syzygies(ring: RingPresentation, columns, *, nrows: int, budget=None) -> list[dict]:
    """Generators of the syzygy module over R = S/(ring.relations) of the
    columns, packed term dicts of ``ModuleContext(ring, nrows)``.

    The columns, moved into the row block of the elimination layout
    ``ModuleContext(ring, nrows + ncols, fhigh=nrows)`` and each tagged with
    its own basis vector e_(nrows + j), and the relation multiples J*e_i
    of the rows are completed there, pairs of the row block only: an
    element free of the row block is a syzygy, which reduces tails but
    takes no pairs.  The row block's elements form a Groebner basis, and
    by Schreyer's lifting theorem the reductions of its pairs generate the
    syzygies of its row parts, so the syzygy elements met on the way
    generate the kernel for any module order, homogeneous or not.  They
    are not a reduced basis, and autoreducing them could lose generators.

    They are returned in insertion order as the engine's term dicts: below
    the block bit, component ``nrows + j`` of the elimination layout has
    the key of component ``j`` of ``ModuleContext(ring, ncols)`` (both
    encode it as ``ncols - 1 - j``), so each already lies in the column
    module's layout.
    """
    if not columns:
        return []
    ncols = len(columns)
    ctx = ModuleContext(ring, nrows + ncols, fhigh=nrows)
    # row i is encoded nrows - 1 - i in a column, nrows + ncols - 1 - i here
    shift = ncols + ctx.blockbit
    one = ring.field.coerce(1)
    engine = GroebnerEngine(ctx, ring.field, _as_budget(budget))
    for j, col in enumerate(columns):
        terms = {k + shift: c for k, c in col.items()}
        terms[ctx.key(nrows + j, ring.one_key)] = one
        engine.add_raw(terms)
    for terms in relation_multiples(ctx, nrows):
        engine.add_raw(terms)
    engine.complete()
    return [g for g, lk in zip(engine.G, engine.leads) if not lk & ctx.blockbit]


def module_membership_engine(ring: RingPresentation, columns, nrows: int, *, budget=None):
    """Membership oracle for the submodule generated by ``columns``, packed
    term dicts of ``ModuleContext(ring, nrows)``, plus the relation
    multiples J*e_i.  Returns (ctx, engine)."""
    ctx = ModuleContext(ring, nrows)
    engine = GroebnerEngine(ctx, ring.field, _as_budget(budget))
    for terms in relation_multiples(ctx, nrows):
        engine.add_raw(terms)
    for col in columns:
        engine.add_raw(col)
    engine.complete()
    return ctx, engine


def minimal_generator_count(ring: RingPresentation, gens, budget=None) -> int:
    """mu of a homogeneous ideal over the local graded ring ring/(relations)."""
    gens = [g for g in gens if not g.is_zero()]
    degs = []
    for g in gens:
        d = g.homogeneous_degree()
        if d is None:
            raise PreconditionError("minimal generator count wants homogeneous input")
        degs.append(d)
    return len(minimal_generating_subset(ring, _rank_one(ring, gens), degs, (0,), budget=budget))


def minimal_generating_subset(ring: RingPresentation, columns, degrees, twists, *, budget=None):
    """Indices of a minimal homogeneous generating subset of the columns,
    packed term dicts of the free module with basis degrees ``twists``
    (the layout of ``ModuleContext(ring, len(twists))``), modulo J.

    Requires the stated degrees; columns are visited in weakly increasing
    degree (ties by index), keeping a column iff it is not a combination of
    the kept ones and the relation multiples, which by the graded Nakayama
    argument yields a minimal generating set.  Membership of a column of
    degree d needs the Groebner basis only through degree d when every
    relation is homogeneous, so the basis is completed that far and no
    further; with an inhomogeneous relation it is completed in full.
    """
    if not columns:
        return []
    ctx = ModuleContext(ring, len(twists), twists=twists)
    engine = GroebnerEngine(ctx, ring.field, _as_budget(budget))
    for terms in relation_multiples(ctx, len(twists)):
        engine.add_raw(terms)
    kept = []
    for idx in sorted(range(len(columns)), key=lambda t: (degrees[t], t)):
        if engine.add(columns[idx], degrees[idx] if ring.homogeneous else None):
            kept.append(idx)
    return sorted(kept)


# -- elimination and ring maps ----------------------------------------------


def eliminate(ideal: IdealHandle, drop_vars, budget=None) -> IdealHandle:
    """Generators of (ideal + relations) intersected with k[remaining vars].

    The result lives in a fresh presentation on the remaining variables.
    """
    ring = ideal.ring
    drop = set(drop_vars)
    unknown = drop - set(ring.vars)
    if unknown:
        raise CakError(f"cannot drop unknown variables {sorted(unknown)}")
    drop_idx = tuple(i for i, v in enumerate(ring.vars) if v in drop)
    keep_idx = tuple(i for i, v in enumerate(ring.vars) if v not in drop)
    keep_names = [ring.vars[i] for i in keep_idx]
    if not drop_idx:
        new_ring = ring.restrict(keep_names)
        return IdealHandle(
            new_ring,
            [g.reencode(new_ring) for g in itertools.chain(ideal.gens, ring.relations)],
        )
    elim_ring = ring.polynomial_ambient().with_blocks((drop_idx, keep_idx))
    ctx = RingContext(elim_ring)
    dicts = [
        g.reencode(elim_ring).terms
        for g in itertools.chain(ideal.gens, ring.relations)
    ]
    gb = buchberger(dicts, ctx, ring.field, budget)
    drop_block = elim_ring._layout[0]
    new_ring = ring.restrict(keep_names)
    kept = []
    for terms in gb:
        if all(k & drop_block.cmask == drop_block.cmask for k in terms):
            kept.append(Polynomial(elim_ring, terms).reencode(new_ring))
    return IdealHandle(new_ring, kept)


class RingMap:
    """Ring homomorphism given by the images of the source variables."""

    def __init__(self, source: RingPresentation, target: RingPresentation, images):
        if len(images) != len(source.vars):
            raise CakError("one image per source variable required")
        if source.field != target.field:
            raise CakError("source and target must share the coefficient field")
        imgs = []
        for im in images:
            if isinstance(im, str):
                im = parse_poly(im, target)
            if im.ring is not target:
                raise CakError("image from a different ring")
            imgs.append(im)
        self.source = source
        self.target = target
        self.images = tuple(imgs)

    def apply(self, p: Polynomial) -> Polynomial:
        """Image of a source polynomial."""
        if p.ring is not self.source:
            raise CakError("polynomial from a different ring")
        return p.evaluate(self.images, self.target)


def ring_map_kernel(rmap: RingMap, budget=None) -> IdealHandle:
    """Kernel ideal of the map in its source ring: the graph ideal (the
    target's relations and v - image(v)) with the target variables
    eliminated."""
    src, tgt = rmap.source, rmap.target
    rename = {}
    for v in tgt.vars:
        nv = v
        while nv in src.var_index or nv in rename.values():
            nv = "_" + nv
        rename[v] = nv
    graph = RingPresentation(
        list(rename.values()) + list(src.vars), tgt.weights + src.weights, src.field
    )
    pad = (0,) * len(src.vars)

    def move_target(p: Polynomial) -> Polynomial:
        return Polynomial(graph, {graph.encode(tgt.decode(k) + pad): c for k, c in p.terms.items()})

    gens = [move_target(r) for r in tgt.relations]
    for v, image in zip(src.vars, rmap.images):
        gens.append(graph.var(v) - move_target(image))
    kernel = eliminate(IdealHandle(graph, gens), rename.values(), budget)
    return IdealHandle(src, [g.transfer(src) for g in kernel.gens])


# -- standard monomials -------------------------------------------------------


def staircase(index: DivisorIndex, start: int, deltas, budget: Budget):
    """Keys outside the monomial (sub)module generated by the leads of
    ``index``, in the component of ``start``, the key of 1 there; adding
    ``deltas[i]`` to a key raises variable i.

    Returns (keys, missing): ``missing`` lists the variables with no pure
    power among the component's leads, in which case the order ideal is
    infinite and ``keys`` is empty.  A unit lead gives the empty order
    ideal.  The walk is depth first and raises only the last-raised
    variable or a later one, so each standard monomial is visited, and
    charged to the budget, exactly once.
    """
    bits = index.comps.get(start & index.compmask, 0)
    # per variable, the leads that contain it; a variable without a row, none
    firsts = [index.fields[s][0] if s in index.fields else 0 for s in index.shifts]
    seen = multi = 0  # the leads with some variable, with two or more
    for first in firsts:
        multi |= seen & first
        seen |= first
    if bits & ~seen:
        return [], []
    missing = [i for i, first in enumerate(firsts) if not first & bits & ~multi]
    if missing:
        return [], missing
    out = []
    stack = [(start, 0)]
    while stack:
        key, low = stack.pop()
        budget.spend()
        out.append(key)
        for i in range(low, len(deltas)):
            up = key + deltas[i]
            if not index.has_divisor(up):
                stack.append((up, i))
    return out, []


def standard_monomials(ideal: IdealHandle, budget=None) -> list[int]:
    """Keys of the monomials outside the lead-term ideal of (gens +
    relations), sorted; the handle walks its staircase once, on its divisor
    index, and keeps the result.

    Errors when some variable has no pure power among the lead terms, in
    which case the quotient is not a finite-dimensional vector space.
    """
    ring = ideal.ring
    if ideal._std is None:
        budget = _as_budget(budget)
        deltas = [ring.var_key(i) - ring.one_key for i in range(len(ring.vars))]
        out, missing = staircase(ideal.divisor_index(budget), ring.one_key, deltas, budget)
        ideal._std = sorted(out), missing
    out, missing = ideal._std
    if missing:
        raise NotArtinianError(
            "quotient is not finite-dimensional: no pure power of "
            + ", ".join(ring.vars[i] for i in missing)
            + " in the lead-term ideal"
        )
    return list(out)

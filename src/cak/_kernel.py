"""Term-arithmetic kernel.

Operates on term dicts (int key -> coefficient).  Keys follow the additive
encoding from :mod:`cak.polyring`: multiplying by a monomial is adding a key
delta, and a guard-bit pattern validates every produced key.

Coefficients are ints mod p when ``p`` is given, otherwise exact numbers
(Fractions) with ordinary arithmetic.

A reducer list is a :class:`DivisorIndex`: lead keys, their term dicts and
per-variable bitsets, so that the leads dividing a key are found with one
bitset per variable instead of a scan over every lead (the divisibility
masks of Bachmann and Schoenemann, ISSAC 1998).  Normal forms and every
lead search of the Groebner engine go through it.

Every product, shifted sum and scaling of term dicts goes through one merge
loop, :func:`axpy_terms`, or one scaling, :func:`scale_terms`.  Two hot
loops merge inline instead: a normal form pushes each key its merge creates
onto its heap, and ``ArtinianModule.times`` merges cached normal forms.

A normal form is a heap-ordered division (the heap of Monagan and Pearce,
J. Symbolic Comput. 46 (2011), over a work dict): the largest live term is
popped off a heap of keys instead of found by scanning the dict, and each
reducer multiple is merged inline.  It takes the same terms and reducers in
the same order as the scan did.
"""

from heapq import heapify, heappop, heappush

from .errors import DegreeOverflowError

EXP_BITS = 16  # width of one exponent field of a key
EXP_MASK = (1 << EXP_BITS) - 1
CLAMP = 15  # a DivisorIndex stores larger exponents as this one


def axpy_terms(dst, src, c, delta, p, guard):
    """dst += c * x^delta * src, in place, dropping zero entries; the new
    keys are guard-checked together, once the merge is done.  With guard 0
    it serves any int-keyed dicts, integer polynomials in t by degree too."""
    acc = -1
    if p is not None:
        c %= p
        if not c:
            return
        for k, v in src.items():
            nk = k + delta
            acc &= nk
            nv = (dst.get(nk, 0) + c * v) % p
            if nv:
                dst[nk] = nv
            else:
                dst.pop(nk, None)
    else:
        if not c:
            return
        for k, v in src.items():
            nk = k + delta
            acc &= nk
            nv = dst.get(nk, 0) + c * v
            if nv:
                dst[nk] = nv
            else:
                dst.pop(nk, None)
    if acc & guard != guard:
        raise DegreeOverflowError("exponent overflow in term product")


def scale_terms(terms, c, p):
    """c * terms as a new dict, for c nonzero (mod p when ``p`` is given)."""
    if p is None:
        return {k: v * c for k, v in terms.items()}
    return {k: v * c % p for k, v in terms.items()}


def mul_terms(a, b, p, one_key, guard):
    """Product of two polynomial term dicts, one merge per term of the shorter."""
    out = {}
    if len(a) > len(b):
        a, b = b, a
    for ka, va in a.items():
        axpy_terms(out, b, va, ka - one_key, p, guard)
    return out


class DivisorIndex:
    """A reducer list and the bitsets that find the divisors of a key.

    ``leads`` and ``terms`` are parallel lists: lead keys and their term
    dicts (None in an index of signatures).  ``shifts`` holds the bit of
    each variable's exponent field.  For each variable that some lead
    contains, at bit ``s``, ``rows`` holds ``(s, above)`` (and ``fields``
    maps s to ``above``) with CLAMP + 1 bitsets: bit i of ``above[e]`` is
    set iff lead i has exponent greater than e in that variable.  A row
    appears with the first lead that contains its variable, so a query
    loops only over the variables in use; a missing row is all zeros.
    ``comps`` maps the component bits of a key (``key & compmask``) to the
    bitset of the leads of that component.
    A query clears from the component's bitset the leads above the key in
    some variable, one bitset per variable, and what is left are the
    divisors; the lowest set bit is the one of smallest list index.

    An exponent above CLAMP is stored as CLAMP, and a query exponent above
    it reads the last bitset, so a lead may be kept that does not divide.
    Every candidate is confirmed by one masked subtraction over all exponent
    fields (``cmask``): where a field of the lead holds the larger exponent,
    the borrow of the lowest such field sets its guard bit (one of
    ``gmask``).
    """

    __slots__ = ("leads", "terms", "shifts", "rows", "fields", "comps", "compmask", "cmask", "gmask")

    def __init__(self, shifts, compmask, cmask, gmask):
        self.leads = []
        self.terms = []
        self.shifts = shifts
        self.rows = []
        self.fields = {}
        self.comps = {}
        self.compmask = compmask
        self.cmask = cmask
        self.gmask = gmask

    def append(self, lead, terms=None):
        bit = 1 << len(self.leads)
        # a field holds EXP_MASK - exponent, so this holds the exponents
        exps = (lead & self.cmask) ^ self.cmask
        while exps:
            s = ((exps & -exps).bit_length() - 1) // EXP_BITS * EXP_BITS
            above = self.fields.get(s)
            if above is None:
                above = self.fields[s] = [0] * (CLAMP + 1)
                self.rows.append((s, above))
            for e in range(min((exps >> s) & EXP_MASK, CLAMP)):
                above[e] |= bit
            exps &= ~(EXP_MASK << s)
        code = lead & self.compmask
        self.comps[code] = self.comps.get(code, 0) | bit
        self.leads.append(lead)
        self.terms.append(terms)

    def sharing(self, key):
        """Bitset of the leads that share a variable with ``key``."""
        out = 0
        exps = (key & self.cmask) ^ self.cmask
        while exps:
            s = ((exps & -exps).bit_length() - 1) // EXP_BITS * EXP_BITS
            above = self.fields.get(s)
            if above is not None:
                out |= above[0]
            exps &= ~(EXP_MASK << s)
        return out

    def candidates(self, key, mask=-1):
        """Bitset of the leads within ``mask`` that may divide ``key``:
        every divisor, and maybe a lead with an exponent above CLAMP."""
        bits = self.comps.get(key & self.compmask, 0) & mask
        if not bits:
            return 0
        over = 0
        try:
            for s, above in self.rows:
                over |= above[EXP_MASK - ((key >> s) & EXP_MASK)]
        except IndexError:  # an exponent of the key above CLAMP
            for s, above in self.rows:
                over |= above[min(EXP_MASK - ((key >> s) & EXP_MASK), CLAMP)]
        return bits & ~over

    def divisors(self, key, mask=-1):
        """Indices of the leads within ``mask`` that divide ``key``, ascending."""
        leads, cmask, gmask = self.leads, self.cmask, self.gmask
        bits, low_key = self.candidates(key, mask), key & cmask
        while bits:
            low = bits & -bits
            i = low.bit_length() - 1
            if not ((leads[i] & cmask) - low_key) & gmask:
                yield i
            bits ^= low

    def has_divisor(self, key, mask=-1):
        """True iff a lead within ``mask`` divides ``key``."""
        leads, cmask, gmask = self.leads, self.cmask, self.gmask
        bits, low_key = self.candidates(key, mask), key & cmask
        while bits:
            low = bits & -bits
            if not ((leads[low.bit_length() - 1] & cmask) - low_key) & gmask:
                return True
            bits ^= low
        return False


def normal_form_terms(f, index, p, guard, sig=None, sigs=None, steps=None):
    """Full normal form of term dict ``f`` against the reducers of ``index``
    (a :class:`DivisorIndex` of monic term dicts, lead included).

    The divisor with the smallest list index is always chosen, so the
    procedure is deterministic for a fixed reducer list even when it is not
    yet a Groebner basis.

    With a signature key ``sig`` only signature-regular steps are taken:
    reducer ``i`` may rewrite term ``m`` only when its multiple's signature
    ``m - leads[i] + sigs[i]`` stays below ``sig``; a reducer whose
    ``sigs[i]`` is None has a signature below every other and always may.

    The next term comes off a max-heap of the work dict's keys (held
    negated), not from ``max(work)``.  A reducer's multiple is merged into
    the work dict in place and only the keys the merge creates are pushed;
    they all lie below the popped key, so each key is pushed once and each
    pop yields the largest live key.  Nothing is deleted: a popped key is
    touched again only by the lead of its own reducer, and a key whose
    coefficient has cancelled (over F_p: reduced when popped) is skipped.
    The new keys of a merge are guard-checked together, once it is done.

    With a list ``steps``, each reduction appends its (popped key, reducer
    index, coefficient): f is the sum of the coefficient times the
    reducer's multiple over the steps, plus the normal form.
    """
    work = dict(f)
    get = work.get
    heap = [-k for k in work]
    heapify(heap)
    out = {}
    leads, gterms, cmask, gmask = index.leads, index.terms, index.cmask, index.gmask
    comps, compmask, rows = index.comps, index.compmask, index.rows
    while heap:
        m = -heappop(heap)
        c = work[m] if p is None else work[m] % p
        if not c:
            continue
        # index.candidates(m), inline
        bits = comps.get(m & compmask, 0)
        if bits:
            over = 0
            try:
                for s, above in rows:
                    over |= above[EXP_MASK - ((m >> s) & EXP_MASK)]
            except IndexError:  # an exponent of m above CLAMP
                for s, above in rows:
                    over |= above[min(EXP_MASK - ((m >> s) & EXP_MASK), CLAMP)]
            bits &= ~over
            low_m = m & cmask
        while bits:
            low = bits & -bits
            i = low.bit_length() - 1
            lk = leads[i]
            if not ((lk & cmask) - low_m) & gmask and (
                sig is None or sigs[i] is None or m - lk + sigs[i] < sig
            ):
                break
            bits ^= low
        else:
            out[m] = c
            continue
        if steps is not None:
            steps.append((m, i, c))
        # work -= c * x^(m - lk) * gterms[i]; the lead lands on m, never popped again
        c, delta, acc = -c if p is None else p - c, m - lk, -1
        for k, v in gterms[i].items():
            nk = k + delta
            acc &= nk
            old = get(nk)
            if old is None:
                work[nk] = c * v
                heappush(heap, -nk)
            else:
                work[nk] = old + c * v
        if acc & guard != guard:
            raise DegreeOverflowError("exponent overflow in term product")
    return out

"""Term-arithmetic kernel.

Operates on term dicts (int key -> coefficient).  Keys follow the additive
encoding from :mod:`cak.polyring`: multiplying by a monomial is adding a key
delta, and a guard-bit pattern validates every produced key.

Coefficients are ints mod p when ``p`` is given, otherwise exact numbers
(Fractions) with ordinary arithmetic.
"""

from .errors import DegreeOverflowError


def axpy_terms(dst, src, c, delta, p, guard):
    """dst += c * x^delta * src, in place, dropping zero entries; guard-checks
    every new key.  With delta 0 and guard 0 this is dst += c * src on any
    int-keyed dict."""
    if p is not None:
        c %= p
        if not c:
            return
        for k, v in src.items():
            nk = k + delta
            if nk & guard != guard:
                raise DegreeOverflowError("exponent overflow in term product")
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
            if nk & guard != guard:
                raise DegreeOverflowError("exponent overflow in term product")
            nv = dst.get(nk, 0) + c * v
            if nv:
                dst[nk] = nv
            else:
                dst.pop(nk, None)


def mul_terms(a, b, p, one_key, guard):
    """Product of two polynomial term dicts."""
    out = {}
    if len(a) > len(b):
        a, b = b, a
    if p is not None:
        for ka, va in a.items():
            base = ka - one_key
            for kb, vb in b.items():
                nk = base + kb
                if nk & guard != guard:
                    raise DegreeOverflowError("exponent overflow in term product")
                nv = (out.get(nk, 0) + va * vb) % p
                if nv:
                    out[nk] = nv
                else:
                    out.pop(nk, None)
    else:
        for ka, va in a.items():
            base = ka - one_key
            for kb, vb in b.items():
                nk = base + kb
                if nk & guard != guard:
                    raise DegreeOverflowError("exponent overflow in term product")
                nv = out.get(nk, 0) + va * vb
                if nv:
                    out[nk] = nv
                else:
                    out.pop(nk, None)
    return out


def divides_key(ka, kb, compmask, segs):
    """True iff term position ka divides kb (same component, exponentwise <=)."""
    if (ka ^ kb) & compmask:
        return False
    for cmask, gmask in segs:
        if ((ka & cmask) - (kb & cmask)) & gmask:
            return False
    return True


def normal_form_terms(f, leads, gterms, p, compmask, segs, guard, sig=None, sigs=None):
    """Full normal form of term dict ``f`` against the reducer list.

    Reducers are given by parallel lists: lead keys and complete term dicts
    (lead included), every one monic.  The divisor with the smallest list
    index is always chosen, so the procedure is deterministic for a fixed
    reducer list even when it is not yet a Groebner basis.

    With a signature key ``sig`` only signature-regular steps are taken:
    reducer ``i`` may rewrite term ``m`` only when its multiple's signature
    ``m - leads[i] + sigs[i]`` stays below ``sig``; a reducer whose
    ``sigs[i]`` is None has a signature below every other and always may.
    """
    work = dict(f)
    out = {}
    nred = len(leads)
    while work:
        m = max(work)
        c = work[m]
        hit = -1
        for i in range(nred):
            lk = leads[i]
            # order-compatibility: a divisor's key never exceeds the term's
            if lk > m or (lk ^ m) & compmask:
                continue
            ok = True
            for cmask, gmask in segs:
                if ((lk & cmask) - (m & cmask)) & gmask:
                    ok = False
                    break
            if ok:
                if sig is not None and sigs[i] is not None and m - lk + sigs[i] >= sig:
                    continue
                hit = i
                break
        if hit < 0:
            out[m] = c
            del work[m]
        else:
            axpy_terms(work, gterms[hit], -c, m - leads[hit], p, guard)
    return out

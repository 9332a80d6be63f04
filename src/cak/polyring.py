"""Weighted polynomial rings with exact coefficients.

Monomials are encoded as single Python ints ("keys") chosen so that

* integer comparison of keys is the monomial order (weighted
  degree-reverse-lexicographic, blockwise for elimination orders),
* monomial multiplication is ``ka + kb - ring.one_key``,
* divisibility is a masked-subtraction test, and
* a guard bit per exponent field turns silent exponent overflow into a
  hard :class:`~cak.errors.DegreeOverflowError`.

Per order block the key holds, from the top bits down, the block's weighted
degree (64 bits) followed by one 16-bit field per variable containing
``0xFFFF - exponent``, the block's *last* variable in the topmost field.
Complemented fields make bigger keys compare degrevlex-bigger while staying
additive under multiplication.

Polynomials are dicts mapping keys to nonzero coefficients: ints in
``[0, p)`` over F_p, :class:`fractions.Fraction` over Q.  All values are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction

from ._kernel import EXP_BITS, EXP_MASK, axpy_terms, mul_terms, scale_terms
from .errors import (
    CakError,
    DegreeOverflowError,
    ParseError,
    PreconditionError,
    RingMismatchError,
)

MAX_EXP = 0x7FFF  # one guard bit per field
DEG_BITS = 64
MAX_WEIGHT = 1 << 32
MAX_VARS = 64

DEFAULT_PRIME = 32003

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any sensible modulus."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Exact coefficient field: a prime field F_p or the rationals Q."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("fp", "q"):
            raise CakError(f"unknown field kind {kind!r}")
        if kind == "fp":
            if p is None or not is_prime(p):
                raise CakError(f"modulus {p!r} is not prime")
        elif p is not None:
            raise CakError("rational field takes no modulus")
        self.kind = kind
        self.p = p

    def coerce(self, c):
        """Normalize an int/Fraction into canonical coefficient form.

        Floats are rejected: arithmetic is exact, no rounding ever.
        """
        if isinstance(c, float):
            raise CakError("floating-point coefficients are not supported")
        if self.kind == "fp":
            if isinstance(c, Fraction):
                if c.denominator % self.p == 0:
                    raise ZeroDivisionError("denominator divisible by modulus")
                return c.numerator * pow(c.denominator, -1, self.p) % self.p
            return int(c) % self.p
        return Fraction(c)

    def inv(self, c):
        if self.kind == "fp":
            return pow(c, -1, self.p)
        return Fraction(1) / c

    def neg(self, c):
        if self.kind == "fp":
            return -c % self.p
        return -c

    def __eq__(self, other):
        return isinstance(other, Field) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"F_{self.p}" if self.kind == "fp" else "QQ"


QQ = Field("q")


def GF(p: int) -> Field:
    return Field("fp", p)


class _Block:
    __slots__ = ("vars", "shift", "deg_shift", "cmask", "gmask", "field_weights")

    def __init__(self, vars, shift, weights):
        self.vars = tuple(vars)  # global variable indices, ascending
        self.field_weights = tuple(weights[i] for i in self.vars)  # one per field
        self.shift = shift
        self.deg_shift = shift + EXP_BITS * len(self.vars)
        self.cmask = ((1 << (EXP_BITS * len(self.vars))) - 1) << shift
        g = 0
        for j in range(len(self.vars)):
            g |= (MAX_EXP + 1) << (shift + EXP_BITS * j)
        self.gmask = g


class RingPresentation:
    """Positively weighted polynomial ring over an exact field, with an
    optional relation ideal (so this single type presents S and R = S/J).

    ``blocks`` is the elimination-order structure: a tuple of tuples of
    variable indices, most significant block first.  The default is one
    block, i.e. plain weighted degrevlex.  A presentation never changes
    after construction, so its data stay valid: whether every relation is
    homogeneous (``homogeneous``), the one handle of its relations
    (``groebner.relations_ideal``) and R as a module.
    """

    def __init__(self, vars, weights, field=None, relations=(), blocks=None):
        vars = tuple(vars)
        weights = tuple(int(w) for w in weights)
        for v in vars:
            if not _is_identifier(v):
                raise CakError(
                    f"variable name {v!r} is not an identifier: a letter or _, then letters, digits or _"
                )
        if len(vars) != len(set(vars)):
            raise CakError("variable names must be unique")
        if len(vars) != len(weights):
            raise CakError("one weight per variable required")
        if len(vars) > MAX_VARS:
            raise CakError(f"at most {MAX_VARS} variables supported")
        if any(w < 1 for w in weights):
            raise CakError("weights must be positive")
        if any(w > MAX_WEIGHT for w in weights):
            raise DegreeOverflowError("weight too large")
        self.vars = vars
        self.weights = weights
        self.field = field if field is not None else GF(DEFAULT_PRIME)
        self.var_index = {v: i for i, v in enumerate(vars)}

        if blocks is None:
            blocks = (tuple(range(len(vars))),)
        blocks = tuple(tuple(b) for b in blocks)
        seen = [i for b in blocks for i in b]
        if sorted(seen) != list(range(len(vars))):
            raise CakError("order blocks must partition the variables")
        self.blocks = blocks
        layout = []
        shift = 0
        for b in reversed(blocks):  # least significant block first
            blk = _Block(sorted(b), shift, weights)
            shift = blk.deg_shift + DEG_BITS
            layout.append(blk)
        layout.reverse()
        self._layout = layout
        self.key_bits = shift
        self.one_key = sum(b.cmask for b in layout)
        self.guard = sum(b.gmask for b in layout)
        # every exponent field and their guard bits.  A field holds 0xFFFF
        # minus the exponent, so in (a & cmask) - (b & cmask) the lowest field
        # where a's exponent exceeds b's borrows and sets its guard bit: a
        # divides b iff the difference has no guard bit set
        self.div_mask = (self.one_key, self.guard)
        self._exp_low = self.one_key & ~self.guard  # exponent fields, guard bits off
        self._deg_mask = sum(((1 << DEG_BITS) - 1) << b.deg_shift for b in layout)
        shift_of = {i: b.shift + EXP_BITS * j for b in layout for j, i in enumerate(b.vars)}
        self.field_shifts = tuple(shift_of[i] for i in range(len(vars)))  # per variable
        self._var_keys = [
            self.encode(tuple(1 if j == i else 0 for j in range(len(vars))))
            for i in range(len(vars))
        ]

        self.relations: tuple[Polynomial, ...] = ()
        rels = []
        for rel in relations:
            q = parse_poly(rel, self) if isinstance(rel, str) else rel.transfer(self)
            if not q.is_zero():
                rels.append(q)
        self.relations = tuple(rels)
        self.homogeneous = all(q.homogeneous_degree() is not None for q in rels)
        self._relations_ideal = None  # set by groebner.relations_ideal
        self._free_module = None  # R as a module, set by resolve.PresentedModule.free
        self._mono_texts = {}  # monomial text by exponent bits, filled by render_poly

    # -- key arithmetic -------------------------------------------------

    def encode(self, exponents) -> int:
        """Exponent vector -> monomial key (overflow-checked)."""
        if len(exponents) != len(self.vars):
            raise CakError("exponent vector has wrong length")
        key = 0
        for b in self._layout:
            wdeg = 0
            seg = 0
            for j, i in enumerate(b.vars):
                e = exponents[i]
                if e < 0:
                    raise CakError("negative exponent")
                if e > MAX_EXP:
                    raise DegreeOverflowError(f"exponent {e} exceeds {MAX_EXP}")
                wdeg += self.weights[i] * e
                seg |= (EXP_MASK - e) << (EXP_BITS * j)
            key |= (wdeg << b.deg_shift) | (seg << b.shift)
        return key

    def decode(self, key: int):
        """Monomial key -> exponent tuple."""
        return tuple(EXP_MASK - ((key >> s) & EXP_MASK) for s in self.field_shifts)

    def key_degree(self, key: int) -> int:
        """Total weighted degree of a monomial key."""
        return sum((key >> b.deg_shift) & ((1 << DEG_BITS) - 1) for b in self._layout)

    def mul_keys(self, ka: int, kb: int) -> int:
        k = ka + kb - self.one_key
        if k & self.guard != self.guard:
            raise DegreeOverflowError("exponent overflow in monomial product")
        return k

    def lcm_fields(self, ka: int, kb: int) -> int:
        """The exponent fields of the lcm under ``ka``'s degree fields:
        :meth:`lcm_key` without its degree update, enough for a divisibility
        test, which reads no degree field.

        Below its guard bit a field holds ``MAX_EXP - exponent``, so the lcm
        takes the fieldwise minimum.  Setting the guard bits of one operand
        before the subtraction keeps every field's difference inside the
        field: a field's guard bit survives exactly where ``kb``'s exponent
        is at least ``ka``'s.
        """
        low, guard = self._exp_low, self.guard
        x, y = ka & low, kb & low
        ge = ((x | guard) - y) & guard
        take_b = (ge << 1) - (ge >> (EXP_BITS - 1))  # whole fields where eb >= ea
        return (ka & self._deg_mask) | (x & ~take_b) | (y & take_b) | guard

    def lcm_key(self, ka: int, kb: int) -> int:
        """Key of the lcm: :meth:`lcm_fields`, then each block's weighted
        degree grows by the weighted sum of the fields of ``ka - key``."""
        key = self.lcm_fields(ka, kb)
        excess = ka - key
        if not excess:
            return ka
        for b in self._layout:
            part = (excess & b.cmask) >> b.shift
            if part:
                inc = 0
                for w in b.field_weights:
                    inc += w * (part & EXP_MASK)
                    part >>= EXP_BITS
                key += inc << b.deg_shift
        return key

    def var_key(self, i: int) -> int:
        return self._var_keys[i]

    # -- ring-level helpers ----------------------------------------------

    def layout_compatible(self, other: "RingPresentation") -> bool:
        return (
            self.vars == other.vars
            and self.weights == other.weights
            and self.blocks == other.blocks
            and self.field == other.field
        )

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        return Polynomial(self, {self.one_key: c} if c else {})

    def var(self, name: str) -> "Polynomial":
        i = self.var_index.get(name)
        if i is None:
            raise CakError(f"unknown variable {name!r}")
        one = self.field.coerce(1)
        return Polynomial(self, {self._var_keys[i]: one})

    def gens(self):
        return [self.var(v) for v in self.vars]

    def from_terms(self, terms) -> "Polynomial":
        """Build a polynomial from (exponent-tuple, coefficient) pairs."""
        d = {}
        for expo, c in terms:
            k = self.encode(expo)
            c = self.field.coerce(c)
            cur = d.get(k)
            c = c if cur is None else self.field.coerce(cur + c)
            if c:
                d[k] = c
            else:
                d.pop(k, None)
        return Polynomial(self, d)

    def extend_relations(self, extra) -> "RingPresentation":
        """Same ambient ring, relation list extended by ``extra``."""
        return RingPresentation(
            self.vars, self.weights, self.field, self.relations + tuple(extra), self.blocks
        )

    def polynomial_ambient(self) -> "RingPresentation":
        """The underlying polynomial ring (relations dropped)."""
        if not self.relations:
            return self
        return RingPresentation(self.vars, self.weights, self.field, (), self.blocks)

    def with_blocks(self, blocks) -> "RingPresentation":
        """Same vars/weights/field, different elimination-order blocks."""
        return RingPresentation(self.vars, self.weights, self.field, self.relations, blocks)

    def restrict(self, keep_names) -> "RingPresentation":
        """Subring presentation on a subset of the variables (no relations)."""
        keep = [v for v in self.vars if v in set(keep_names)]
        weights = [self.weights[self.var_index[v]] for v in keep]
        return RingPresentation(keep, weights, self.field)

    def __repr__(self):
        rel = f" / ({len(self.relations)} relations)" if self.relations else ""
        return f"{self.field}[{', '.join(self.vars)}; weights {self.weights}]{rel}"


class Polynomial:
    """Sparse exact polynomial: dict of monomial key -> nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingPresentation, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def lead_key(self) -> int:
        if not self.terms:
            raise PreconditionError("zero polynomial has no lead term")
        return max(self.terms)

    def homogeneous_degree(self) -> int | None:
        """Weighted degree if homogeneous, None otherwise; error on zero."""
        if not self.terms:
            raise PreconditionError("zero polynomial has no weighted degree")
        degs = {self.ring.key_degree(k) for k in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def degree(self) -> int:
        """Weighted degree of the lead term."""
        return self.ring.key_degree(self.lead_key())

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.ring is not other.ring:
            raise RingMismatchError("operands live in different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check(other)
        out = dict(self.terms)
        axpy_terms(out, other.terms, 1, 0, self.ring.field.p, 0)
        return Polynomial(self.ring, out)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check(other)
        out = dict(self.terms)
        axpy_terms(out, other.terms, -1, 0, self.ring.field.p, 0)
        return Polynomial(self.ring, out)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        out = mul_terms(
            self.terms, other.terms, self.ring.field.p, self.ring.one_key, self.ring.guard
        )
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __rsub__(self, other):
        return (-self) + other

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = self.ring.field.coerce(c)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, scale_terms(self.terms, c, self.ring.field.p))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise PreconditionError("polynomial power wants an exponent >= 0")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def evaluate(self, images, target: RingPresentation) -> "Polynomial":
        """The polynomial of ``target`` with variable i replaced by
        ``images[i]``: each term's coefficient times its variables' images
        raised to their exponents."""
        out = target.zero()
        for k, c in self.terms.items():
            term = target.constant(c)
            for image, e in zip(images, self.ring.decode(k)):
                if e:
                    term = term * image ** e
            out = out + term
        return out

    def transfer(self, ring: RingPresentation) -> "Polynomial":
        """Reinterpret in a layout-compatible presentation (same keys)."""
        if ring is self.ring:
            return self
        if not ring.layout_compatible(self.ring):
            return self.reencode(ring)
        return Polynomial(ring, dict(self.terms))

    def reencode(self, ring: RingPresentation) -> "Polynomial":
        """Move to a ring with the same variable names (possibly new order)."""
        out = {}
        for k, c in self.terms.items():
            expo = self.ring.decode(k)
            target = [0] * len(ring.vars)
            for name, e in zip(self.ring.vars, expo):
                if e:
                    j = ring.var_index.get(name)
                    if j is None:
                        raise CakError(f"variable {name!r} missing from target ring")
                    target[j] = e
            nk = ring.encode(tuple(target))
            c2 = ring.field.coerce(c)
            if c2:
                out[nk] = c2
        return Polynomial(ring, out)

    # -- comparison / rendering -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if other == 0:
                return self.is_zero()
            return self.terms == self.ring.constant(other).terms
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        return render_poly(self)

    def __repr__(self):
        return f"Polynomial({self})"


# -- rendering ------------------------------------------------------------


def _coeff_repr(c, field: Field):
    if field.kind == "fp":
        # balanced lift keeps rendered text short and sign-friendly
        return c - field.p if c > field.p // 2 else c
    return c


def render_poly(p: Polynomial) -> str:
    """Text of ``p``, exponents read off its keys' fields (``field_shifts``).
    Each monomial's text is made once per ring and kept in its memo."""
    if p.is_zero():
        return "0"
    ring = p.ring
    full, texts = ring.one_key, ring._mono_texts
    parts = []
    for k in sorted(p.terms, reverse=True):
        c = _coeff_repr(p.terms[k], ring.field)
        neg = c < 0
        c = -c if neg else c
        exps = (k & full) ^ full  # a field holds EXP_MASK - exponent
        if exps:
            mono_s = texts.get(exps)
            if mono_s is None:
                factors = []
                for name, s in zip(ring.vars, ring.field_shifts):
                    e = (exps >> s) & EXP_MASK
                    if e:
                        factors.append(name if e == 1 else f"{name}^{e}")
                mono_s = texts[exps] = "*".join(factors)
            body = mono_s if c == 1 else f"{c}*{mono_s}"
        else:
            body = str(c)
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


# -- parsing ---------------------------------------------------------------


def _is_identifier(name) -> bool:
    """True iff ``name`` is one identifier as :meth:`_Parser.base` reads it."""
    return isinstance(name, str) and (name[:1].isalpha() or name[:1] == "_") and all(
        ch.isalnum() or ch == "_" for ch in name
    )


class _Parser:
    """Recursive descent for:  expr := term (('+'|'-') term)*;
    term := factor ('*' factor)*; factor := base ('^' uint)?;
    base := int | int '/' int | ident | '(' expr ')'.
    A leading unary minus and rational literals are accepted as a
    conservative superset of the documented grammar.
    """

    def __init__(self, text: str, ring: RingPresentation):
        self.text = text
        self.ring = ring
        self.pos = 0

    def error(self, msg):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Polynomial:
        p = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return p

    def expr(self) -> Polynomial:
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            acc = -self.term()
        else:
            if ch == "+":
                self.pos += 1
            acc = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                acc = acc + self.term()
            elif ch == "-":
                self.pos += 1
                acc = acc - self.term()
            else:
                return acc

    def term(self) -> Polynomial:
        acc = self.factor()
        while self.peek() == "*":
            self.pos += 1
            acc = acc * self.factor()
        return acc

    def factor(self) -> Polynomial:
        base = self.base()
        if self.peek() == "^":
            self.pos += 1
            ch = self.peek()
            if ch == "-":
                self.error("exponent must be >= 0")
            if not ch.isdigit():
                self.error("expected a non-negative integer exponent")
            return base ** self.uint()
        return base

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def base(self) -> Polynomial:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            p = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return p
        if ch.isdigit():
            start = self.pos
            n = self.uint()
            if self.peek() == "/":
                self.pos += 1
                d = self.uint()
                if d == 0:
                    self.error("zero denominator")
                q, p = Fraction(n, d), self.ring.field.p
                if p is not None and q.denominator % p == 0:
                    self.pos = start
                    self.error(f"denominator divisible by the modulus {p}")
                return self.ring.constant(q)
            return self.ring.constant(n)
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            i = self.ring.var_index.get(name)
            if i is None:
                self.pos = start
                self.error(f"unknown variable {name!r}")
            return self.ring.var(name)
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")


def parse_poly(text: str, ring: RingPresentation) -> Polynomial:
    """Parse polynomial text into canonical form."""
    return _Parser(text, ring).parse()


def parse_poly_list(text: str, ring: RingPresentation) -> list[Polynomial]:
    """Parse a ';'-separated list of polynomials (empty text -> [])."""
    items = [s for s in (chunk.strip() for chunk in text.split(";")) if s]
    return [parse_poly(s, ring) for s in items]

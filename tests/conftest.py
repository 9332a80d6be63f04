import contextlib
import itertools
import signal

import pytest

from cak import RingPresentation, parse_poly, parse_poly_list
from cak.groebner import ModuleContext, module_membership_engine

R1_WEIGHTS = (6, 11, 16, 26)
R1_RELATIONS = "X^7 - Z*W; Y^2 - X*Z; Z^2 - X*W; W^2 - X^6*Z"


@pytest.fixture
def kxy():
    return RingPresentation(["x", "y"], [1, 1])


@pytest.fixture
def kxyz():
    return RingPresentation(["x", "y", "z"], [1, 1, 1])


@pytest.fixture
def r1_ambient():
    return RingPresentation(["X", "Y", "Z", "W"], R1_WEIGHTS)


@pytest.fixture
def r1_ring(r1_ambient):
    return r1_ambient.extend_relations(parse_poly_list(R1_RELATIONS, r1_ambient))


def P(ring, text):
    return parse_poly(text, ring)


def PL(ring, text):
    return parse_poly_list(text, ring)


def column_lists(mat):
    """The columns of a PolyMatrix, unpacked into lists of polynomials."""
    ctx = ModuleContext(mat.ring, mat.nrows)
    return [ctx.to_column(col) for col in mat.cols]


class EngineTarget:
    """Reference for a finite-length module R^rank/(columns): a module
    engine of its own on the columns and J*e_i, the standard basis as module
    keys in (component, monomial) order, found by brute force over a box
    outside the engine's lead module, and dense coordinates read off the
    engine's normal forms."""

    def __init__(self, ring, columns, rank):
        self.ring = ring
        self.ctx, self.engine = module_membership_engine(ring, columns, rank)
        leads = [self.ctx.decode(k) for k in self.engine.leads]
        leads = [(comp, ring.decode(mono)) for comp, mono in leads]
        box = range(max(max(e) for _, e in leads) + 1)
        box = sorted(itertools.product(box, repeat=len(ring.vars)), key=ring.encode)
        self.basis = [
            self.ctx.key(comp, ring.encode(e))
            for comp in range(rank)
            for e in box
            if not any(c == comp and all(map(int.__ge__, e, d)) for c, d in leads)
        ]
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.dim = len(self.basis)

    def basis_times(self, f, b):
        """Dense coordinates of f * (basis element b), f a polynomial."""
        comp, mono = self.ctx.decode(self.basis[b])
        terms = {self.ctx.key(comp, self.ring.mul_keys(k, mono)): c for k, c in f.terms.items()}
        vec = [0] * self.dim
        for k, c in self.engine.reduce(terms).items():
            vec[self.index[k]] = c
        return vec


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body once ``seconds`` of wall time pass, so
    a loop that does not stop fails its test instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError(frame.f_code.co_name if frame is not None else "?")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError as e:
        # a fresh exception whose traceback ends here: the interrupted frame
        # may have no line number, which pytest cannot render
        raise TimeoutError(f"still running after {seconds} s in {e}") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

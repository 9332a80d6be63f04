"""Exact sparse linear algebra over F_p or Q.

One echelon form serves every rank count, tracked kernel and span test in
``cak``: the Artinian resolution steps, the Hom/Tensor ranks of Ext and
Tor, the socle and the embedding dimension.
"""

from fractions import Fraction

from ._kernel import axpy_terms, scale_terms


class Echelon:
    """Sparse row echelon form over F_p (``p`` prime) or Q (``p`` None).

    A vector is a dict int coordinate -> nonzero coefficient.  Every stored
    row is monic at its largest coordinate, its pivot, and no two rows
    share a pivot.  A ``budget`` is charged one unit per inserted vector;
    the Artinian steps and the Hom/Tensor ranks charge a zero vector
    themselves, one unit each, and do not insert it.
    """

    __slots__ = ("p", "budget", "rows")

    def __init__(self, p, budget=None):
        self.p = p
        self.budget = budget
        self.rows = {}  # pivot -> (monic row, its combination or None)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, vec: dict, combo: dict | None = None) -> bool:
        """Reduce ``vec`` on its largest coordinate until that coordinate is
        no pivot, store what is left, and return whether anything was.

        Both dicts are consumed.  ``combo`` names the combination of
        earlier inputs that ``vec`` is and is reduced alongside it, so after
        an insertion that returns False it holds a relation among the
        inputs: a kernel vector of the map they are the images under.
        """
        if self.budget is not None:
            self.budget.spend()
        p, rows = self.p, self.rows
        while vec:
            m = max(vec)
            hit = rows.get(m)
            if hit is None:
                c = vec[m]
                if c != 1:
                    inv = Fraction(1) / c if p is None else pow(c, -1, p)
                    vec = scale_terms(vec, inv, p)
                    if combo is not None:
                        combo = scale_terms(combo, inv, p)
                rows[m] = (vec, combo)
                return True
            c = -vec[m]
            axpy_terms(vec, hit[0], c, 0, p, 0)
            if combo is not None:
                axpy_terms(combo, hit[1], c, 0, p, 0)
        return False


def matrix_rank(rows, p, budget=None) -> int:
    """Rank of a dense matrix given as a list of rows; a ``budget`` is
    charged one unit per row."""
    ech = Echelon(p, budget)
    for row in rows:
        ech.insert({j: v for j, v in enumerate(row) if v})
    return ech.rank

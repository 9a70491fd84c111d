"""Exact integer/rational vectors and matrices, plus the partial and total
orders used by the cluster valuations.

Vectors are plain tuples of ints or Fractions.  Matrices are immutable
row-tuples wrapped in a small class with exact kernel/rank/solve; the
entries of rref, solve and inverse follow the rule of `exact`.  No
floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import EmptyInput, RankError

LESS = "Less"
EQUAL = "Equal"
GREATER = "Greater"
INCOMPARABLE = "Incomparable"


def exact(c):
    """The rational c as an int when it is integral, else as a Fraction:
    the one rule for the type of an exact coefficient."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _divided(row, last):
    """x / last for each x of an integer row, by the rule of `exact`."""
    return [x // last if x % last == 0 else Fraction(x, last) for x in row]


def vec(entries):
    return tuple(Fraction(x) if not isinstance(x, (int, Fraction)) else x for x in entries)


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vneg(a):
    return tuple(-x for x in a)


def vscale(c, a):
    return tuple(c * x for x in a)


def vdot(a, b):
    return sum(map(mul, a, b))


def is_zero(a):
    return all(x == 0 for x in a)


def integer_scale(a):
    """(den, ints) for a vector of ints and Fractions: den the least
    positive integer with den * a integral, and ints = den * a."""
    den = lcm(*(x.denominator for x in a))
    return den, tuple(x.numerator * (den // x.denominator) for x in a)


def clear_denominators(a):
    """Scale a rational vector to a primitive integer vector with the same
    direction."""
    ints = integer_scale(a)[1]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else ints


def independent_rows(rows):
    """Indices of the rows independent of the rows before them: the pivot
    columns of one elimination of the matrix with these rows as columns."""
    return Mat(zip(*rows)).rref()[1]


class Mat:
    """Dense exact matrix over the rationals.

    A Mat is immutable, and its one elimination is kept in a slot: the
    fraction-free Gauss-Jordan form (Bareiss 1968) of [S A | S], S the
    diagonal of the least row scales that make A integral, with pivots
    taken in A's columns only.  Its left block is last * R, R the reduced
    echelon form and last the last pivot; its right block E is an
    invertible integer matrix with E A = last * R, so the rows of E past
    the rank annihilate the column space.  rref fills the slot; rank,
    kernel and det read the left block, solve and inverse read E.  Mat(rows)
    checks its rows, `_of` trusts them.
    """

    __slots__ = ("rows", "nrows", "ncols", "_form")

    def __init__(self, rows):
        self.rows = tuple(vec(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged matrix")
        self._form = None

    @classmethod
    def _of(cls, rows):
        """The arithmetic's constructor: keeps the tuple `rows` as it is."""
        m = cls.__new__(cls)
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = len(rows[0]) if rows else 0
        m._form = None
        return m

    @staticmethod
    def identity(n):
        return Mat([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_cols(cols):
        if not cols:
            return Mat([])
        return Mat([[c[i] for c in cols] for i in range(len(cols[0]))])

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self):
        return Mat._of(tuple(zip(*self.rows)))

    def __eq__(self, other):
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Mat(%r)" % (self.rows,)

    def __mul__(self, other):
        if isinstance(other, Mat):
            bt = other.transpose().rows
            return Mat([[vdot(r, c) for c in bt] for r in self.rows])
        return tuple(vdot(r, other) for r in self.rows)

    def __add__(self, other):
        return Mat([vadd(a, b) for a, b in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Mat([vsub(a, b) for a, b in zip(self.rows, other.rows)])

    def __neg__(self):
        return Mat([vneg(r) for r in self.rows])

    def scale(self, c):
        return Mat([vscale(c, r) for r in self.rows])

    def is_integer(self):
        return all(Fraction(x).denominator == 1 for r in self.rows for x in r)

    def rref(self):
        """Reduced row echelon form; returns (list of rows, pivot columns).

        The lists are fresh on every call; the elimination behind them runs
        once per matrix."""
        if self._form is None:
            self._form = self._eliminate()
        left, _, pivots, last, _ = self._form
        return [_divided(r, last) for r in left], list(pivots)

    def _eliminate(self):
        """Fraction-free Gauss-Jordan elimination of [S A | S]: (left
        block, right block E, pivots, last pivot, det), det the determinant
        when A is square of full rank.

        After each pivot p every row but the pivot row becomes
        (p * row - c * pivot_row) // prev, prev the pivot before, and the
        division is exact.  Every pivot entry ends equal to the last
        pivot."""
        n, m = self.ncols, self.nrows
        scale = 1
        rows = []
        for i, r in enumerate(self.rows):
            den, ints = integer_scale(r)
            scale *= den
            rows.append(list(ints) + [den if j == i else 0 for j in range(m)])
        pivots = []
        sign, prev = 1, 1
        pr = 0
        for pc in range(n):
            sel = None
            for r in range(pr, m):
                if rows[r][pc] != 0:
                    sel = r
                    break
            if sel is None:
                continue
            if sel != pr:
                rows[pr], rows[sel] = rows[sel], rows[pr]
                sign = -sign
            prow = rows[pr]
            p = prow[pc]
            for r, row in enumerate(rows):
                if r == pr:
                    continue
                c = row[pc]
                if c:
                    rows[r] = [(p * x - c * y) // prev
                               for x, y in zip(row, prow)]
                elif p != prev:
                    rows[r] = [p * x // prev for x in row]
            prev = p
            pivots.append(pc)
            pr += 1
            if pr == m:
                break
        return (tuple(tuple(r[:n]) for r in rows),
                tuple(tuple(r[n:]) for r in rows), tuple(pivots), prev,
                Fraction(sign * prev, scale))

    def _elimination(self):
        """The stored elimination; the first call eliminates through
        `rref`."""
        if self._form is None:
            self.rref()
        return self._form

    def rank(self):
        return len(self._elimination()[2])

    def kernel(self):
        """Basis of the right kernel, as primitive integer vectors."""
        left, _, pivots, last, _ = self._elimination()
        # the left block is last * R, so the free column fc gives the
        # kernel vector with |last| at fc and -sign(last) * left[i][fc] at
        # the i-th pivot column
        sign = 1 if last > 0 else -1
        basis = []
        for fc in range(self.ncols):
            if fc in pivots:
                continue
            v = [0] * self.ncols
            v[fc] = abs(last)
            for row, pc in zip(left, pivots):
                v[pc] = -sign * row[fc]
            g = gcd(*v)
            basis.append(tuple(x // g for x in v))
        return basis

    def solve(self, b):
        """One exact solution x of self @ x = b, or None if inconsistent."""
        if len(b) != self.nrows:
            raise ValueError("right-hand side has %d entries for %d rows"
                             % (len(b), self.nrows))
        _, E, pivots, last, _ = self._elimination()
        y = [vdot(row, b) for row in E]
        if any(y[len(pivots):]):
            return None
        # R x = E b / last, with the free variables at 0
        x = [0] * self.ncols
        for pc, yi in zip(pivots, _divided(y, last)):
            x[pc] = yi
        return tuple(x)

    def inverse(self):
        if self.nrows != self.ncols:
            raise RankError("not square")
        _, E, pivots, last, _ = self._elimination()
        if len(pivots) != self.nrows:
            raise RankError("singular matrix")
        return Mat._of(tuple(tuple(_divided(row, last)) for row in E))

    def det(self):
        if self.nrows != self.ncols:
            raise RankError("not square")
        _, _, pivots, _, det = self._elimination()
        return det if len(pivots) == self.nrows else Fraction(0)


def dominance_compare(m1, m2, pstar_cols):
    """Compare m1, m2 in the opposite dominance order of a seed.

    pstar_cols is the matrix whose columns are the images of the unfrozen
    seed basis vectors under the exchange pairing; it must have full column
    rank, otherwise the relation is not an order and we refuse to answer.

    Returns one of Less / Equal / Greater / Incomparable, where Less means
    m2 - m1 is the image of a nonzero nonnegative integer vector.
    """
    if pstar_cols.rank() != pstar_cols.ncols:
        raise RankError("dominance order needs full column rank")
    delta = vsub(vec(m2), vec(m1))
    if is_zero(delta):
        return EQUAL
    n = pstar_cols.solve(delta)
    if n is None or any(x.denominator != 1 for x in n):
        return INCOMPARABLE
    if all(x >= 0 for x in n):
        return LESS
    if all(x <= 0 for x in n):
        return GREATER
    return INCOMPARABLE


class TotalOrder:
    """Graded-lexicographic comparator: weight functional first, then
    lexicographic comparison of the coordinates.

    The weight may be any rational vector.  `refining` builds a weight that
    is strictly positive on the image cone of a full-column-rank matrix, so
    the resulting total order genuinely refines the associated dominance
    order (an all-positive weight cannot do this in general).
    """

    def __init__(self, weight):
        self.weight = vec(weight)
        # keys use the weight scaled to integers: a positive scale keeps
        # the order
        self._iweight = integer_scale(self.weight)[1]

    @staticmethod
    def refining(pstar_cols):
        """Total order refining the dominance order with the given columns."""
        if pstar_cols.rank() != pstar_cols.ncols:
            raise RankError("refinement needs full column rank")
        # full column rank: the transpose is onto, so this always solves
        return TotalOrder(pstar_cols.transpose().solve([1] * pstar_cols.ncols))

    def key(self, m):
        mv = vec(m)
        return (vdot(self._iweight, mv), mv)

    def min(self, points):
        pts = list(points)
        if not pts:
            raise EmptyInput("min of empty set")
        return min(pts, key=self.key)

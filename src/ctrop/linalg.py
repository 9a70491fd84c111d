"""Exact integer/rational vectors and matrices, plus the partial and total
orders used by the cluster valuations.

Vectors are plain tuples of ints or Fractions.  Matrices are immutable
row-tuples wrapped in a small class with exact kernel/rank/solve.  No
floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .errors import EmptyInput, RankError

LESS = "Less"
EQUAL = "Equal"
GREATER = "Greater"
INCOMPARABLE = "Incomparable"


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


def clear_denominators(a):
    """Scale a rational vector to a primitive integer vector (positive lead)."""
    den = 1
    for x in a:
        f = Fraction(x)
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(Fraction(x) * den) for x in a]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def independent_rows(rows):
    """Indices of the rows independent of the rows before them: the pivot
    columns of one elimination of the transpose."""
    return Mat(rows).transpose().rref()[1]


class Mat:
    """Dense exact matrix over the rationals.

    A Mat is immutable, so its reduced echelon form and its inverse are
    computed on first use and kept in slots of their own.
    """

    __slots__ = ("rows", "nrows", "ncols", "_rref", "_inverse")

    def __init__(self, rows):
        self.rows = tuple(vec(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix")
        self._rref = None
        self._inverse = None

    @staticmethod
    def identity(n):
        return Mat([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(m, n):
        return Mat([[0] * n for _ in range(m)])

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
        return Mat([self.col(j) for j in range(self.ncols)])

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

        The lists are fresh on every call; the form itself is computed once
        per matrix."""
        if self._rref is None:
            rows, pivots = self._eliminate()
            self._rref = tuple(tuple(r) for r in rows), tuple(pivots)
            return rows, pivots
        rows, pivots = self._rref
        return [list(r) for r in rows], list(pivots)

    def _eliminate(self):
        rows = [list(r) for r in self.rows]
        pivots = []
        pr = 0
        for pc in range(self.ncols):
            sel = None
            for r in range(pr, len(rows)):
                if rows[r][pc] != 0:
                    sel = r
                    break
            if sel is None:
                continue
            rows[pr], rows[sel] = rows[sel], rows[pr]
            inv = Fraction(1, 1) / rows[pr][pc]
            rows[pr] = [x * inv for x in rows[pr]]
            for r in range(len(rows)):
                if r != pr and rows[r][pc] != 0:
                    c = rows[r][pc]
                    rows[r] = [x - c * y for x, y in zip(rows[r], rows[pr])]
            pivots.append(pc)
            pr += 1
            if pr == len(rows):
                break
        return rows, pivots

    def _echelon(self):
        """The stored (rows, pivots) of the reduced echelon form, as
        tuples; the first call eliminates through `rref`."""
        if self._rref is None:
            self.rref()
        return self._rref

    def rank(self):
        return len(self._echelon()[1])

    def kernel(self):
        """Basis of the right kernel, as primitive integer vectors."""
        rows, pivots = self._echelon()
        free = [j for j in range(self.ncols) if j not in pivots]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.ncols
            v[fc] = Fraction(1)
            for i, pc in enumerate(pivots):
                v[pc] = -rows[i][fc]
            basis.append(clear_denominators(v))
        return basis

    def solve(self, b):
        """One exact solution x of self @ x = b, or None if inconsistent."""
        if len(b) != self.nrows:
            raise ValueError("right-hand side has %d entries for %d rows"
                             % (len(b), self.nrows))
        aug = Mat([list(r) + [bv] for r, bv in zip(self.rows, b)])
        rows, pivots = aug._echelon()
        if self.ncols in pivots:
            return None
        x = [Fraction(0)] * self.ncols
        for i, pc in enumerate(pivots):
            x[pc] = rows[i][-1]
        return tuple(x)

    def inverse(self):
        if self._inverse is None:
            if self.nrows != self.ncols:
                raise RankError("not square")
            n = self.nrows
            aug = Mat([list(r) + [1 if i == j else 0 for j in range(n)]
                       for i, r in enumerate(self.rows)])
            rows, pivots = aug._echelon()
            if pivots != tuple(range(n)):
                raise RankError("singular matrix")
            self._inverse = Mat([r[n:] for r in rows[:n]])
        return self._inverse

    def det(self):
        if self.nrows != self.ncols:
            raise RankError("not square")
        rows = [list(r) for r in self.rows]
        n = self.nrows
        sign = 1
        d = Fraction(1)
        for c in range(n):
            sel = None
            for r in range(c, n):
                if rows[r][c] != 0:
                    sel = r
                    break
            if sel is None:
                return Fraction(0)
            if sel != c:
                rows[c], rows[sel] = rows[sel], rows[c]
                sign = -sign
            d *= rows[c][c]
            inv = Fraction(1, 1) / rows[c][c]
            for r in range(c + 1, n):
                if rows[r][c] != 0:
                    f = rows[r][c] * inv
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
        return d * sign


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
    if n is None:
        return INCOMPARABLE
    if any(Fraction(x).denominator != 1 for x in n):
        return INCOMPARABLE
    if all(x >= 0 for x in n):
        return LESS
    if all(x <= 0 for x in n):
        return GREATER
    return INCOMPARABLE


def divisibility_compare(n1, n2, unfrozen):
    """Compare n1, n2 in the divisibility order: Less iff n2 - n1 is a
    nonzero nonnegative vector supported on the unfrozen indices."""
    delta = vsub(vec(n2), vec(n1))
    if is_zero(delta):
        return EQUAL

    def positive(d):
        ok = True
        for i, x in enumerate(d):
            if x < 0:
                return False
            if x > 0 and i not in unfrozen:
                return False
            if Fraction(x).denominator != 1:
                return False
        return ok

    if positive(delta):
        return LESS
    if positive(vneg(delta)):
        return GREATER
    return INCOMPARABLE


class TotalOrder:
    """Graded-lexicographic comparator: weight functional first, then
    lexicographic comparison after a coordinate permutation.

    The weight may be any rational vector.  `refining` builds a weight that
    is strictly positive on the image cone of a full-column-rank matrix, so
    the resulting total order genuinely refines the associated dominance
    order (an all-positive weight cannot do this in general).
    """

    def __init__(self, weight, perm=None):
        self.weight = vec(weight)
        self.perm = tuple(perm) if perm is not None else tuple(range(len(self.weight)))

    @staticmethod
    def graded_lex(dim):
        return TotalOrder([1] * dim)

    @staticmethod
    def refining(pstar_cols):
        """Total order refining the dominance order with the given columns."""
        if pstar_cols.rank() != pstar_cols.ncols:
            raise RankError("refinement needs full column rank")
        w = pstar_cols.transpose().solve([1] * pstar_cols.ncols)
        if w is None:
            raise RankError("no refining weight")
        return TotalOrder(w)

    def key(self, m):
        mv = vec(m)
        return (vdot(self.weight, mv), tuple(mv[p] for p in self.perm))

    def compare(self, a, b):
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return LESS
        if ka > kb:
            return GREATER
        return EQUAL

    def min(self, points):
        pts = list(points)
        if not pts:
            raise EmptyInput("min of empty set")
        best = pts[0]
        for p in pts[1:]:
            if self.key(p) < self.key(best):
                best = p
        return best

    def to_json(self):
        return {"weight": [str(x) for x in self.weight], "perm": list(self.perm)}


def min_under_order(points, partial_compare, total_order):
    """Minimum of the points under the total order, plus a flag telling
    whether that minimum is strictly below every other point in the partial
    order (the pointedness witness used by the valuations)."""
    pts = [vec(p) for p in points]
    if not pts:
        raise EmptyInput("min of empty set")
    best = total_order.min(pts)
    pointed = True
    for p in pts:
        if p == best:
            continue
        if partial_compare(best, p) != LESS:
            pointed = False
            break
    return best, pointed

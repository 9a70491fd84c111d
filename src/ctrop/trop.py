"""Tropical points, tropicalized mutations, piecewise-linear maps and
their action on polytopes.

Coordinate conventions (fixed once, per the seed module):
  * A-flavor tropical points live in N°⊗R, coordinates in the initial
    basis (d_i e_i);
  * X-flavor tropical points live in M°⊗R, coordinates in the initial
    basis (f_i).
The seed tag records which chart identification produced the coordinates;
points with different tags are never compared without explicit transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParams, FrozenIndex, NotPositive, RankError
from .linalg import vdot, vec
from .polytopes import AffineSubspace, convex_hull, vertices_from_hrep


@dataclass(frozen=True)
class TropicalPoint:
    word: tuple
    coords: tuple
    conv: str  # "T" or "t"

    def __post_init__(self):
        if self.conv not in ("T", "t"):
            raise BadParams("convention must be 'T' or 't'")
        object.__setattr__(self, "coords", vec(self.coords))
        object.__setattr__(self, "word", tuple(self.word))


def _edge_data(s, k, flavor):
    """Bend functional and increment of the tropical mutation along the
    tree edge s -> mutate(s, k), from the exchange pairing (v_k, den, row)
    with row / den = d_k e_k in N°-coordinates.  When the word of s ends in
    k the edge is walked backwards and the increment is negated (the honest
    inverse: the increment pairs to zero with the bend functional)."""
    backward = bool(s.word) and s.word[-1] == k
    base = s.mutate(k) if backward else s
    v, den, row = base.exchange_pairing("A", k)
    if flavor == "A":
        if den != 1:
            raise BadParams("seed basis vector not in N°-scaling")
        phi, inc = v, tuple(-x for x in row)
    else:
        phi, inc = tuple(Fraction(x, den) for x in row), v
    if backward:
        inc = tuple(-x for x in inc)
    return phi, inc


def trop_mutate(pt, k, s, flavor):
    """Tropicalized mutation, retagged: for flavor A,
    n + [<v_k, n>]_±(-d_k e_k); for flavor X, m + [<d_k e_k, m>]_± v_k.
    Applying it again at k from the mutated seed transports back."""
    if k not in s.fixed.unfrozen:
        raise FrozenIndex("frozen direction %r" % (k,))
    if pt.word != s.word:
        raise BadParams("point tagged with a different seed")
    if len(pt.coords) != s.fixed.n:
        raise BadParams("point has %d coordinates; the seed has rank %d"
                        % (len(pt.coords), s.fixed.n))
    coords = PLMap.from_mutations(s, (k,), flavor, pt.conv).apply(pt.coords)
    return TropicalPoint(s.mutate(k).word, coords, pt.conv)


class PLFunction:
    """Tropicalization of a positive Laurent polynomial: x -> -max <l, x>
    over the support for the T convention, x -> min <l, x> for t."""

    def __init__(self, kind, support):
        if kind not in ("T", "t"):
            raise BadParams("kind must be 'T' or 't'")
        self.kind = kind
        self.support = sorted(tuple(int(x) for x in e) for e in support)
        if not self.support:
            raise BadParams("empty support")
        self.dim = len(self.support[0])

    def __call__(self, x):
        vals = [vdot(ell, x) for ell in self.support]
        if self.kind == "T":
            return -max(vals)
        return min(vals)


def tropicalize(f, conv):
    """PL function of a positive Laurent polynomial."""
    if any(c <= 0 for c in f.coeffs.values()):
        raise NotPositive("tropicalization needs positive coefficients")
    if f.is_zero():
        raise NotPositive("zero polynomial is not positive")
    return PLFunction(conv, list(f.coeffs))


def weight_fiber(q_class, h_basis):
    """Affine subspace {m : <h, m> = <h, q>} for all rows h of h_basis.

    Rows of h_basis are N°-coordinates; pairing with M°-coordinates is
    the plain dot product.  For q_class = 0 this is the orthogonal slice.
    """
    if h_basis.nrows and h_basis.rank() != h_basis.nrows:
        raise RankError("H basis rows must be independent")
    q = vec(q_class)
    eqs = [(row, vdot(row, q)) for row in h_basis.rows]
    return AffineSubspace(eqs, h_basis.ncols if h_basis.nrows else len(q))


class ElementaryStep:
    """One tropical mutation as a piecewise-linear map: bends along the
    hyperplane <phi, x> = 0, linear on each side."""

    def __init__(self, phi, increment, active_side):
        self.phi = vec(phi)
        self.increment = vec(increment)
        self.active_side = active_side  # +1: bracket active on phi >= 0

    def apply(self, x):
        t = vdot(self.phi, x)
        act = (t > 0) if self.active_side > 0 else (t < 0)
        if act:
            return tuple(a + t * b for a, b in zip(x, self.increment))
        return tuple(x)


class PLMap:
    """Composable sequence of elementary tropical mutations."""

    def __init__(self, steps):
        self.steps = list(steps)

    @staticmethod
    def from_mutations(s, word, flavor, conv):
        """PL map tropicalizing the chart transition along `word` starting
        at seed s.  flavor 'A': eq. for N°-points; flavor 'X': M°-points.
        Backtracking edges of the word apply the inverse bend."""
        if flavor not in ("A", "X"):
            raise BadParams("flavor must be 'A' or 'X'")
        steps = []
        cur = s
        for k in word:
            phi, inc = _edge_data(cur, k, flavor)
            steps.append(ElementaryStep(phi, inc, 1 if conv == "T" else -1))
            cur = cur.mutate(k)
        return PLMap(steps)

    def apply(self, x):
        y = vec(x)
        for st in self.steps:
            y = st.apply(y)
        return y


@dataclass
class ConvexityReport:
    step_convex: list
    convex: bool


def _halve(p, phi, side):
    """Sorted vertices of p cut by the halfspace side * <phi, x> >= 0."""
    n = tuple(side * x for x in phi)
    return vertices_from_hrep(p.facets + [(n, Fraction(0))], p.equations,
                              p.dim)


def apply_pl_to_polytope(plmap, p):
    """Image of a polytope under a PL map via exact halfspace subdivision.

    For each elementary mutation the polytope is split along the bending
    hyperplane and each closed piece is mapped by its linear map, the
    convex hull of the union being the next polytope.  A linear piece is
    I + inc phi^T with <phi, inc> = 0: it has determinant 1 and fixes the
    bending hyperplane, so it carries a piece's vertices to the vertices
    of its image.  The report records, per step, whether the union was
    already convex, i.e. whether the hull cut back along the hyperplane
    gives the mapped pieces.
    """
    if any(len(st.phi) != p.dim for st in plmap.steps):
        raise BadParams("polytope of dimension %d under a map of another "
                        "dimension" % (p.dim,))
    flags = []
    cur = p
    for st in plmap.steps:
        pieces = []
        for side in (1, -1):
            half = _halve(cur, st.phi, side)
            if half:
                pieces.append((side, sorted(st.apply(v) for v in half)))
        hull = convex_hull([v for _, image in pieces for v in image])
        flags.append(len(pieces) == 1 or all(
            _halve(hull, st.phi, side) == image for side, image in pieces))
        cur = hull
    return cur, ConvexityReport(flags, all(flags))

"""Exact rational convex geometry: double-description vertex enumeration,
convex hulls, cone slices, lattice points, unimodular equivalence.

All computations are over the rationals; no floating point.  Polytopes may
be lower-dimensional: the affine hull is carried explicitly as a list of
equations and never silently dropped.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import BadParams, EmptyInput, Unbounded
from .linalg import (Mat, clear_denominators, independent_rows,
                     integer_scale, vdot, vec)


def _extreme_rays(rows, dim):
    """Extreme rays of the pointed cone {x : r . x >= 0 for r in rows}.

    rows must have rank == dim (pointedness).  Returns (rays, tight): the
    primitive integer rays and, for each ray, the exact set of row indices
    vanishing on it.  Classical double description with the combinatorial
    adjacency test, on integer rows and rays (Fukuda and Prodon 1996).
    """
    # a positive scaling keeps each halfspace, so the rows can be primitive
    # integer rows: from here on every pairing and new ray is an int vector
    A = [clear_denominators(vec(r)) for r in rows]
    # initial simplicial subcone from the first dim independent rows
    idx = independent_rows(A)
    if len(idx) != dim:
        raise BadParams("cone is not pointed")
    inv = Mat([A[i] for i in idx]).inverse()
    rays = [clear_denominators(inv.col(j)) for j in range(dim)]
    processed = list(idx)
    tight = []
    for r in rays:
        tight.append(frozenset(i for i in processed if vdot(A[i], r) == 0))

    rest = [i for i in range(len(A)) if i not in idx]
    for i in rest:
        a = A[i]
        vals = [vdot(a, r) for r in rays]
        plus = [j for j, v in enumerate(vals) if v > 0]
        zero = [j for j, v in enumerate(vals) if v == 0]
        minus = [j for j, v in enumerate(vals) if v < 0]
        if not minus:
            processed.append(i)
            tight = [t | {i} if j in zero else t for j, t in enumerate(tight)]
            continue
        new_rays = []
        new_tight = []
        for jp in plus:
            for jm in minus:
                common = tight[jp] & tight[jm]
                adjacent = True
                for jo in range(len(rays)):
                    if jo in (jp, jm):
                        continue
                    if common <= tight[jo]:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                r = [vals[jp] * x - vals[jm] * y
                     for x, y in zip(rays[jm], rays[jp])]
                g = math.gcd(*r)
                new_rays.append(tuple(x // g for x in r))
                new_tight.append(common | {i})
        keep = plus + zero
        rays = [rays[j] for j in keep] + new_rays
        tight = ([tight[j] | ({i} if j in zero else set()) for j in keep]
                 + new_tight)
        processed.append(i)
        seen = {}
        for r, t in zip(rays, tight):
            if r not in seen:
                seen[r] = t
        rays = list(seen)
        tight = [seen[r] for r in rays]
    return rays, tight


class AffineSubspace:
    """Affine subspace cut out by exact equalities <normal, x> = value."""

    def __init__(self, equalities, dim):
        self.equalities = [(vec(n), Fraction(v)) for n, v in equalities]
        self.dim = dim
        if any(len(n) != dim for n, _ in self.equalities):
            raise BadParams("equations must have dimension %d" % dim)


class Polytope:
    """Bounded rational polytope with V- and H-representations."""

    def __init__(self, vertices, facets, equations, dim):
        self.vertices = tuple(sorted(tuple(Fraction(x) for x in v) for v in vertices))
        self.facets = [(vec(n), Fraction(b)) for n, b in facets]
        self.equations = [(vec(n), Fraction(b)) for n, b in equations]
        self.dim = dim

    def is_empty(self):
        return not self.vertices

    def contains(self, x):
        x = vec(x)
        return (all(vdot(n, x) == b for n, b in self.equations)
                and all(vdot(n, x) >= b for n, b in self.facets))

    def translate(self, shift):
        shift = vec(shift)
        return Polytope(
            [tuple(a + b for a, b in zip(v, shift)) for v in self.vertices],
            [(n, b + vdot(n, shift)) for n, b in self.facets],
            [(n, b + vdot(n, shift)) for n, b in self.equations],
            self.dim)

    def scale(self, c):
        c = Fraction(c)
        if c <= 0:
            raise BadParams("scale factor must be positive")
        return Polytope(
            [tuple(c * x for x in v) for v in self.vertices],
            [(n, c * b) for n, b in self.facets],
            [(n, c * b) for n, b in self.equations],
            self.dim)

    def __eq__(self, other):
        return isinstance(other, Polytope) and self.vertices == other.vertices

    def to_json(self):
        return {
            "vertices": [[str(x) for x in v] for v in self.vertices],
            "facets": [{"normal": [str(x) for x in n], "offset": str(b)}
                       for n, b in self.facets],
            "equations": [{"normal": [str(x) for x in n], "value": str(b)}
                          for n, b in self.equations],
        }

    def __repr__(self):
        return "Polytope(%d vertices, dim %d)" % (len(self.vertices), self.dim)


def convex_hull(points):
    """Exact convex hull: irredundant vertices plus facet inequalities and
    affine-hull equations."""
    pts = [vec(p) for p in points]
    if not pts:
        raise EmptyInput("hull of empty point set")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise BadParams("points must all have the same length")
    pts = sorted(set(pts))
    x0 = pts[0]
    # the directions p - x0 on one denominator: integer vectors U
    den, flat = integer_scale([a - b for p in pts for a, b in zip(p, x0)])
    U = [flat[i * dim:(i + 1) * dim] for i in range(len(pts))]
    W = [clear_denominators(U[i]) for i in independent_rows(U)]
    d = len(W)

    # affine hull equations: kernel of the direction space
    if d < dim:
        eq_basis = Mat(W).kernel() if d else [
            tuple(r) for r in Mat.identity(dim).rows]
        equations = [(h, vdot(h, x0)) for h in eq_basis]
    else:
        equations = []

    if d == 0:
        return Polytope([x0], [], equations, dim)

    # facets are the extreme rays (b, n) of the cone {b + <n, c_i> >= 0}
    # over the integer Gram coordinates c_i = W u_i, u_i = den (p_i - x0)
    # (an invertible change of the coordinates in the span); such a ray is
    # the facet <phi, p - x0> >= -b with phi = den W^T n
    rays, tight = _extreme_rays(
        [(1,) + tuple(vdot(w, u) for w in W) for u in U], d + 1)
    WT = list(zip(*W))
    facets = []
    for b, *n in rays:
        phi = tuple(den * vdot(col, n) for col in WT)
        nrm = clear_denominators(phi + (vdot(phi, x0) - b,))
        facets.append((nrm[:-1], Fraction(nrm[-1])))

    # a point is a vertex iff it is the only point on all of its facets;
    # tight[j] holds the indices of the points on facet j
    on = [[] for _ in pts]
    for t in tight:
        for i in t:
            on[i].append(t)
    verts = [p for p, fs in zip(pts, on)
             if fs and len(frozenset.intersection(*fs)) == 1]
    return Polytope(verts, facets, equations, dim)


def vertices_from_hrep(ineqs, equalities, dim):
    """Vertex enumeration for {x : <n,x> >= b, <h,x> = c}; raises Unbounded
    if the set is not bounded.  Returns the (possibly empty) vertex list."""
    eqs = [(vec(n), Fraction(v)) for n, v in equalities]
    if eqs:
        E = Mat([n for n, _ in eqs])
        x0 = E.solve([v for _, v in eqs])
        if x0 is None:
            return []
        Wrows = E.kernel()
    else:
        x0 = (Fraction(0),) * dim
        Wrows = [tuple(r) for r in Mat.identity(dim).rows]
    d = len(Wrows)
    if d == 0:
        for n, b in ineqs:
            if vdot(vec(n), x0) < b:
                return []
        return [x0]
    rows = []
    for n, b in ineqs:
        n = vec(n)
        rows.append(tuple(vdot(w, n) for w in Wrows)
                    + (vdot(n, x0) - Fraction(b),))
    rows.append((Fraction(0),) * d + (Fraction(1),))
    try:
        rays, _ = _extreme_rays(rows, d + 1)
    except BadParams:
        raise Unbounded("region contains a line")
    # the kernel rows and the rays are integers: x = x0 + W^T n / t
    WT = list(zip(*Wrows))
    verts = []
    for *n, t in rays:
        if t == 0:
            if any(n):
                raise Unbounded("region has a recession ray")
            continue
        verts.append(tuple(a + Fraction(vdot(col, n), t)
                           for a, col in zip(x0, WT)))
    return sorted(set(verts))


class Cone:
    """Polyhedral region in H-representation: <normal, x> >= offset rows.

    With all offsets zero this is an honest convex cone containing 0 and
    closed under positive scaling.
    """

    def __init__(self, ineqs, dim):
        self.ineqs = [(vec(n), Fraction(b)) for n, b in ineqs]
        self.dim = dim
        if any(len(n) != dim for n, _ in self.ineqs):
            raise BadParams("cone normals must have dimension %d" % dim)


def superpotential_cone(summands, offsets=None):
    """Region where each tropicalized summand is >= its offset.

    Each summand is a PL function (see ctrop.trop.PLFunction); a min of
    linear forms >= c is expanded into one linear inequality per support
    exponent, exactly.
    """
    if not summands:
        raise EmptyInput("no summands")
    if offsets is None:
        offsets = [0] * len(summands)
    if len(offsets) != len(summands):
        raise BadParams("offsets must match summands")
    dim = summands[0].dim
    rows = []
    for g, c in zip(summands, offsets):
        c = Fraction(c)
        for ell in g.support:
            if g.kind == "t":
                # min <ell, x> >= c
                rows.append((vec(ell), c))
            else:
                # -max <ell, x> >= c
                rows.append((tuple(-x for x in ell), c))
    return Cone(rows, dim)


def slice_cone(cone, fiber):
    """Exact polytope cut out of the cone by an affine subspace; raises
    Unbounded when the intersection is not bounded."""
    verts = vertices_from_hrep(cone.ineqs, fiber.equalities, cone.dim)
    if not verts:
        return Polytope([], [], [], cone.dim)
    return convex_hull(verts)


def _integer_rows(rows, dim, equal):
    """Rows (n, b) scaled to integer coefficients and grouped by their last
    nonzero coordinate k as (n[:k+1], rhs) pairs; None if some row admits
    no integer point at all.  On integer points n.x is an integer, so an
    inequality's scaled right-hand side is rounded up, and an equation
    whose scaled right-hand side is not integral has no solution."""
    groups = [[] for _ in range(dim)]
    for n, b in rows:
        den, a = integer_scale(n)
        rhs = b * den
        if equal:
            if rhs.denominator != 1:
                return None
            rhs = int(rhs)
        else:
            rhs = math.ceil(rhs)
        k = max((i for i, c in enumerate(a) if c), default=-1)
        if k < 0:
            if rhs > 0 or (equal and rhs):
                return None
            continue
        groups[k].append((a[:k + 1], rhs))
    return groups


def _axis(lo, hi, ineqs, eqs, x):
    """Integer values of coordinate len(x) within [lo, hi] that the rows
    ending there allow, given the fixed prefix x.  Each row a has
    len(x) + 1 entries, so map() pairs the prefix with all but a[-1]."""
    for a, c in ineqs:
        s = c - sum(map(operator.mul, a, x))
        t = a[-1]
        if t > 0:
            lo = max(lo, -(-s // t))
        else:
            hi = min(hi, s // t)
    for a, c in eqs:
        s = c - sum(map(operator.mul, a, x))
        t = a[-1]
        if s % t:
            return iter(())
        lo = max(lo, s // t)
        hi = min(hi, s // t)
    return iter(range(lo, hi + 1))


def lattice_points(p, limit=5_000_000):
    """All integer points of a bounded polytope, in canonical order.

    A depth-first walk over the coordinates of the bounding box: each facet
    and equation, in integer form, bounds the coordinate where its last
    nonzero entry sits, so the walk never visits a box point that a row
    already excludes."""
    if p.is_empty():
        return []
    box = []
    total = 1
    for i in range(p.dim):
        vals = [v[i] for v in p.vertices]
        box.append((math.ceil(min(vals)), math.floor(max(vals))))
        total *= max(box[-1][1] - box[-1][0] + 1, 0)
        if total > limit:
            raise BadParams("bounding box too large for enumeration")
    ineqs = _integer_rows(p.facets, p.dim, False)
    eqs = _integer_rows(p.equations, p.dim, True)
    if ineqs is None or eqs is None:
        return []
    if not p.dim:
        return [()]
    pts = []
    x = []
    stack = [_axis(*box[0], ineqs[0], eqs[0], x)]
    while stack:
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            if x:
                x.pop()
            continue
        x.append(v)
        i = len(x)
        if i == p.dim:
            pts.append(tuple(x))
            x.pop()
        else:
            stack.append(_axis(*box[i], ineqs[i], eqs[i], x))
    return pts


def verify_unimodular(p, q, u, shift):
    """True iff u is unimodular and u * P + shift = Q as vertex sets."""
    if u.nrows != u.ncols:
        raise BadParams("transform must be square")
    if not u.is_integer():
        return False
    if abs(u.det()) != 1:
        return False
    shift = vec(shift)
    mapped = sorted(tuple(a + b for a, b in zip(u * vec(v), shift))
                    for v in p.vertices)
    return tuple(mapped) == q.vertices

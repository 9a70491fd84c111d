"""Cluster scattering diagrams with at most two mutable directions: walls,
wall-crossing, order-by-order completion, broken lines, theta functions and
structure constants.

Geometry conventions.  A diagram lives in the exponent space of its fixed
data (M°-coordinates); wall normals are stored as integer functionals (the
primitive N°-normal expressed against the coordinate basis), so crossing
powers are plain dot products.  A wall's support is the cone {phi·x = 0,
psi·x >= 0 for each integer face psi}, so every incidence test is exact:
an initial wall has no face, a ray of the rank-2 completion has one.

Coefficients follow the Laurent kernel's rule, linalg.exact: wall series,
broken-line coefficients, theta functions and structure constants are ints
when integral and Fractions only when a rational wall series brings one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import (BadParams, NonGenericEndpoint, NotInImage,
                     RankUnsupported, SingularPath, Truncated)
from .laurent import LaurentPolynomial, _summed
from .linalg import Mat, exact, integer_scale, vdot, vec

_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
           71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
           139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
           211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271)

# generic basepoints / endpoints tried before giving up
_ATTEMPTS = 32


class Wall:
    """Cone support {x : phi·x = 0, psi·x >= 0 for each face psi} with a
    truncated wall series.

    phi      integer functional (primitive N°-normal) on exponent coords
    g        exponent direction p*_1(n0)
    series   {k: c_k} for f = 1 + sum c_k z^(k g)
    n0       coefficients of the N-primitive normal on the mutable indices
    deg      N_uf^+-degree of z^g
    faces    integer functionals psi; () for the full hyperplane
    """

    def __init__(self, phi, g, series, n0, deg, faces):
        self.phi = tuple(int(x) for x in phi)
        self.g = tuple(int(x) for x in g)
        self.series = {int(k): c for k, c in
                       ((k, exact(c)) for k, c in series.items()) if c}
        self.n0 = tuple(int(x) for x in n0)
        self.deg = int(deg)
        self.faces = tuple(tuple(int(x) for x in f) for f in faces)
        if vdot(self.phi, self.g) != 0:
            raise BadParams("wall function must be constant on the wall")

    def max_k(self):
        return max(self.series, default=0)

    def power_terms(self, power, kmax):
        """Coefficients {j: a_j} of f^power = sum a_j z^(j g), j <= kmax, by
        J. C. P. Miller's recurrence n a_n = sum_k ((power+1) k - n) c_k
        a_(n-k) (Knuth, TAOCP Vol. 2, 4.7).  With c_k = C_k / L over the
        common denominator L, the integers A_n = L^n a_n satisfy the same
        recurrence with C_k L^(k-1) in place of c_k; an integral series
        (L = 1) gives the A_n themselves."""
        den = lcm(*(c.denominator for c in self.series.values()))
        scaled = [(k, int(c * den) * den ** (k - 1))
                  for k, c in self.series.items()]
        a = [1]
        for n in range(1, kmax + 1):
            a.append(sum(((power + 1) * k - n) * c * a[n - k]
                         for k, c in scaled if k <= n) // n)
        return {j: exact(Fraction(c, den ** j)) if den > 1 else c
                for j, c in enumerate(a) if c}

    def to_json(self):
        kmax = self.max_k()
        return {
            "n0": list(self.n0),
            "direction": list(self.g),
            "series": [str(self.series.get(k, 0))
                       for k in range(1, kmax + 1)],
            "kind": "ray" if self.faces else "line",
        }

    def __repr__(self):
        return "Wall(n0=%r, faces=%r, series=%r)" % (
            self.n0, self.faces, dict(sorted(self.series.items())))


class ScatteringDiagram:
    """Finitely many walls plus a truncation order.

    For cluster diagrams built from fixed data the mutable coordinate
    indices give an exact two-dimensional shadow in which the loop paths
    of consistency and completion run.
    """

    def __init__(self, walls, dim, order, unfrozen=None, fd=None):
        self.walls = list(walls)
        self.dim = dim
        self.order = order
        self.unfrozen = tuple(unfrozen) if unfrozen is not None else None
        self.fd = fd
        self._offset_cache = {}
        self._depth = None

    def at_order(self, order):
        """The same walls read at another truncation order (self when the
        order is None or unchanged)."""
        if order is None or order == self.order:
            return self
        return ScatteringDiagram(self.walls, self.dim, order, self.unfrozen,
                                 self.fd)

    # -- 2d shadow helpers -------------------------------------------------

    def proj(self, x):
        return tuple(x[i] for i in self.unfrozen)

    def on_wall(self, x, h):
        """Indices of walls whose support contains the point x, where h[i]
        is the value of wall i's functional at x.  The answer is the same
        for (c x, c h) with c > 0, so an integer point over a denominator
        may pass its numerators."""
        return [i for i, w in enumerate(self.walls)
                if h[i] == 0 and all(vdot(f, x) >= 0 for f in w.faces)]

    def _generators(self):
        """(G, degrees): the matrix whose columns are the exponent
        directions depth is measured against (the p*_1 images of the
        mutable basis vectors, or the distinct wall directions), and their
        degrees.  Built on the first depth query and kept on the diagram;
        every query checks that the directions are independent."""
        if self._depth is None:
            if self.fd is not None and self.unfrozen is not None:
                gs = [self.fd.epsilon().rows[k] for k in self.unfrozen]
                degs = [1] * len(gs)
            else:
                gens = {}
                for w in self.walls:
                    gens.setdefault(w.g, w.deg)
                gs, degs = list(gens), list(gens.values())
            self._depth = (Mat([[g[i] for g in gs] for i in range(self.dim)]),
                           degs)
        return self._depth

    def offset_coefficients(self, offset):
        """Integer coefficients of an exponent offset on the generator
        columns, or None if it is no integer combination of them."""
        G, degs = self._generators()
        sol = G.solve(offset)
        # the one elimination behind solve also gives G's rank
        if G.rank() != len(degs):
            raise BadParams("wall exponent directions are dependent")
        if sol is None or any(c.denominator != 1 for c in sol):
            return None
        return [c.numerator for c in sol]

    def offset_depth(self, offset):
        """N_uf^+-degree of an exponent offset in the positive cone of the
        wall exponent directions, or None if the offset is not there."""
        offset = tuple(offset)
        if offset in self._offset_cache:
            return self._offset_cache[offset]
        sol = self.offset_coefficients(offset)
        if sol is None or any(c < 0 for c in sol):
            d = None
        else:
            degs = self._generators()[1]
            d = sum(c * w for c, w in zip(sol, degs))
        self._offset_cache[offset] = d
        return d

    def depth_of_offset(self, offset):
        d = self.offset_depth(offset)
        if d is None:
            raise BadParams("offset %r not in the positive exponent cone"
                            % (tuple(offset),))
        return d

    def to_json(self):
        # at equal n0 a line (no faces) sorts first, as its JSON kind does
        walls = sorted(self.walls, key=lambda w: (w.n0, bool(w.faces)))
        return {"order": self.order, "walls": [w.to_json() for w in walls]}


def _mutable(dia):
    """The mutable coordinate indices of the diagram; BadParams for a
    diagram built without them."""
    if dia.unfrozen is None:
        raise BadParams("diagram has no mutable directions")
    return dia.unfrozen


def initial_diagram(fd, p, order):
    """Initial cluster scattering diagram for the given fixed data; one
    full hyperplane per mutable direction.  The ensemble map p is unused;
    it stays in the signature only for the benchmark's positional call
    initial_diagram(fd, p, order)."""
    ks = sorted(fd.unfrozen)
    if len(ks) > 2:
        raise RankUnsupported("scattering needs at most 2 mutable directions")
    if order < 0:
        raise BadParams("truncation order must be nonnegative")
    eps = fd.epsilon()
    walls = []
    for k in ks:
        phi = [0] * fd.n
        phi[k] = 1
        g = [int(x) for x in eps.rows[k]]
        n0 = tuple(1 if j == k else 0 for j in ks)
        walls.append(Wall(phi, g, {1: 1}, n0, 1, ()))
    return ScatteringDiagram(walls, fd.n, order, unfrozen=ks, fd=fd)


def _primitive_pair(a, b):
    g = gcd(a, b)
    return (a // g, b // g, g)


def _ray_wall(dia, a, b, series):
    """Wall on the ray with N-primitive normal a e_k1 + b e_k2.  Its face
    is the outgoing shadow direction -proj(g) on the mutable coordinates,
    where phi lives too: as proj(g) != 0, the shadow of a point of phi = 0
    is a multiple of it."""
    fd = dia.fd
    ks = dia.unfrozen
    d1, d2 = fd.d[ks[0]], fd.d[ks[1]]
    t = lcm(d1 // gcd(a, d1), d2 // gcd(b, d2))
    phi = [0] * fd.n
    phi[ks[0]] = t * a // d1
    phi[ks[1]] = t * b // d2
    eps = fd.epsilon()
    g = [int(a * eps.rows[ks[0]][j] + b * eps.rows[ks[1]][j])
         for j in range(fd.n)]
    face = [-x if j in ks else 0 for j, x in enumerate(g)]
    return Wall(phi, g, series, (a, b), a + b, (face,))


# -- wall crossing and path-ordered products --------------------------------


def wall_cross(mono, wall, crossing_sign, max_k):
    """Image of a monomial under one wall-crossing automorphism.

    mono is (coefficient, exponent); the crossing power is
    crossing_sign * <phi, exponent>.  The power of the wall function
    (a geometric series when the power is negative) is truncated at
    `max_k` series steps.
    """
    coef, exp = mono[0], tuple(mono[1])
    power = crossing_sign * vdot(wall.phi, exp)
    terms = wall.power_terms(power, max_k) if power else {0: 1}
    return _summed(((tuple(a + j * b for a, b in zip(exp, wall.g)), coef * c)
                    for j, c in terms.items()), len(exp))


def _apply_wall(poly, wall, sign, dia, base_exp):
    """Apply one crossing to a polynomial, truncating offsets beyond the
    diagram order (offsets measured from base_exp)."""
    def terms():
        for e, c in poly.coeffs.items():
            used = dia.depth_of_offset(tuple(a - b for a, b in
                                             zip(e, base_exp)))
            budget = dia.order - used
            if budget >= 0:
                yield from wall_cross((c, e), wall, sign,
                                      max_k=budget // wall.deg).coeffs.items()

    # a wall's direction g has depth deg, so its j-th term adds
    # j * deg <= budget to the depth: no term lands past the order
    return _summed(terms(), poly.dim)


def _crossings(dia, chambers):
    """(wall index, sign) of every crossing, in order, of the path that
    runs straight from each chamber direction (2d shadow) to the next: the
    walls of the open sector between the two, each crossed with sign -1
    when phi grows along the side.  Each side must turn counterclockwise by
    less than a half-turn (BadParams otherwise); a repeated direction is an
    empty side.  Raises SingularPath if a chamber direction lies on a
    wall."""
    k1, k2 = _mutable(dia)
    pts = []
    for c in chambers:
        a, b = integer_scale(vec(c))[1]
        g = gcd(a, b) or 1
        X = tuple(a // g if i == k1 else b // g if i == k2 else 0
                  for i in range(dia.dim))
        H = tuple(vdot(w.phi, X) for w in dia.walls)
        if dia.on_wall(X, H):
            raise SingularPath("chamber direction on a wall")
        pts.append((X, 1, H))
    crossings = []
    for x, y in zip(pts, pts[1:]):
        if x == y:
            continue
        (a0, a1), (b0, b1) = dia.proj(x[0]), dia.proj(y[0])
        if a0 * b1 - a1 * b0 <= 0:
            raise BadParams("a path side must turn counterclockwise by "
                            "less than a half-turn")
        v = tuple(q - p for p, q in zip(x[0], y[0]))
        crossings.extend((i, -1 if vdot(dia.walls[i].phi, v) > 0 else 1)
                         for s, i, _ in _segment_crossings(dia, x, v) if s < 1)
    return crossings


def _apply_crossings(dia, crossings, base):
    """The crossings applied in order to the monomial z^base."""
    poly = LaurentPolynomial.monomial(base)
    for i, sign in crossings:
        poly = _apply_wall(poly, dia.walls[i], sign, dia, base)
    return poly


def path_ordered_product(chambers, dia):
    """Composite wall-crossing automorphism along a path through the given
    chamber directions (2d shadow), as images of the coordinate monomials.

    The path runs straight from each direction to the next, so each side
    must turn counterclockwise by less than a half-turn (BadParams
    otherwise); a full loop needs at least three sides.  Raises
    SingularPath if a chamber direction lies on a wall, and RankUnsupported
    below two mutable directions, where there is no 2d shadow to sweep.
    """
    if len(_mutable(dia)) < 2:
        raise RankUnsupported("path-ordered products need 2 mutable "
                              "directions")
    crossings = _crossings(dia, chambers)
    return {j: _apply_crossings(dia, crossings,
                                tuple(1 if i == j else 0
                                      for i in range(dia.dim)))
            for j in range(dia.dim)}


def _generic_loop_dirs(dia):
    """A closed CCW loop of four generic directions, one per open quadrant
    of the 2d shadow, none on a wall's hyperplane.  The candidate
    (qx (t+1), qy t) lies on the line a x + b y = 0 for at most one t,
    with |t| <= |a|, unless (a, b) = 0: so some t <= 1 + max |a| is
    generic, and only a wall with a zero shadow normal leaves none."""
    phis = [dia.proj(w.phi) for w in dia.walls]
    top = 2 + max((abs(a) for a, _ in phis), default=0)

    def pick(qx, qy):
        for t in range(1, top):
            cand = (qx * (t + 1), qy * t)
            if all(vdot(phi, cand) != 0 for phi in phis):
                return cand
        raise SingularPath("no generic loop direction found")

    d1 = pick(1, 1)
    d2 = pick(-1, 1)
    d3 = pick(-1, -1)
    d4 = pick(1, -1)
    return [d1, d2, d3, d4, d1]


def loop_defect(dia, order=None):
    """Degree-graded defect of the full loop on a generic probe monomial:
    {offset: coefficient} with the identity part removed."""
    dia = dia.at_order(order)
    ks = _mutable(dia)
    if len(ks) <= 1:
        # a single wall crossed twice cancels: nothing to report
        return {}
    k1, k2 = ks
    base = tuple(1 if i in (k1, k2) else 0 for i in range(dia.dim))
    poly = _apply_crossings(dia, _crossings(dia, _generic_loop_dirs(dia)),
                            base)
    out = {}
    for e, c in poly.coeffs.items():
        off = tuple(a - b for a, b in zip(e, base))
        if any(off):
            out[off] = c
        elif c != 1:
            out[off] = c - 1
    return out


def is_consistent(dia, order=None):
    """Loop path-ordered product equals the identity on all generators up
    to the truncation order."""
    dia = dia.at_order(order)
    if len(_mutable(dia)) <= 1:
        return True
    table = path_ordered_product(_generic_loop_dirs(dia), dia)
    for j, poly in table.items():
        base = tuple(1 if i == j else 0 for i in range(dia.dim))
        if poly != LaurentPolynomial.monomial(base):
            return False
    return True


def complete_rank2(dia):
    """Order-by-order completion of a rank <= 2 initial cluster diagram to
    a consistent diagram, inserting outgoing rays with uniquely determined
    series coefficients."""
    if dia.fd is None or dia.unfrozen is None:
        raise BadParams("completion needs a cluster diagram")
    if len(dia.unfrozen) > 2:
        raise RankUnsupported("completion implemented for <= 2 mutable directions")
    walls = [Wall(w.phi, w.g, w.series, w.n0, w.deg, w.faces)
             for w in dia.walls]
    out = ScatteringDiagram(walls, dia.dim, dia.order, dia.unfrozen, dia.fd)
    if len(out.unfrozen) <= 1:
        return out
    k1, k2 = out.unfrozen
    if out.fd.epsilon().rows[k1][k2] == 0:
        return out
    base = tuple(1 if i in (k1, k2) else 0 for i in range(out.dim))
    ray_index = {}

    # the degree-deg defect is linear in the rays' degree-deg coefficients,
    # and each offset belongs to one ray: one correction per degree
    for deg in range(2, out.order + 1):
        defect = loop_defect(out, deg)
        for off in sorted(defect):
            if out.depth_of_offset(off) != deg:
                continue
            a, b, k = _primitive_pair(*out.offset_coefficients(off))
            idx = ray_index.get((a, b))
            if idx is None:
                out.walls.append(_ray_wall(out, a, b, {}))
                idx = ray_index[(a, b)] = len(out.walls) - 1
            w = out.walls[idx]
            # the loop crosses the ray counterclockwise, along (-u1, u0)
            u = out.proj(w.faces[0])
            sign = -1 if vdot(out.proj(w.phi), (-u[1], u[0])) > 0 else 1
            w.series[k] = exact(w.series.get(k, 0) + Fraction(
                -defect[off], sign * vdot(w.phi, base)))
            if w.series[k] == 0:
                del w.series[k]
    if not is_consistent(out):
        raise BadParams("completed diagram fails the consistency oracle")
    out.walls.sort(key=lambda w: (bool(w.faces), w.n0))
    return out


# -- broken lines and theta functions ----------------------------------------


class BrokenLine:
    """Decorated piecewise-linear path.  Segments are listed from the
    initial (unbounded) one to the final one; each entry is
    (exponent, coefficient, wall index or None, start point or None)."""

    def __init__(self, segments, endpoint):
        self.segments = segments
        self.endpoint = tuple(endpoint)

    def final(self):
        seg = self.segments[-1]
        return (seg[1], seg[0])

    def leg_times(self):
        """Parameter time spent on each bounded segment (initial segment
        excluded; it is infinite)."""
        times = []
        for i in range(1, len(self.segments)):
            exp, _, _, start = self.segments[i]
            end = (self.segments[i + 1][3] if i + 1 < len(self.segments)
                   else self.endpoint)
            dt = None
            for j, comp in enumerate(exp):
                if comp != 0:
                    dt = Fraction(start[j] - end[j]) / comp
                    break
            times.append(dt)
        return times

    def __repr__(self):
        return "BrokenLine(%r -> %r at %r)" % (
            self.segments[0][0], self.final(), self.endpoint)


def _segment_crossings(dia, x, v):
    """Wall crossings along the open ray {X/D + s v : s > 0} from the point
    x = (X, D, H): integer numerators X over one denominator D > 0, with
    H[i] = phi_i·X, so wall i has the value H[i]/D there.  Wall i is
    crossed at s = -H[i] / (D phi_i·v), which is positive only when H[i]
    and phi_i·v have opposite signs; every other wall is skipped before an
    s is formed, and so is a crossing point off the wall's cone (a face
    negative there).  Returns the crossings sorted by s as (s, wall index,
    point there in the same form).  Raises NonGenericEndpoint where a
    crossing point is on the boundary of its cone (a joint) and where two
    walls are crossed at once."""
    X, D, H = x
    dens = [vdot(w.phi, v) for w in dia.walls]
    found = []
    for i, (w, hi, d) in enumerate(zip(dia.walls, H, dens)):
        if hi * d >= 0:
            continue
        # the crossing point, scaled by D |d| > 0, is |d| X + sh v
        ad, sh = (d, -hi) if d > 0 else (-d, hi)
        joint = False
        for f in w.faces:
            t = ad * vdot(f, X) + sh * vdot(f, v)
            if t < 0:
                break
            joint = joint or t == 0
        else:
            if joint:
                raise NonGenericEndpoint("path through a joint")
            found.append((Fraction(hi, -D * d), i, ad, sh))
    found.sort()
    for (s1, *_), (s2, *_) in zip(found, found[1:]):
        if s1 == s2:
            raise NonGenericEndpoint("path through a wall intersection")
    out = []
    for s, i, ad, sh in found:
        Y = [ad * a + sh * b for a, b in zip(X, v)]
        g = gcd(*Y, D * ad)
        out.append((s, i, (tuple(a // g for a in Y), D * ad // g,
                           tuple((ad * a + sh * b) // g
                                 for a, b in zip(H, dens)))))
    return out


def _offset_candidates(dia, bound):
    """The offsets G c over the generator columns of the diagram, c >= 0
    integral with total degree sum c_i deg_i <= bound, with their degrees.
    Each wall direction lies there at its own degree, so these hold every
    sum of wall directions within the bound: every start of a broken line
    whose bends stay within it."""
    G, degs = dia._generators()
    offs = {(0,) * dia.dim: 0}
    for g, deg in zip(G.cols(), degs):
        for off, d0 in list(offs.items()):
            for j in range(1, (bound - d0) // deg + 1):
                offs.setdefault(tuple(a + j * b for a, b in zip(off, g)),
                                d0 + j * deg)
    return offs


def _sized(dia, x, what):
    """x, a label or a point; BadParams when its length differs from the
    diagram dimension."""
    if len(x) != dia.dim:
        raise BadParams("%s has %d entries; the diagram has dimension %d"
                        % (what, len(x), dia.dim))
    return x


def _label(dia, m):
    """A theta label as an integer tuple of the diagram dimension."""
    m = tuple(int(x) for x in m)
    return _sized(dia, m, "label %r" % (m,))


def _walk(dia, m, x, v, later, results):
    """Follow broken lines with initial exponent m backwards from the point
    x = (X, D, H) of _segment_crossings, against the exponent v, and append
    the segments of each one that reaches its initial ray to results.
    `later` holds (exponent, wall, bend point, factor) for the segments
    after the current one, in reverse path order.  A module-level
    function, so no call leaves a reference cycle behind."""
    rem = dia.offset_depth(tuple(a - b for a, b in zip(v, m)))
    if rem is None:
        return
    if rem == 0:
        # certify that the initial ray is clean
        _segment_crossings(dia, x, v)
        results.append([(m, None, None, 1)] + list(reversed(later)))
        return
    for _, i, y in _segment_crossings(dia, x, v):
        w = dia.walls[i]
        if dia.on_wall(y[0], y[2]) != [i]:
            raise NonGenericEndpoint("bend point on several walls")
        pt = tuple(Fraction(a, y[1]) for a in y[0])
        # a bend takes a term j >= 1 of f^power
        for j, c in w.power_terms(abs(vdot(w.phi, v)), rem // w.deg).items():
            if j:
                prev = tuple(a - j * b for a, b in zip(v, w.g))
                _walk(dia, m, y, prev, later + [(v, i, pt, c)], results)


def enumerate_broken_lines(dia, m, endpoint, degree_bound=None):
    """All generic broken lines with the given initial exponent and
    endpoint, bending depth at most degree_bound.  Returns (lines,
    exact) where exact is False when a bend was pruned by the bound."""
    m = _label(dia, m)
    if not any(m):
        raise BadParams("initial exponent must be nonzero")
    bound = degree_bound if degree_bound is not None else dia.order
    if bound < 0:
        raise BadParams("degree bound must be nonnegative")
    x0 = _sized(dia, vec(endpoint), "endpoint")
    h0 = tuple(vdot(w.phi, x0) for w in dia.walls)
    if dia.on_wall(x0, h0):
        raise NonGenericEndpoint("endpoint lies on a wall")
    # the endpoint on one common denominator (see _segment_crossings)
    den, X = integer_scale(x0)
    start = (X, den, tuple(int(a * den) for a in h0))
    results = []
    for off, d in sorted(_offset_candidates(dia, bound).items()):
        v0 = tuple(a + b for a, b in zip(m, off))
        if not any(v0):
            continue
        _walk(dia, m, start, v0, [], results)

    lines = []
    hit_bound = False
    for segs in results:
        coef = 1
        full = []
        for exp, wi, pt, factor in segs:
            coef *= factor
            full.append((exp, coef, wi, pt))
        ln = BrokenLine(full, x0)
        off = tuple(a - b for a, b in zip(ln.final()[1], m))
        if dia.depth_of_offset(off) >= bound:
            hit_bound = True
        lines.append(ln)
    lines.sort(key=lambda l: ([s[0] for s in l.segments],))
    return lines, not hit_bound


def _sample_basepoint(dia, attempt):
    p = _PRIMES[(2 * attempt) % len(_PRIMES)]
    q = _PRIMES[(2 * attempt + 1) % len(_PRIMES)]
    x = [0] * dia.dim
    ks = _mutable(dia)
    x[ks[0]] = 1 + Fraction(1, p)
    if len(ks) > 1:
        x[ks[1]] = 1 + Fraction(2, q)
    return tuple(x)


def _at_generic_point(candidate, compute):
    """compute(x) at the first of the points candidate(0), candidate(1),
    ... (at most _ATTEMPTS of them) where it raises no NonGenericEndpoint;
    candidate returns None for a point to skip.  Raises
    NonGenericEndpoint when the candidates run out."""
    for attempt in range(_ATTEMPTS):
        x = candidate(attempt)
        if x is None:
            continue
        try:
            return compute(x)
        except NonGenericEndpoint:
            continue
    raise NonGenericEndpoint("no generic endpoint found")


def theta_function(dia, m, degree_bound=None):
    """Theta function with label m: sum of final monomials of all broken
    lines ending at a generic basepoint interior to the positive chamber.

    Returns (polynomial, exact flag).  theta_0 = 1 by definition.
    """
    m = _label(dia, m)
    if not any(m):
        return LaurentPolynomial.one(dia.dim), True

    def at(x0):
        lines, exact = enumerate_broken_lines(dia, m, x0, degree_bound)
        return _summed(((e, c) for c, e in map(BrokenLine.final, lines)),
                       dia.dim), exact

    return _at_generic_point(lambda attempt: _sample_basepoint(dia, attempt),
                             at)


def theta_on_x(dia_prin, dn, p, degree_bound=None):
    """Theta function on the X variety with label dn, computed on the
    principal-coefficient diagram and rewritten through the monomial map
    n -> (p*(n), n).  Raises NotInImage if the rewrite fails."""
    fdp = dia_prin.fd
    n_small = fdp.n // 2
    d_all = lcm(*fdp.d[:n_small])
    if any(x % d_all for x in dn):
        raise BadParams("label must be divisible by lcm of multipliers")
    n_vec = tuple(x // d_all for x in dn)
    label = tuple(int(x) for x in p.apply(n_vec)) + n_vec
    theta, exact = theta_function(dia_prin, label, degree_bound=degree_bound)
    out = {}
    for e, c in theta.coeffs.items():
        u, w = e[:n_small], e[n_small:]
        if tuple(int(x) for x in p.apply(w)) != tuple(u):
            raise NotInImage("exponent %r is not in the image of the "
                             "coefficient quotient" % (e,))
        out[w] = c
    return LaurentPolynomial(out, n_small), exact


def structure_constant(dia, p_lab, q_lab, r_lab, degree_bound=None):
    """Structure constant alpha(p, q, r) counted by pairs of broken lines
    ending at a generic point adjacent to r."""
    p_lab = _label(dia, p_lab)
    q_lab = _label(dia, q_lab)
    r_lab = _label(dia, r_lab)
    if not any(p_lab):
        return 1 if q_lab == r_lab else 0
    if not any(q_lab):
        return 1 if p_lab == r_lab else 0
    bound = degree_bound if degree_bound is not None else dia.order

    def at(z):
        lines_p, ex_p = enumerate_broken_lines(dia, p_lab, z, bound)
        lines_q, ex_q = enumerate_broken_lines(dia, q_lab, z, bound)
        if not (ex_p and ex_q):
            raise Truncated("degree bound reached while pairing broken lines")
        total = 0
        for l1 in lines_p:
            c1, f1 = l1.final()
            for l2 in lines_q:
                c2, f2 = l2.final()
                if tuple(a + b for a, b in zip(f1, f2)) == r_lab:
                    total += c1 * c2
        return exact(total)

    return _at_generic_point(lambda attempt: _near_point(dia, r_lab, attempt),
                             at)


def _near_point(dia, r, attempt):
    """Generic rational point close to r: same strict side of every wall
    not containing r, off every wall."""
    delta = []
    for i in range(dia.dim):
        pr = _PRIMES[(i + 3 * attempt) % len(_PRIMES)]
        delta.append(Fraction(1, pr))
    for s in range(2, 64):
        scale = Fraction(1, 2 ** s)
        z = tuple(Fraction(a) + scale * b for a, b in zip(r, delta))
        ok = True
        for w in dia.walls:
            vr = vdot(w.phi, r)
            vz = vdot(w.phi, z)
            if vz == 0:
                ok = False
                break
            if vr != 0 and (vr > 0) != (vz > 0):
                ok = False
                break
        if ok:
            return z
    return None


class LazyThetaTable:
    """Theta functions computed on demand and cached; entries that hit the
    degree bound raise Truncated rather than entering the table."""

    def __init__(self, dia, degree_bound=None):
        self.dia = dia
        self.degree_bound = degree_bound
        self._cache = {}

    def get(self, label):
        label = tuple(int(x) for x in label)
        if label not in self._cache:
            poly, exact = theta_function(self.dia, label,
                                         degree_bound=self.degree_bound)
            if not exact:
                raise Truncated("theta %r hit the degree bound" % (label,))
            self._cache[label] = poly
        return self._cache[label]

    def __getitem__(self, label):
        return self.get(label)

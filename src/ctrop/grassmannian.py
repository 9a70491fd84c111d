"""Rectangles-seed combinatorics for Grassmannians: Plücker/Young
indexing, GT-tableau flow valuations, hook-formula g-vectors, the lattice
map psi, the valuation comparison, and Newton-Okounkov bodies.

Vertex order: index 0 is the empty rectangle, followed by the grid boxes
i x j in row-major order (i = 1..n-k rows, j = 1..k columns).  A vertex is
frozen iff it is the empty rectangle, sits in the last row, or sits in the
last column.  All multipliers are 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import BadParams, NotLaurent
from .laurent import LaurentPolynomial, is_pointed
from .linalg import Mat, vec
from .polytopes import convex_hull, verify_unimodular
from .seeds import EnsembleMap, FixedData


class GrData:
    """Grid bookkeeping for the rectangles seed of Gr_{n-k}(C^n)."""

    def __init__(self, k, n):
        if not 0 < k < n:
            raise BadParams("need 0 < k < n")
        self.k = k
        self.n = n
        self.rows = n - k
        self.cols = k
        self.dim = self.rows * self.cols + 1

    def index(self, i, j):
        """Vertex index of box i x j (1-based); 0 is the empty rectangle."""
        if i == 0 and j == 0:
            return 0
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise BadParams("box out of range")
        return 1 + (i - 1) * self.cols + (j - 1)

    def box(self, idx):
        if idx == 0:
            return (0, 0)
        i, j = divmod(idx - 1, self.cols)
        return (i + 1, j + 1)

    def frozen(self, idx):
        if idx == 0:
            return True
        i, j = self.box(idx)
        return i == self.rows or j == self.cols

    def mutable_indices(self):
        return [v for v in range(self.dim) if not self.frozen(v)]

    def plucker_indices(self):
        return [tuple(c) for c in combinations(range(1, self.n + 1),
                                               self.rows)]


def young_from_index(J, k, n):
    """Row lengths of the Young diagram cut out by the lattice path whose
    south steps sit at the positions J."""
    gr = GrData(k, n)
    J = tuple(sorted(J))
    if len(J) != gr.rows or any(not 1 <= x <= n for x in J) \
            or len(set(J)) != len(J):
        raise BadParams("index set must have n-k distinct entries in [n]")
    south = set(J)
    lam = []
    west_after = 0
    for pos in range(n, 0, -1):
        if pos in south:
            lam.append(west_after)
        else:
            west_after += 1
    lam.reverse()
    return tuple(lam)


def gt_valuation(J, k, n):
    """GT tableau of the flow valuation of p_J in the rectangles seed.

    Box (i, j) receives t when it lies between the (t-1)-st and t-th
    south-east shifted copy of the boundary path of the diagram of J; the
    value works out to the number of shifts t >= 0 with i > t and
    j > lam_(i-t) + t.
    """
    gr = GrData(k, n)
    lam = young_from_index(J, k, n)
    tab = []
    for i in range(1, gr.rows + 1):
        row = []
        for j in range(1, gr.cols + 1):
            v = 0
            for t in range(0, i):
                if j > lam[i - t - 1] + t:
                    v += 1
            row.append(v)
        tab.append(tuple(row))
    return tuple(tab)


def gt_vector(J, k, n):
    """GT tableau flattened to the grid coordinates (no empty-rectangle
    coordinate), row-major."""
    return tuple(x for row in gt_valuation(J, k, n) for x in row)


def _corners(lam):
    """Turning rectangles (i_p, j_p) of the boundary path, outer corners
    read north-east to south-west."""
    corners = []
    rows = 0
    for r, ln in enumerate(lam):
        if ln == 0:
            break
        rows = r + 1
        if r + 1 == len(lam) or lam[r + 1] < ln:
            corners.append((r + 1, ln))
    return corners


def hook_g_vector(J, k, n):
    """Hook formula for the g-vector of p_J in the opposite rectangles
    seed: alternating sum over the turning rectangles.  The empty diagram
    maps to the empty-rectangle basis vector by the frozen correspondence.
    """
    gr = GrData(k, n)
    lam = young_from_index(J, k, n)
    g = [0] * gr.dim
    corners = _corners(lam)
    if not corners:
        g[0] = 1
        return tuple(g)
    for p, (i, j) in enumerate(corners):
        g[gr.index(i, j)] += 1
        if p + 1 < len(corners):
            g[gr.index(i, corners[p + 1][1])] -= 1
    return tuple(g)


def homogenized_g(J, k, n):
    """Degree-one homogenization: hook g-vector minus the basis vector of
    the full rectangle."""
    gr = GrData(k, n)
    g = list(hook_g_vector(J, k, n))
    g[gr.index(gr.rows, gr.cols)] -= 1
    return tuple(g)


def psi_matrix(k, n):
    """Matrix of the cluster ensemble lattice map psi in the rectangles
    basis; column v holds psi(e_v) in the f-basis.

    The mutable column is the six-term alternating pattern, the frozen
    column the four-term one, and the empty-rectangle column closes the
    kernel so that ker(psi) is spanned by the all-ones vector.  Out-of-grid
    terms vanish, except that the 0 x 0 position means the empty rectangle
    (entering the mutable column with a minus sign).
    """
    gr = GrData(k, n)
    cols = []

    def f(i, j):
        out = [0] * gr.dim
        if i == 0 and j == 0:
            out[0] = 1
            return out
        if i < 1 or j < 1 or i > gr.rows or j > gr.cols:
            return out
        out[gr.index(i, j)] = 1
        return out

    def add(target, term, sign):
        for t in range(gr.dim):
            target[t] += sign * term[t]

    for v in range(gr.dim):
        col = [0] * gr.dim
        if v == 0:
            add(col, f(0, 0), 1)
            add(col, f(1, gr.cols), -1)
            add(col, f(1, 1), 1)
            add(col, f(gr.rows, 1), -1)
        else:
            i, j = gr.box(v)
            if gr.frozen(v):
                add(col, f(i, j), 1)
                add(col, f(i - 1, j), -1)
                add(col, f(i - 1, j - 1), 1)
                add(col, f(i, j - 1), -1)
            else:
                sign00 = -1 if (i - 1, j - 1) == (0, 0) else 1
                add(col, f(i - 1, j - 1), sign00)
                add(col, f(i - 1, j), -1)
                add(col, f(i, j + 1), 1)
                add(col, f(i + 1, j + 1), -1)
                add(col, f(i + 1, j), 1)
                add(col, f(i, j - 1), -1)
        cols.append(col)
    return Mat.from_cols(cols)


def rectangles_seed(k, n, opposite=False):
    """Fixed data, initial seed and ensemble map of the rectangles quiver.

    With opposite=True the quiver orientation is reversed (the convention
    in which the hook formula computes g-vectors) and the ensemble map is
    -psi.
    """
    gr = GrData(k, n)
    eps = [[0] * gr.dim for _ in range(gr.dim)]

    def arrow(a, b):
        eps[a][b] += 1
        eps[b][a] -= 1

    for i in range(1, gr.rows + 1):
        for j in range(1, gr.cols + 1):
            v = gr.index(i, j)
            if j < gr.cols:
                arrow(v, gr.index(i, j + 1))          # east
            if i < gr.rows:
                arrow(v, gr.index(i + 1, j))          # south
            if i < gr.rows and j < gr.cols:
                arrow(gr.index(i + 1, j + 1), v)      # north-west diagonal
    arrow(0, gr.index(1, 1))
    arrow(gr.index(1, gr.cols), 0)
    arrow(gr.index(gr.rows, 1), 0)

    lam = Mat(eps)
    psi = psi_matrix(k, n)
    if opposite:
        lam = -lam
        psi = -psi
    unfrozen = set(gr.mutable_indices())
    fd = FixedData(gr.dim, unfrozen, lam, (1,) * gr.dim)
    em = EnsembleMap(fd, psi)
    # the ensemble-map block identity outside the frozen square
    diff = em.matrix - fd.epsilon().transpose()
    for a in range(gr.dim):
        for b in range(gr.dim):
            if (not gr.frozen(a) or not gr.frozen(b)) and diff.rows[a][b] != 0:
                raise BadParams("psi violates the ensemble map constraint")
    return fd, fd.initial_seed(), em


def verify_val_gv(k, n):
    """Check -psi(val(p_J)) = homogenized g(p_J) for every index J."""
    gr = GrData(k, n)
    psi = psi_matrix(k, n)
    report = {}
    for J in gr.plucker_indices():
        val = gt_vector(J, k, n)
        full = (0,) + val
        lhs = tuple(-x for x in (psi * vec(full)))
        rhs = homogenized_g(J, k, n)
        report[J] = (tuple(int(x) for x in lhs) == rhs)
    return report


def no_body(k, n, side):
    """Newton-Okounkov body from the flow valuations (grid coordinates) or
    from the homogenized g-vectors (full coordinates, degree-zero slice)."""
    gr = GrData(k, n)
    if side == "flow":
        pts = [gt_vector(J, k, n) for J in gr.plucker_indices()]
    elif side == "gvec":
        pts = [homogenized_g(J, k, n) for J in gr.plucker_indices()]
    else:
        raise BadParams("side must be 'flow' or 'gvec'")
    return convex_hull(pts)


def bodies_unimodular(k, n):
    """The two bodies are identified by -psi restricted to the grid
    columns with the empty-rectangle row dropped (the degree-zero lattice
    is coordinatized by forgetting that coordinate)."""
    gr = GrData(k, n)
    psi = psi_matrix(k, n)
    u = Mat([[-psi.rows[r][c] for c in range(1, gr.dim)]
             for r in range(1, gr.dim)])
    flow = no_body(k, n, "flow")
    gb = no_body(k, n, "gvec")
    gb_proj = convex_hull([v[1:] for v in gb.vertices])
    return verify_unimodular(flow, gb_proj, u, (0,) * (gr.dim - 1)), u


def _exchange_step(seed, variables, kdir):
    """New cluster variable at direction kdir via the exchange relation,
    with all variables expanded in the initial chart."""
    eps = seed.eps
    d = seed.fixed.d
    n = seed.fixed.n
    mono_p = LaurentPolynomial.one(n)
    mono_m = LaurentPolynomial.one(n)
    for j in range(n):
        e = eps.rows[j][kdir]
        expnt = Fraction(d[j]) * (e if e > 0 else 0) / d[kdir]
        expnt_m = Fraction(d[j]) * (-e if e < 0 else 0) / d[kdir]
        if expnt:
            if expnt.denominator != 1:
                raise BadParams("non-integral exchange exponent")
            mono_p = mono_p * variables[j].pow(int(expnt))
        if expnt_m:
            if expnt_m.denominator != 1:
                raise BadParams("non-integral exchange exponent")
            mono_m = mono_m * variables[j].pow(int(expnt_m))
    return (mono_p + mono_m).divide_exact(variables[kdir])


def cluster_bfs_g_vectors(k, n, depth):
    """BFS over mutation words from the opposite rectangles seed (the
    convention of the hook formula), tracking each cluster variable's
    Laurent expansion in the initial chart and its g-vector via the
    pointedness test.

    Returns {word: [(vertex, g-vector), ...]} with seeds deduplicated by
    their (basis, eps) data.
    """
    fd, seed0, em = rectangles_seed(k, n, opposite=True)
    n_dim = fd.n
    init_vars = [LaurentPolynomial.monomial(
        tuple(1 if t == v else 0 for t in range(n_dim))) for v in range(n_dim)]
    out = {(): [(v, is_pointed(f, seed0, em))
                for v, f in enumerate(init_vars)]}
    seen = {seed0.key(): ()}
    frontier = [(seed0, init_vars, out[()])]
    for _ in range(depth):
        nxt = []
        for seed, variables, parent_gvs in frontier:
            for kdir in sorted(fd.unfrozen):
                s2 = seed.mutate(kdir)
                if s2.key() in seen:
                    continue
                new_vars = list(variables)
                try:
                    new_vars[kdir] = _exchange_step(seed, variables, kdir)
                except NotLaurent:
                    raise NotLaurent(
                        "exchange relation left the Laurent ring at %r"
                        % (s2.word,))
                seen[s2.key()] = s2.word
                # an exchange changes one cluster variable; the others keep
                # the parent's g-vectors
                g = is_pointed(new_vars[kdir], seed0, em)
                if g is None:
                    raise NotLaurent("cluster variable is not pointed")
                gvs = list(parent_gvs)
                gvs[kdir] = (kdir, g)
                out[s2.word] = gvs
                nxt.append((s2, new_vars, gvs))
        frontier = nxt
        if not frontier:
            break
    return out


def hook_g_table(k, n):
    """Plücker index -> hook g-vector, for matching BFS output."""
    gr = GrData(k, n)
    return {J: hook_g_vector(J, k, n) for J in gr.plucker_indices()}

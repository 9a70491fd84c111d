"""Exact oracles for the benchmark's operations.

Each check takes plain values computed by the workload and returns True
only for a correct answer.  Closed-form counts are computed here, without
ctrop, so they are independent of the code under test.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod


def hook_content_count(rows, n, level):
    """Number of semistandard tableaux of the rectangle with `rows` rows
    and `level` columns, entries in 1..n (Stanley's hook-content formula).
    This is the dimension of the degree-`level` part of the coordinate ring
    of Gr(rows, n), i.e. the lattice-point count of the level-scaled
    Newton-Okounkov body."""
    cells = [(i, j) for i in range(rows) for j in range(level)]
    num = prod(n + j - i for i, j in cells)
    den = prod((level - j - 1) + (rows - i - 1) + 1 for i, j in cells)
    return num // den


def check_lattice(count, rows, n, level):
    return count == hook_content_count(rows, n, level)


def check_hull(n_vertices, all_contained, rows, n):
    """Every Plücker valuation is a vertex: C(n, rows) of them."""
    return n_vertices == comb(n, rows) and all_contained


def check_expand(leading_label, leading_coef, p, q):
    """Criterion 5: theta_p * theta_q has g-valuation p + q, coefficient 1."""
    want = tuple(a + b for a, b in zip(p, q))
    return tuple(leading_label) == want and leading_coef == 1


def check_alpha(alpha, expansion_coef):
    """A structure constant equals its expansion coefficient and is a
    nonnegative integer."""
    a = Fraction(alpha)
    return a == expansion_coef and a >= 0 and a.denominator == 1


def check_kron_theta(pointed_at, exact, m):
    return exact and pointed_at is not None and tuple(pointed_at) == tuple(m)


GR36_NONZERO = ((0, 0, 0, 0), (0, 0, 1, 0))


def check_gr36_alpha(alpha, c):
    """alpha(p124, p356, p124 + p356 + sum c_j g_j) on the Gr(3,6) plabic
    fixture is 1 at c = 0 and at c = e_2 (the bend across wall 2), else 0."""
    return alpha == (1 if tuple(c) in GR36_NONZERO else 0)


def check_pl_image(convex, round_trip, body):
    """Criterion 6: the image is convex and mutating back returns the body."""
    return bool(convex) and round_trip == body


def check_transport(g_vectors, hook_table, rows):
    """Each transported cluster variable is pointed; on Gr(2, n) every
    cluster variable is a Plücker coordinate, so its g-vector is a
    hook-formula g-vector."""
    if any(g is None for g in g_vectors):
        return False
    if rows == 2:
        return all(tuple(g) in hook_table for g in g_vectors)
    return True


def check_bfs(found, hook_table, rows, n, depth):
    """BFS g-vectors against the hook table.  Gr(2, n) is all Plücker;
    Gr(3,6) has two non-Plücker cluster variables, and from depth 4 on the
    search has met all 22 cluster variables."""
    found = set(found)
    extra = found - set(hook_table)
    if rows == 2:
        return not extra
    if (rows, n) != (3, 6) or len(extra) > 2:
        return False
    if depth >= 4:
        return len(found) == 22 and set(hook_table) <= found
    return True

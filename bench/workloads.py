"""The three benchmark workloads: seeded op streams, set-up, and one
verified operation at a time.

Op streams are made of decks.  A deck holds a fixed multiset of op
templates -- the op kinds and the input sizes that set their cost -- and
the seed draws everything else (labels, sides, directions, words, depths
where the cost barely depends on them) and the order.  Runs measure whole
decks, so the cost mix is the same on every seed and the medians and
percentiles stay put, while the inputs still change with the seed.

Gr(r, n) follows acceptance.py: the library call takes k = n - r.

ctrop is imported only when a workload is set up, so that import time
counts in set-up and the op streams can be tested without the library.
Library functions are called through their modules, so the tracer's
rebinding reaches every call made here.

Each op returns (latency in seconds, check).  `check` takes no argument
and runs the op's oracle; the runner calls it after the op, in a phase of
its own, so that verification -- which calls ctrop too -- is neither
timed nor counted as the op's work.
"""

from __future__ import annotations

import random
import time
from itertools import product
from typing import NamedTuple

from oracles import (check_alpha, check_bfs, check_expand, check_gr36_alpha,
                     check_hull, check_kron_theta, check_lattice,
                     check_pl_image, check_transport)


class Op(NamedTuple):
    kind: str
    args: tuple


# Theta labels.  kron_theta draws from the box [-2,2] x [-1,2] without 0;
# second coordinates of -2 would reach labels that are truncated at order 12
# on Kronecker.  expand and alpha draw unordered pairs from [-1,1]^2
# without 0: 36 pairs, few enough that a run deals every pair about twice,
# so the labels a run needs -- and so the theta cache's work -- do not
# depend on the seed.
THETA_BOX = tuple((i, j) for i in range(-2, 3) for j in range(-1, 3)
                  if (i, j) != (0, 0))
PAIR_LABELS = tuple((i, j) for i in range(-1, 2) for j in range(-1, 2)
                    if (i, j) != (0, 0))
THETA_PAIRS = tuple((p, q) for a, p in enumerate(PAIR_LABELS)
                    for q in PAIR_LABELS[a:])
RANK2 = ("a2", "running", "kronecker")
# Structure constants on the finite-type diagrams only: on Kronecker (affine
# type) some pairings next to the limiting ray need broken lines beyond
# order 12, and structure_constant rightly raises Truncated for them.
ALPHA_DIAGRAMS = ("a2", "running")


def mutable_vertices(rows, n):
    """Mutable vertices of the rectangles quiver of Gr(rows, n): the grid
    boxes off the last row and column (vertex 0 is the empty rectangle)."""
    cols = n - rows
    return [1 + (i - 1) * cols + (j - 1)
            for i in range(1, rows) for j in range(1, cols)]


def reduced_word(rng, letters, length):
    word = []
    while len(word) < length:
        k = rng.choice(letters)
        if not word or word[-1] != k:
            word.append(k)
    return tuple(word)


def dealt(rng, items):
    """Endless draws from `items`, one shuffled round after another, so
    every item comes up equally often in any stretch of the stream."""
    while True:
        pool = list(items)
        rng.shuffle(pool)
        yield from pool


def theta_decks(rng):
    pairs = {(kind, dia): dealt(rng, THETA_PAIRS)
             for kind in ("expand", "alpha") for dia in RANK2}
    kron = dealt(rng, THETA_BOX)
    grid = dealt(rng, list(product(range(3), repeat=4)))
    while True:
        ops = [Op("expand", (dia,) + next(pairs[("expand", dia)]))
               for dia in RANK2 for _ in range(3)]
        ops += [Op("alpha", (dia,) + next(pairs[("alpha", dia)]))
                for dia in ALPHA_DIAGRAMS for _ in range(3)]
        ops += [Op("kron_theta", (next(kron),)) for _ in range(3)]
        ops += [Op("gr36_alpha", (next(grid),)) for _ in range(2)]
        yield ops


HULL_GRIDS = ((2, 5), (3, 6), (2, 6), (3, 7))
PL_GRIDS = ((2, 5), (3, 6))
LATTICE_LEVELS = ((2, 5, 3), (2, 6, 2), (3, 6, 2))


def nobody_decks(rng):
    sides = {grid: dealt(rng, ("flow", "gvec")) for grid in HULL_GRIDS}
    directions = {(r, n): dealt(rng, mutable_vertices(r, n))
                  for r, n in PL_GRIDS}
    while True:
        ops = [Op("hull", (r, n, next(sides[(r, n)])))
               for r, n in HULL_GRIDS for _ in range(2)]
        ops += [Op("pl_image", (r, n, next(directions[(r, n)])))
                for r, n in PL_GRIDS]
        ops += [Op("lattice", (r, n, level)) for r, n, top in LATTICE_LEVELS
                for level in range(1, top + 1)]
        yield ops


TRANSPORT_GRIDS = ((2, 5), (2, 6), (3, 6), (3, 7))


def mutation_decks(rng):
    lengths = {grid: dealt(rng, (2, 3, 4, 5)) for grid in TRANSPORT_GRIDS}
    depths = {grid: dealt(rng, (2, 3, 4)) for grid in ((2, 5), (2, 6))}
    while True:
        ops = [Op("transport", (r, n, reduced_word(
                   rng, mutable_vertices(r, n), next(lengths[(r, n)]))))
               for r, n in TRANSPORT_GRIDS for _ in range(2)]
        ops += [Op("bfs", (r, n, next(depths[(r, n)])))
                for r, n in ((2, 5), (2, 6))]
        ops += [Op("bfs", (3, 6, 3)), Op("bfs", (3, 6, 4))]
        yield ops


DECKS = {"theta": theta_decks, "nobody": nobody_decks,
         "mutation": mutation_decks}


def decks(workload, seed):
    """Endless stream of shuffled decks; the same seed gives the same
    stream."""
    rng = random.Random("%s:%d" % (workload, seed))
    for deck in DECKS[workload](rng):
        rng.shuffle(deck)
        yield deck


def _unit(i, dim):
    return tuple(1 if t == i else 0 for t in range(dim))


class Theta:
    """Theta functions and structure constants from broken lines."""

    def __init__(self):
        from ctrop import acceptance, laurent, linalg, scattering, seeds
        self.sc, self.laurent = scattering, laurent
        self.charts = {}
        for name, fixture in zip(RANK2, ("a2.json", "running_example.json",
                                         "kronecker.json")):
            s = acceptance.load_fixture_seed(fixture)
            p = seeds.ensemble_map(s.fixed)
            dia = scattering.complete_rank2(
                scattering.initial_diagram(s.fixed, p, 12))
            order = linalg.TotalOrder.refining(s.pstar_cols_unfrozen())
            self.charts[name] = (s, dia, scattering.LazyThetaTable(dia, 12),
                                 order)
        self.gr36, fx = acceptance.gr36_fixture_diagram()
        self.p124 = tuple(fx["valuations"]["124"])
        self.p356 = tuple(fx["valuations"]["356"])

    def _expansion(self, dia_name, p, q):
        s, _, table, _ = self.charts[dia_name]
        return self.laurent.theta_expand(table[p] * table[q], s, table,
                                         max_rounds=500)

    def expand(self, dia_name, p, q):
        s, _, _, order = self.charts[dia_name]
        t0 = time.perf_counter()
        expansion = self._expansion(dia_name, p, q)
        dt = time.perf_counter() - t0

        def check():
            lead = self.laurent.g_valuation(expansion, s, order=order)
            coef = {m: c for c, m in expansion.terms}.get(lead)
            return check_expand(lead, coef, p, q)
        return dt, check

    def alpha(self, dia_name, p, q):
        _, dia, _, _ = self.charts[dia_name]
        terms = self._expansion(dia_name, p, q).terms
        t0 = time.perf_counter()
        values = [self.sc.structure_constant(dia, p, q, r, 12)
                  for _, r in terms]
        dt = time.perf_counter() - t0
        return dt, lambda: all(check_alpha(v, c)
                               for v, (c, _) in zip(values, terms))

    def kron_theta(self, m):
        s, dia, _, _ = self.charts["kronecker"]
        t0 = time.perf_counter()
        theta, exact = self.sc.theta_function(dia, m)
        dt = time.perf_counter() - t0
        return dt, lambda: check_kron_theta(self.laurent.is_pointed(theta, s),
                                            exact, m)

    def gr36_alpha(self, c):
        r = [a + b for a, b in zip(self.p124, self.p356)]
        for cj, wall in zip(c, self.gr36.walls):
            r = [a + cj * g for a, g in zip(r, wall.g)]
        t0 = time.perf_counter()
        value = self.sc.structure_constant(self.gr36, self.p124, self.p356,
                                           tuple(r), 8)
        dt = time.perf_counter() - t0
        return dt, lambda: check_gr36_alpha(value, c)


class Nobody:
    """Newton-Okounkov bodies, their lattice points and tropical-mutation
    images."""

    def __init__(self):
        from ctrop import grassmannian, polytopes, trop
        self.gr, self.poly, self.trop = grassmannian, polytopes, trop
        self.points = {}
        for r, n in HULL_GRIDS:
            k = n - r
            js = grassmannian.GrData(k, n).plucker_indices()
            self.points[(r, n, "flow")] = [grassmannian.gt_vector(J, k, n)
                                           for J in js]
            self.points[(r, n, "gvec")] = [grassmannian.homogenized_g(J, k, n)
                                           for J in js]
        self.charts = {}
        for r, n in PL_GRIDS:
            _, s0, _ = grassmannian.rectangles_seed(n - r, n, opposite=True)
            self.charts[(r, n)] = (s0, grassmannian.no_body(n - r, n, "gvec"))

    def hull(self, r, n, side):
        t0 = time.perf_counter()
        body = self.gr.no_body(n - r, n, side)
        dt = time.perf_counter() - t0
        points = self.points[(r, n, side)]
        return dt, lambda: check_hull(
            len(body.vertices), all(body.contains(v) for v in points), r, n)

    def pl_image(self, r, n, k):
        s0, body = self.charts[(r, n)]
        t0 = time.perf_counter()
        there = self.trop.PLMap.from_mutations(s0, (k,), "X", "T")
        image, report = self.trop.apply_pl_to_polytope(there, body)
        back = self.trop.PLMap.from_mutations(s0.mutate(k), (k,), "X", "T")
        round_trip, _ = self.trop.apply_pl_to_polytope(back, image)
        dt = time.perf_counter() - t0
        return dt, lambda: check_pl_image(report.convex, round_trip, body)

    def lattice(self, r, n, level):
        t0 = time.perf_counter()
        body = self.gr.no_body(n - r, n, "flow")
        count = len(self.poly.lattice_points(body.scale(level)))
        dt = time.perf_counter() - t0
        return dt, lambda: check_lattice(count, r, n, level)


class Mutation:
    """Cluster variables carried between charts of the rectangles seed."""

    def __init__(self):
        from ctrop import grassmannian, laurent
        self.gr, self.laurent = grassmannian, laurent
        self.charts = {}
        for r, n in TRANSPORT_GRIDS:
            fd, s0, em = grassmannian.rectangles_seed(n - r, n, opposite=True)
            table = frozenset(grassmannian.hook_g_table(n - r, n).values())
            self.charts[(r, n)] = (fd, s0, em, table)

    def transport(self, r, n, word):
        fd, s0, em, table = self.charts[(r, n)]
        mono = self.laurent.LaurentPolynomial.monomial
        t0 = time.perf_counter()
        s = fd.seed(word)
        carried = [self.laurent.transport(mono(_unit(v, fd.n)), s, s0, "A")
                   for v in range(fd.n)]
        dt = time.perf_counter() - t0
        return dt, lambda: check_transport(
            [self.laurent.is_pointed(f, s0, em) for f in carried], table, r)

    def bfs(self, r, n, depth):
        table = self.charts[(r, n)][3]
        t0 = time.perf_counter()
        out = self.gr.cluster_bfs_g_vectors(n - r, n, depth)
        dt = time.perf_counter() - t0
        found = {g for gl in out.values() for _, g in gl}
        return dt, lambda: check_bfs(found, table, r, n, depth)


WORKLOADS = {"theta": Theta, "nobody": Nobody, "mutation": Mutation}


"""Exact coefficient types, and pinned digests of the Laurent kernel's
transport and BFS outputs and of the scattering outputs.

Laurent coefficients are ints when integral and Fractions otherwise; an
int / int division anywhere on their way would bring back a float, which
compares equal to the exact value and so slips past value checks."""

import hashlib
import io
import json
import numbers
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from ctrop import acceptance, grassmannian, laurent, scattering
from ctrop.errors import DomainError, NotLaurent, Truncated
from ctrop.laurent import LaurentPolynomial, PointedDecomposition
from ctrop.linalg import Mat
from ctrop.scattering import ScatteringDiagram, Wall
from ctrop.seeds import FixedData, ensemble_map

# mutation words per Gr(k, n), on the opposite rectangles seed
WORDS = {
    (2, 5): [(3, 1, 3, 1), (1, 3, 1, 3), (1, 3, 1, 3), (3,)],
    (2, 6): [(5,), (1, 3, 5, 3), (5, 3, 5), (1,)],
    (3, 6): [(5, 2), (1, 5, 4, 1), (5, 2, 1, 4), (1,)],
    (3, 7): [(2, 4), (5, 7), (8, 4, 1), (1, 2, 4)],
}

# sha256 of _transport_bfs_corpus() as computed by the Fraction-coefficient
# kernel, before coefficients became ints
CORPUS_SHA256 = \
    "9c27bc6dfa870ef67c097f3c22460c54870efa75a3dd5b1b2aec301a8e4873f4"


def _transport_bfs_corpus():
    """JSON-ready records: every unit monomial of each word's seed carried
    to the initial seed in both flavors (A and X, the latter often
    NotLaurent), then the BFS g-vectors at depth 3, per Grassmannian."""
    for (k, n), words in WORDS.items():
        fd, s0, _ = grassmannian.rectangles_seed(k, n, opposite=True)
        for w in words:
            s = fd.seed(w)
            for flavor in "AX":
                for v in range(fd.n):
                    f = LaurentPolynomial.monomial(
                        tuple(int(i == v) for i in range(fd.n)))
                    try:
                        out = laurent.transport(f, s, s0, flavor).to_json()
                    except NotLaurent as exc:
                        out = "NotLaurent: %s" % exc
                    yield [k, n, list(w), flavor, v, out]
        bfs = grassmannian.cluster_bfs_g_vectors(k, n, 3)
        yield [k, n, sorted([list(w), [[v, list(g)] for v, g in gl]]
                            for w, gl in bfs.items())]


def test_transport_and_bfs_digest_is_pinned():
    h = hashlib.sha256()
    for record in _transport_bfs_corpus():
        h.update(json.dumps(record).encode())
        h.update(b"\n")
    assert h.hexdigest() == CORPUS_SHA256


# sha256 of _scattering_corpus() as computed with Fraction wall series,
# before scattering coefficients became ints when integral
SCATTERING_SHA256 = \
    "58c3d2036cdf2525cac4061492978c33461ebb4df82ffb2cbab663d3c0341bbb"

# (fixed data, order) of the rank-2 diagrams in the scattering corpus:
# A2, B2, G2 and Kronecker
CORPUS_DIAGRAMS = [
    (FixedData(2, {0, 1}, Mat([[0, b], [-b, 0]]), d), order)
    for d, b, order in (((1, 1), 1, 6), ((2, 1), 1, 6), ((1, 3), 1, 6),
                        ((1, 1), 2, 6))]


def _outcome(fn, *args):
    """fn(*args), or the name of the domain error it raises."""
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc).__name__


def _scattering_corpus():
    """JSON-ready records: per rank-2 diagram its completion, the theta
    functions with labels in [-2, 2]^2 and structure constants with r at
    p + q, at 0, on a wall and off the walls; then Gr(3,6) structure
    constants alpha(p124, p356, p124 + p356 + sum c_j g_j)."""
    for fd, order in CORPUS_DIAGRAMS:
        dia = scattering.complete_rank2(
            scattering.initial_diagram(fd, ensemble_map(fd), order))
        yield dia.to_json()
        for m in product(range(-2, 3), repeat=2):
            theta, exact = scattering.theta_function(dia, m)
            yield [list(m), theta.to_json(), exact]
        for p, q in (((1, 0), (0, 1)), ((-1, 0), (1, 0)),
                     ((-1, 1), (1, 0)), ((1, -1), (-1, 2)),
                     ((1, -1), (1, -1))):
            pq = tuple(a + b for a, b in zip(p, q))
            for r in sorted({pq, (0, 0), (1, 0), (0, -1), (2, -1), (-1, 2)}):
                alpha = _outcome(scattering.structure_constant, dia, p, q,
                                 r, order)
                yield [list(p), list(q), list(r), str(alpha)]
    dia, fx = acceptance.gr36_fixture_diagram()
    p, q = fx["valuations"]["124"], fx["valuations"]["356"]
    for c in product(range(2), repeat=4):
        r = [a + b + sum(cj * w.g[i] for cj, w in zip(c, dia.walls))
             for i, (a, b) in enumerate(zip(p, q))]
        alpha = scattering.structure_constant(dia, p, q, r, 8)
        yield [list(c), str(alpha)]


def test_scattering_digest_is_pinned():
    h = hashlib.sha256()
    for record in _scattering_corpus():
        h.update(json.dumps(record, sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == SCATTERING_SHA256


def _numbers(obj):
    """Every number inside obj: polynomial, decomposition and wall-series
    coefficients, and the numeric leaves of containers (bools skipped)."""
    if isinstance(obj, LaurentPolynomial):
        yield from obj.coeffs.values()
    elif isinstance(obj, PointedDecomposition):
        yield from (c for c, _ in obj)
    elif isinstance(obj, ScatteringDiagram):
        for w in obj.walls:
            yield from w.series.values()
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, numbers.Number) and not isinstance(obj, bool):
        yield obj


# the functions whose results carry Laurent or wall coefficients
_RECORDED = (
    (laurent, "transport"), (laurent, "theta_expand"),
    (laurent, "binomial_power"), (LaurentPolynomial, "divide_exact"),
    (grassmannian, "_exchange_step"),
    (grassmannian, "cluster_bfs_g_vectors"),
    (scattering, "wall_cross"), (scattering, "loop_defect"),
    (scattering, "path_ordered_product"), (scattering, "complete_rank2"),
    (scattering, "theta_function"), (scattering, "theta_on_x"),
    (scattering, "structure_constant"), (Wall, "power_terms"),
)


@pytest.fixture
def recorded(monkeypatch):
    """Counter of (function, type, is an integral Fraction) over every
    number those functions return, with each function replaced wherever
    ctrop holds it."""
    seen = Counter()
    holders = [m for name, m in sys.modules.items()
               if name == "ctrop" or name.startswith("ctrop.")]
    for owner, attr in _RECORDED:
        fn = getattr(owner, attr)

        def wrapper(*args, _fn=fn, _attr=attr, **kw):
            out = _fn(*args, **kw)
            seen.update((_attr, type(c),
                         type(c) is Fraction and c.denominator == 1)
                        for c in _numbers(out))
            return out

        for holder in [owner] + holders:
            if vars(holder).get(attr) is fn:
                monkeypatch.setattr(holder, attr, wrapper)
    return seen


def _theta_corpus():
    """Theta functions with labels in [-2, 2]^2 and some structure
    constants on the completed rank-2 diagrams of A2, B2, G2, the running
    example and the Kronecker quiver."""
    for d, b in (((1, 1), 1), ((2, 1), 1), ((1, 3), 1), ((1, 2), 1),
                 ((1, 1), 2)):
        fd = FixedData(2, {0, 1}, Mat([[0, b], [-b, 0]]), d)
        dia = scattering.complete_rank2(
            scattering.initial_diagram(fd, ensemble_map(fd), 6))
        labels = [(x, y) for x in range(-2, 3) for y in range(-2, 3)
                  if (x, y) != (0, 0)]
        for m in labels:
            scattering.theta_function(dia, m)
        for p, q in (((1, 0), (0, 1)), ((-1, 1), (1, 0)),
                     ((1, -1), (-1, 2))):
            r = tuple(a + c for a, c in zip(p, q))
            try:
                scattering.structure_constant(dia, p, q, r, 6)
            except Truncated:
                pass


def test_coefficients_are_int_or_fraction(recorded):
    assert acceptance.run(out=io.StringIO()) == 0
    _theta_corpus()
    for _ in _transport_bfs_corpus():
        pass
    # a rational wall series: the corpus above is integral throughout
    half = Wall((1, 0), (0, 1), {1: Fraction(1, 2)}, (1, 0), 1, "line")
    scattering.wall_cross((1, (3, 2)), half, 1, 4)
    types = Counter()
    for (_, t, _), count in recorded.items():
        types[t] += count
    assert set(types) == {int, Fraction}, types
    # an integral value is an int, never a Fraction with denominator 1
    integral = Counter({f: n for (f, _, whole), n in recorded.items()
                        if whole})
    assert not integral, integral
    # every recorded function was reached
    assert {f for f, _, _ in recorded} == {attr for _, attr in _RECORDED}


def test_rational_coefficients_multiply_into_ints():
    # two rationals whose product is integral store an int, in the
    # arithmetic and in a chart step, where 1/2 meets the binomial
    # coefficient 2 of (1 + z^b)^2
    half = LaurentPolynomial({(0,): Fraction(1, 2)}, 1)
    assert (half * LaurentPolynomial({(0,): 2}, 1)).coeffs == {(0,): 1}
    assert type((half * half.scale(4)).coeffs[(0,)]) is int
    assert type(half.scale(Fraction(2)).coeffs[(0,)]) is int
    fd = FixedData(2, {0, 1}, Mat([[0, 1], [-1, 0]]), (1, 1))
    s0 = fd.initial_seed()
    f = LaurentPolynomial({(2, 0): Fraction(1, 2)}, 2)
    g = laurent.transport(f, s0.mutate(0), s0, "A")
    assert g.coeffs == {(-2, 0): Fraction(1, 2), (-2, 1): 1,
                        (-2, 2): Fraction(1, 2)}
    assert [type(c) for _, c in g.terms()] == [Fraction, int, Fraction]

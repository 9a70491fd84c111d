"""Exact coefficient types, and a pinned digest of the Laurent kernel's
transport and BFS outputs.

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

import pytest

from ctrop import acceptance, grassmannian, laurent, scattering
from ctrop.errors import NotLaurent, Truncated
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
    """Counter of (function, type) over every number those functions
    return, with each function replaced wherever ctrop holds it."""
    seen = Counter()
    holders = [m for name, m in sys.modules.items()
               if name == "ctrop" or name.startswith("ctrop.")]
    for owner, attr in _RECORDED:
        fn = getattr(owner, attr)

        def wrapper(*args, _fn=fn, _attr=attr, **kw):
            out = _fn(*args, **kw)
            seen.update((_attr, type(c)) for c in _numbers(out))
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
    types = Counter()
    for (_, t), count in recorded.items():
        types[t] += count
    assert set(types) == {int, Fraction}, types
    # every recorded function was reached
    assert {f for f, _ in recorded} == {attr for _, attr in _RECORDED}

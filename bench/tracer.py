"""Outside-in tracer: wraps ctrop's public layer functions from the
benchmark's side, records one span per call, and turns the spans into
per-layer metrics.  No ctrop source is changed.

Methods are wrapped on their class.  A module-level function is replaced
in every loaded ctrop module that binds it, because several modules import
names such as convex_hull with `from ... import`.  `linalg.vdot` is left
alone on purpose: a wrapper would cost more than the 2- to 9-term dot
product it times, so its time lands in the caller's self time.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from functools import update_wrapper
from time import perf_counter

TARGETS = {
    "linalg": ("Mat.rref", "Mat.solve", "Mat.inverse", "Mat.kernel",
               "Mat.det", "dominance_compare", "TotalOrder.refining"),
    "seeds": ("Seed.mutate", "FixedData.seed", "build_principal"),
    "laurent": ("LaurentPolynomial.__mul__", "LaurentPolynomial.divide_exact",
                "transport", "is_pointed", "theta_expand"),
    "trop": ("PLMap.from_mutations", "apply_pl_to_polytope"),
    "polytopes": ("convex_hull", "vertices_from_hrep", "lattice_points"),
    "scattering": ("complete_rank2", "is_consistent", "loop_defect",
                   "enumerate_broken_lines", "theta_function",
                   "structure_constant", "LazyThetaTable.get"),
    "grassmannian": ("no_body", "rectangles_seed", "cluster_bfs_g_vectors"),
}

FUNCS = tuple("%s.%s" % (layer, f) for layer, fs in TARGETS.items()
              for f in fs)

# Functions each workload's set-up and ops exercise (the layer map in
# README.md); calls made by the oracles do not count.  A traced run in
# which one of them records no call fails: it means a binding was missed
# and a layer would read empty.
EXERCISED = {
    "theta": (
        "scattering.complete_rank2", "scattering.is_consistent",
        "scattering.loop_defect", "scattering.enumerate_broken_lines",
        "scattering.theta_function", "scattering.structure_constant",
        "scattering.LazyThetaTable.get", "laurent.theta_expand",
        "laurent.LaurentPolynomial.__mul__", "linalg.TotalOrder.refining"),
    "nobody": (
        "polytopes.convex_hull", "polytopes.vertices_from_hrep",
        "polytopes.lattice_points", "trop.PLMap.from_mutations",
        "trop.apply_pl_to_polytope", "grassmannian.no_body",
        "grassmannian.rectangles_seed", "linalg.Mat.rref",
        "linalg.Mat.solve", "linalg.Mat.inverse", "linalg.Mat.kernel",
        "seeds.Seed.mutate"),
    "mutation": (
        "linalg.Mat.rref", "linalg.Mat.solve", "linalg.Mat.inverse",
        "linalg.dominance_compare", "linalg.TotalOrder.refining",
        "seeds.Seed.mutate", "seeds.FixedData.seed", "laurent.transport",
        "laurent.LaurentPolynomial.divide_exact", "laurent.is_pointed",
        "grassmannian.cluster_bfs_g_vectors", "grassmannian.rectangles_seed"),
}

RATIOS = ("scattering.enum_per_theta", "scattering.enum_per_alpha",
          "scattering.theta_cache_hit_ratio", "linalg.rref_per_op",
          "trace_overhead_frac")


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for f in FUNCS:
        out += [(f + ".calls", "count"), (f + ".self_s", "s")]
    for layer in TARGETS:
        out += [(layer + ".calls", "count"), (layer + ".self_s", "s")]
    out += [("oracle.calls", "count"), ("oracle.self_s", "s")]
    out += [(r, "ratio") for r in RATIOS]
    return out


class Tracer:
    """Context manager: installs the wrappers on entry and restores the
    original objects on exit.  Spans are kept in memory, one column per
    field; `op` is the id stamped on spans that start while it is set:
    the op's index, SETUP during set-up, ORACLE while an op is checked."""

    SETUP = -1
    ORACLE = -2

    def __init__(self):
        self.op = self.SETUP
        self.fid = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._current = -1
        self._undo = []

    def _wrap(self, fid, fn):
        def wrapper(*args, **kwargs):
            parent = self._current
            sid = len(self.fid)
            self.fid.append(fid)
            self.parent.append(parent)
            self.op_of.append(self.op)
            self.start.append(0.0)
            self.end.append(0.0)
            self._current = sid
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                self.start[sid] = t0
                self._current = parent
        return update_wrapper(wrapper, fn)

    def __enter__(self):
        for layer in TARGETS:
            importlib.import_module("ctrop." + layer)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ctrop"
                                         or name.startswith("ctrop."))]
        for fid, qual in enumerate(FUNCS):
            layer, attr = qual.split(".", 1)
            mod = sys.modules["ctrop." + layer]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(fid, raw.__func__))
                else:
                    new = self._wrap(fid, raw)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(mod, attr)
            new = self._wrap(fid, orig)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, name, orig))
                        setattr(m, name, new)
        return self

    def __exit__(self, *exc):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo = []
        return False

    def metrics(self, n_ops, untraced_s, traced_s):
        """Per-layer metrics over the spans of set-up and ops.  Spans of
        the oracles are summed apart, into oracle.calls and oracle.self_s,
        so that verification is not counted as the ops' work."""
        n = len(self.fid)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        calls = [0] * len(FUNCS)
        self_s = [0.0] * len(FUNCS)
        oracle_calls, oracle_s = 0, 0.0
        for sid in range(n):
            own = self.end[sid] - self.start[sid] - child[sid]
            if self.op_of[sid] == self.ORACLE:
                oracle_calls += 1
                oracle_s += own
                continue
            f = self.fid[sid]
            calls[f] += 1
            self_s[f] += own
        out = {}
        for f, qual in enumerate(FUNCS):
            out[qual + ".calls"] = calls[f]
            out[qual + ".self_s"] = self_s[f]
        for layer, fs in TARGETS.items():
            quals = ["%s.%s" % (layer, f) for f in fs]
            out[layer + ".calls"] = sum(out[q + ".calls"] for q in quals)
            out[layer + ".self_s"] = sum(out[q + ".self_s"] for q in quals)
        out["oracle.calls"] = oracle_calls
        out["oracle.self_s"] = oracle_s

        idx = {q: i for i, q in enumerate(FUNCS)}
        enum = idx["scattering.enumerate_broken_lines"]
        theta = idx["scattering.theta_function"]
        alpha = idx["scattering.structure_constant"]
        get = idx["scattering.LazyThetaTable.get"]
        rref = idx["linalg.Mat.rref"]
        under = {theta: 0, alpha: 0, get: 0}
        rref_in_ops = 0
        for sid in range(n):
            if self.op_of[sid] == self.ORACLE:
                continue
            f = self.fid[sid]
            p = self.parent[sid]
            parent_f = self.fid[p] if p >= 0 else -1
            if (f == enum and parent_f in (theta, alpha)) or \
                    (f == theta and parent_f == get):
                under[parent_f] += 1
            if f == rref and self.op_of[sid] >= 0:
                rref_in_ops += 1

        def ratio(a, b):
            return a / b if b else 0.0

        out["scattering.enum_per_theta"] = ratio(under[theta], calls[theta])
        out["scattering.enum_per_alpha"] = ratio(under[alpha], calls[alpha])
        out["scattering.theta_cache_hit_ratio"] = (
            1.0 - ratio(under[get], calls[get]) if calls[get] else 0.0)
        out["linalg.rref_per_op"] = ratio(rref_in_ops, n_ops)
        out["trace_overhead_frac"] = traced_s / untraced_s - 1.0
        return out

    def write(self, path):
        """Write the spans as gzipped JSON lines:
        [span id, function, start, end, parent span id, op id]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid in range(len(self.fid)):
                fh.write(json.dumps([sid, FUNCS[self.fid[sid]],
                                     self.start[sid], self.end[sid],
                                     self.parent[sid], self.op_of[sid]]))
                fh.write("\n")

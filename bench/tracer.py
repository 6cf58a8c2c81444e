"""Spans around the public entry points of each ``liftedtrw`` module.

The tracer wraps functions from outside the package: it replaces every
binding of a target function in the loaded ``liftedtrw`` modules (callers
such as ``trw.separate_cycles`` or ``oracle.frank_wolfe`` look the name up in
their own module, so wrapping only the defining module would record nothing)
and the ``Simplex`` methods on the class.  Leaving the ``with`` block restores
every original binding.

A span is ``(span_id, name, start, end, parent_id, count)``, appended when the
call returns; ``count`` is the work the call did (pivots, rows returned,
iterations, ...) or ``None``.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute, count of the call's work or None).
# The count functions receive the call's positional args and its result.
TARGETS = (
    ("model.parse", "model", "parse_model", None),
    ("model.ground", "model", "ground", lambda a, r: len(r.edges)),
    ("symmetry.compute_orbits", "symmetry", "compute_orbits",
     lambda a, r: (a[0].n_features, r.n_vars)),
    ("symmetry.trivial_lifting", "symmetry", "trivial_lifting", None),
    ("spanning.init_rho", "spanning", "init_rho_uniform", None),
    ("spanning.kruskal", "spanning", "lifted_kruskal", None),
    ("polytope.build_outer", "polytope", "build_outer_system", None),
    ("polytope.separate", "polytope", "separate_cycles", lambda a, r: len(r)),
    ("lpsolve.solve", "lpsolve", "Simplex.solve", lambda a, r: (r.iterations, a[0].m)),
    ("lpsolve.add_rows", "lpsolve", "Simplex.add_rows", lambda a, r: a[0].m),
    ("trw.frank_wolfe", "trw", "frank_wolfe", lambda a, r: r.iterations),
    ("trw.line_search", "trw", "golden_section", None),
)

LAYERS = ("model", "symmetry", "spanning", "polytope", "lpsolve", "trw")

# direct children of a frank_wolfe span; its self time excludes them
FW_CHILDREN = ("polytope.build_outer", "polytope.separate", "lpsolve.solve",
               "lpsolve.add_rows", "trw.line_search")


class Tracer:
    """Context manager that records spans while it is active."""

    def __init__(self):
        self.spans = []
        self._stack = [None]
        self._next_id = 0
        self._restore = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.append((sid, name, t0, t1, parent,
                          None if count is None else count(args, result)))
            return result

        return traced

    def __enter__(self):
        import liftedtrw
        from liftedtrw.lpsolve import Simplex

        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "liftedtrw" or key.startswith("liftedtrw."))]
        for name, mod, attr, count in TARGETS:
            if attr.startswith("Simplex."):
                meth = attr.split(".", 1)[1]
                orig = Simplex.__dict__[meth]
                self._restore.append((Simplex, meth, orig))
                setattr(Simplex, meth, self._wrap(name, orig, count))
                continue
            orig = getattr(getattr(liftedtrw, mod), attr)
            wrapped = self._wrap(name, orig, count)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()
        return False


def summarize(spans):
    """Per-layer metrics of a list of spans (times in seconds)."""
    total = {}
    calls = {}
    for _sid, name, t0, t1, _parent, _count in spans:
        total[name] = total.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1

    def counts(name):
        return [c for _s, n, _a, _b, _p, c in spans if n == name]

    fw_ids = {sid for sid, name, *_ in spans if name == "trw.frank_wolfe"}
    fw_children = sum(t1 - t0 for _s, name, t0, t1, parent, _c in spans
                      if parent in fw_ids and name in FW_CHILDREN)
    orbit_sizes = counts("symmetry.compute_orbits")
    solves = counts("lpsolve.solve")
    pivots = sum(p for p, _m in solves)
    rows_seen = [m for _p, m in solves] + counts("lpsolve.add_rows")
    n_sep = calls.get("polytope.separate", 0)
    cuts = sum(counts("polytope.separate"))
    n_lifted_vars = sum(v for _f, v in orbit_sizes)
    return {
        "model.parse_s": total.get("model.parse", 0.0),
        "model.ground_s": total.get("model.ground", 0.0),
        "model.ground_edges": sum(counts("model.ground")),
        "symmetry.compute_orbits_s": total.get("symmetry.compute_orbits", 0.0),
        "symmetry.trivial_lifting_s": total.get("symmetry.trivial_lifting", 0.0),
        "symmetry.compression": (sum(f for f, _v in orbit_sizes) / n_lifted_vars
                                 if n_lifted_vars else 0.0),
        "spanning.init_rho_s": total.get("spanning.init_rho", 0.0),
        "spanning.kruskal_calls": calls.get("spanning.kruskal", 0),
        "spanning.kruskal_s": total.get("spanning.kruskal", 0.0),
        "polytope.build_outer_s": total.get("polytope.build_outer", 0.0),
        "polytope.separate_s": total.get("polytope.separate", 0.0),
        "polytope.separate_calls": n_sep,
        "polytope.cuts_added": cuts,
        "polytope.cut_yield": cuts / n_sep if n_sep else 0.0,
        "lpsolve.solve_s": total.get("lpsolve.solve", 0.0),
        "lpsolve.solves": len(solves),
        "lpsolve.pivots": pivots,
        "lpsolve.pivots_per_solve": pivots / len(solves) if solves else 0.0,
        "lpsolve.add_rows_s": total.get("lpsolve.add_rows", 0.0),
        "lpsolve.rows_max": max(rows_seen, default=0),
        "trw.frank_wolfe_s": total.get("trw.frank_wolfe", 0.0),
        "trw.iterations": sum(counts("trw.frank_wolfe")),
        "trw.line_search_s": total.get("trw.line_search", 0.0),
        "trw.line_search_calls": calls.get("trw.line_search", 0),
        "trw.self_s": total.get("trw.frank_wolfe", 0.0) - fw_children,
    }


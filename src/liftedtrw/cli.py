"""Command-line front end: inference runs, sweeps, orbit and MST inspection.

Subcommands::

    liftedtrw infer    --model M --n N [--W w] [--outer O] [--rho MODE] ...
    liftedtrw sweep    --model M --n N --W lo:hi:step [--outer O1,O2|all] ...
    liftedtrw orbits   --model M --n N [--W w]
    liftedtrw mst      --model M --n N [--W w] [--weights w1,w2,...]
    liftedtrw validate [--n N]

``--model`` accepts a file path or a bundled model name
(complete_graph, friends_smokers, clique_cycle).  ``--rho`` is ``uniform``
(most-uniform edge appearances, the default), ``optimize`` (conditional
gradient on the bound), or ``kruskal:w1,w2,...`` (one weight per edge orbit).
CSV output starts with a ``schema=1`` line; rows are ordered by (W, outer)
and are deterministic apart from the timing column.
"""

from __future__ import annotations

import argparse
import csv
import io
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import spanning, trw, zoo
from .model import ModelError, ground, parse_model
from .polytope import OUTER_CHOICES
from .symmetry import compute_orbits

CSV_SCHEMA = "schema=1"


def _load_text(spec):
    if spec in zoo.MODEL_TEXTS:
        return zoo.MODEL_TEXTS[spec]
    if not os.path.exists(spec):
        raise FileNotFoundError(f"model file not found: {spec}")
    with open(spec, "r", encoding="utf-8") as fh:
        return fh.read()


def _check_args(args):
    """Reject bad settings before any work, so also for an empty W range."""
    if getattr(args, "n", 1) < 1:
        raise ModelError(f"domain size must be >= 1, got {args.n}")
    if getattr(args, "tol", 1.0) <= 0:
        raise ModelError("tolerance must be positive")
    if getattr(args, "max_iters", 1) < 1:
        raise ModelError("--max-iters must be at least 1")
    if getattr(args, "jobs", 1) < 1:
        raise ModelError("--jobs must be at least 1")


def _build(args, w_value):
    if args.model in zoo.HAND_BUILT:
        g = zoo.build_hand_built(args.model,
                                 scale=1.0 if w_value is None else w_value)
        if args.n != len(g.constants):
            raise ModelError(f"hand-built model {args.model} is fixed at "
                             f"--n {len(g.constants)}")
        return g, compute_orbits(g)
    tm = parse_model(_load_text(args.model))
    if tm.has_symbolic_weight:
        if w_value is None:
            raise ModelError("model uses symbolic weight W; pass --W")
        tm = tm.bind_weight(w_value)
    g = ground(tm, args.n)
    lg = compute_orbits(g)
    return g, lg


def _edge_orbit_weights(lg, text):
    """Parse ``w1,w2,...``: exactly one weight per edge orbit."""
    try:
        weights = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ModelError(f"weights must be numbers, got {text!r}") from None
    if weights.size != len(lg.edge_orbits):
        raise ModelError(f"need {len(lg.edge_orbits)} weights (one per edge orbit), "
                         f"got {weights.size}")
    return weights


def _resolve_rho(lg, mode, outer, tol, max_iters):
    if mode == "uniform":
        return spanning.init_rho_uniform(lg)
    if mode == "optimize":
        rho0 = spanning.init_rho_uniform(lg)
        rho, _ = spanning.optimize_rho(lg, outer, rho0, outer_iters=8,
                                       tol=tol, max_iters=max_iters)
        return rho
    if mode.startswith("kruskal:"):
        return spanning.lifted_kruskal(
            lg, _edge_orbit_weights(lg, mode.split(":", 1)[1]))
    raise ModelError(f"unknown rho mode {mode!r}")


def _marginal_columns(lg):
    cols = []
    for orb in lg.node_orbits:
        if lg.model.nodes[orb.rep].kind == "atom":
            cols.append((orb.id, f"marginal:{lg.orbit_name(orb.id)}"))
    return cols


def _run_one(task):
    """One (W, outer) inference; used directly and by sweep workers."""
    args, w_value, outer = task
    t0 = time.perf_counter()
    _, lg = _build(args, w_value)
    rho = _resolve_rho(lg, args.rho, outer, args.tol, args.max_iters)
    t1 = time.perf_counter()
    res = trw.frank_wolfe(lg, outer=outer, rho=rho, tol=args.tol,
                          max_iters=args.max_iters)
    millis = (time.perf_counter() - t1) * 1000.0
    marg = {name: res.node_marginals[oid][1]
            for oid, name in _marginal_columns(lg)}
    gap = res.gap_trace[-1] if res.gap_trace else 0.0
    return {
        "W": w_value, "outer": outer, "n": args.n, "bound": res.bound,
        "gap": gap, "iters": res.iterations, "millis": millis,
        "setup_millis": (t1 - t0) * 1000.0, "termination": res.termination,
        "marginals": marg,
    }


def _write_csv(rows, out, columns):
    buf = io.StringIO()
    buf.write(CSV_SCHEMA + "\n")
    writer = csv.writer(buf)
    header = ["W", "outer", "n", "bound", "gap", "iters", "millis"] + columns
    writer.writerow(header)
    for r in rows:
        writer.writerow([
            "" if r["W"] is None else f"{r['W']:.6g}", r["outer"], r["n"],
            f"{r['bound']:.12g}", f"{r['gap']:.6g}", r["iters"],
            f"{r['millis']:.1f}",
        ] + [f"{r['marginals'][c]:.9g}" for c in columns])
    text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def cmd_infer(args):
    w_value = args.W
    row = _run_one((args, w_value, args.outer))
    print(f"model={args.model} n={args.n} W={w_value} outer={args.outer}")
    print(f"bound      {row['bound']:.10g}")
    print(f"final gap  {row['gap']:.3g}")
    print(f"iterations {row['iters']} (termination: {row['termination']})")
    print(f"setup time {row['setup_millis']:.1f} ms")
    print(f"wall time  {row['millis']:.1f} ms")
    for name, val in row["marginals"].items():
        print(f"{name:24s} {val:.6f}")
    if args.out:
        _write_csv([row], args.out, [c for c in row["marginals"]])
        print(f"wrote {args.out}")
    return 0


def _parse_range(spec):
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise ModelError(f"W must be lo:hi:step or a single value, got {spec!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ModelError(f"W must be numbers, got {spec!r}") from None
    if len(values) == 1:
        return values
    lo, hi, step = values
    if step <= 0:
        raise ModelError("W range step must be positive")
    if lo > hi:
        raise ModelError(f"W range is empty: lo {lo:g} > hi {hi:g}")
    count = int(round((hi - lo) / step))
    return [lo + i * step for i in range(count + 1) if lo + i * step <= hi + 1e-12]


def cmd_sweep(args):
    outers = OUTER_CHOICES if args.outer == "all" else tuple(args.outer.split(","))
    for o in outers:
        if o not in OUTER_CHOICES:
            raise ModelError(f"unknown outer bound {o!r}")
    w_values = _parse_range(args.W) if args.W else [None]
    tasks = [(args, w, o) for w in w_values for o in outers]
    if args.jobs > 1 and len(tasks) > 1:
        # spawn, not fork: forking once OpenBLAS has started its threads is unsafe
        with ProcessPoolExecutor(max_workers=args.jobs,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            rows = list(pool.map(_run_one, tasks))
    else:
        rows = [_run_one(t) for t in tasks]
    rows.sort(key=lambda r: (r["W"] if r["W"] is not None else 0.0,
                             OUTER_CHOICES.index(r["outer"])))
    columns = sorted({c for r in rows for c in r["marginals"]}) if rows else []
    text = _write_csv(rows, args.out, columns)
    if not args.out:
        sys.stdout.write(text)
    else:
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_orbits(args):
    g, lg = _build(args, args.W)
    print(f"{len(lg.node_orbits)} node orbits, {len(lg.edge_orbits)} edge orbits, "
          f"{lg.n_vars} lifted variables")
    print(f"{'id':>4} {'kind':6} {'size':>6} {'values':>7}  pattern / d-row")
    for orb in lg.node_orbits:
        print(f"{orb.id:>4} node   {orb.size:>6} {orb.n_values:>7}  "
              f"{lg.orbit_name(orb.id)}")
    for eo in lg.edge_orbits:
        u, v = eo.rep
        d_row = " ".join(str(eo.d(o.id)) for o in lg.node_orbits)
        flip = "flip" if eo.flip else "    "
        print(f"{eo.id:>4} edge   {eo.size:>6} {'':>7}  "
              f"{{{g.nodes[u].name}, {g.nodes[v].name}}} {flip} d=[{d_row}]")
    return 0


def cmd_mst(args):
    g, lg = _build(args, args.W)
    if args.weights:
        weights = _edge_orbit_weights(lg, args.weights)
    else:
        weights = np.ones(len(lg.edge_orbits))
    rho = spanning.lifted_kruskal(lg, weights)
    value = spanning.lifted_mst_value(lg, weights, rho)
    print(f"{'orbit':>6} {'size':>6} {'weight':>10} {'rho':>10}")
    for eo in lg.edge_orbits:
        print(f"{eo.id:>6} {eo.size:>6} {weights[eo.id]:>10.4g} {rho[eo.id]:>10.6g}")
    print(f"lifted MST value {value:.10g}")
    print(f"tree edge total  {spanning.tree_edge_total(lg, rho):.10g}")
    return 0


def cmd_validate(args):
    from .validate import run_checks
    results = run_checks(verbose=True)
    bad = [name for name, ok, _ in results if not ok]
    print(f"{len(results) - len(bad)}/{len(results)} checks passed")
    return 1 if bad else 0


def make_parser():
    p = argparse.ArgumentParser(prog="liftedtrw", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, w_type=float, w_help="value bound to the symbolic weight W"):
        sp.add_argument("--model", required=True,
                        help="model file path or bundled name")
        sp.add_argument("--n", type=int, required=True, help="domain size")
        sp.add_argument("--W", type=w_type, default=None, help=w_help)

    sp = sub.add_parser("infer", help="single inference run")
    common(sp)
    sp.add_argument("--outer", default="local", choices=OUTER_CHOICES)
    sp.add_argument("--rho", default="uniform",
                    help="uniform | optimize | kruskal:w1,w2,...")
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.add_argument("--max-iters", dest="max_iters", type=int, default=1000)
    sp.add_argument("--out", default=None, help="CSV output path")
    sp.set_defaults(func=cmd_infer)

    sp = sub.add_parser("sweep", help="run a W sweep, emit CSV")
    common(sp, w_type=str,
           w_help="W range as lo:hi:step or a single value; "
                  "use --W=-2:2:0.25 for negative bounds")
    sp.add_argument("--outer", default="all",
                    help="comma-separated outer bounds or 'all'")
    sp.add_argument("--rho", default="uniform")
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.add_argument("--max-iters", dest="max_iters", type=int, default=1000)
    sp.add_argument("--out", default=None)
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("orbits", help="print the orbit table")
    common(sp)
    sp.set_defaults(func=cmd_orbits)

    sp = sub.add_parser("mst", help="lifted maximum spanning tree")
    common(sp)
    sp.add_argument("--weights", default=None,
                    help="comma-separated weight per edge orbit (default: ones)")
    sp.set_defaults(func=cmd_mst)

    sp = sub.add_parser("validate", help="run the oracle cross-check suite")
    sp.set_defaults(func=cmd_validate)
    return p


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return args.func(args)
    except (ModelError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

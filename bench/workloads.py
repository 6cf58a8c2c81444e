"""Workload definitions, one timed pass over a workload, and its checks.

A workload is a list of model instances (bundled model, domain size, bound
weight W); each instance is set up once (parse, ground, orbits, rho) and then
solved at one or more outer bounds.  Set-up and solve times are taken with
the benchmark's own clocks around the public calls, so they need no tracing.
"""

from __future__ import annotations

import gc
import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

import liftedtrw as lt

# The seed moves every anchor W by at most this much.  The final gap of an
# unconverged run is chaotic in W: moving friends_smokers n=10 from W=-0.5
# by 1e-4 changes its final gap by 40% (by 1e-6 still 20%; at W=1, where
# lifted_sweep runs it, 1e-6 leaves it unchanged), and clique_cycle n=20
# flips between converging in 6 iterations and hitting the limit within 0.01.  A wider draw would make
# gap_max and the solve times measure the draw instead of the code.
W_JITTER = 1e-6

# Slack for the floating-point noise of the bound >= log Z comparison.
LOGZ_RTOL = 1e-9
# Slack of the ground-vs-lifted agreement check.
AGREE_TOL = 1e-6

# (tighter, looser) outer bounds: a converged tighter bound may not exceed a
# converged looser one by more than the tolerance.
TIGHTER = (("local+exch", "local"), ("cycle", "local"), ("cycle+exch", "cycle"),
           ("cycle+exch", "local+exch"), ("cycle+exch", "local"))


@dataclass(frozen=True)
class Solve:
    outer: str
    ground: bool = False   # solve the ground model through oracle.ground_trw
    tol: float = 1e-5
    max_iters: int = 200


@dataclass(frozen=True)
class Instance:
    model: str
    n: int
    w: float
    solves: tuple


SWEEP = (Solve("local"), Solve("local+exch"))
GROUND = (Solve("local", ground=True, tol=1e-4, max_iters=15),
          Solve("local", tol=1e-4, max_iters=15),
          Solve("local+exch", tol=1e-4, max_iters=15))

# workload -> (reason, [(model, n, anchor W values, solves)]).  Every set-up
# stage and every solve is short (at most about 0.5 s) and a pass at most
# about 2 s, so a run makes many passes and a fast or slow second on a shared
# machine weighs little in the median over passes.
WORKLOADS = {
    "lifted_sweep": (
        "sweep use case: the Frank-Wolfe loop (line search, small warm LPs, "
        "polish) does the work; no separation, little set-up",
        [("complete_graph", 60, (-1.0, -0.5, 0.5), SWEEP),
         ("clique_cycle", 16, (-0.5,), SWEEP),
         ("friends_smokers", 10, (1.0,), SWEEP)]),
    "cycle_cuts": (
        "cycle outer bounds: shortest-path cycle separation dominates the "
        "solve; it does nothing in the other workloads",
        [("clique_cycle", 12, (1.0,), (Solve("cycle"),)),
         ("clique_cycle", 10, (0.5,), (Solve("cycle+exch"),)),
         ("complete_graph", 30, (0.5,), (Solve("cycle+exch"),))]),
    "ground_reference": (
        "ground TRW via the identity lifting without polish: the dense "
        "simplex dominates; the lifted solves of the same models check it",
        [("complete_graph", 12, (-1.0, 0.5), GROUND)]),
    "large_domain": (
        "large domains: grounding, orbits and rho dominate; keeps the "
        "complete_graph n=150 local and friends_smokers n=40 gaps visible",
        [("complete_graph", 150, (-1.0,), SWEEP),
         ("clique_cycle", 40, (0.5,), (Solve("local+exch"),)),
         ("friends_smokers", 40, (-0.5,), (Solve("local+exch"),))]),
}

WARMUP = [Instance("complete_graph", 3, -1.0, SWEEP)]


def instances(workload, seed):
    """The workload's instances, with W drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    out = []
    for model, n, anchors, solves in WORKLOADS[workload][1]:
        for w in anchors:
            out.append(Instance(model, n, w + float(rng.uniform(-W_JITTER, W_JITTER)),
                                solves))
    return out


@dataclass
class Cell:
    """One solve: its instance, settings, result and timing window."""

    inst: Instance
    solve: Solve
    stages: dict           # set-up stage -> seconds, shared by the instance
    bound: float
    objective: float
    gap: float
    iterations: int
    pivots: int
    cuts: int
    converged: bool
    solve_s: float
    window: tuple          # (start, end) of the frank_wolfe call

    @property
    def key(self):
        return (self.inst, self.solve)


@dataclass
class Pass:
    setup_s: float = 0.0
    solve_s: float = 0.0
    calibration_s: float = 0.0
    cells: list = field(default_factory=list)


# A fixed calibration loop of about 20 ms: tuples, a dict, a keyed sort and a
# heap, like the package's own Python code, then in-place numpy updates of a
# 200 x 400 array (no allocation).  It calls nothing in liftedtrw, so its time
# tracks the machine's speed, not the program's.
_CAL_A = np.zeros((200, 400))
_CAL_U = np.ones(200)
_CAL_V = np.full(400, 1e-9)
_CAL_OUTER = np.empty((200, 400))


def time_calibration():
    """Time one run of the calibration loop."""
    t0 = time.perf_counter()
    counts = {}
    for i in range(15_000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    heap = []
    for key, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        heapq.heappush(heap, (c, key))
    for _ in range(20):
        np.outer(_CAL_U, _CAL_V, out=_CAL_OUTER)
        np.subtract(_CAL_A, _CAL_OUTER, out=_CAL_A)
    return time.perf_counter() - t0


def run_instance(inst):
    """Set up one instance and run its solves; returns ``(stages, cells)``."""
    clock = time.perf_counter
    t0 = clock()
    tm = lt.parse_model(lt.zoo.model_text(inst.model)).bind_weight(inst.w)
    t1 = clock()
    g = lt.ground(tm, inst.n)
    t2 = clock()
    lg = lt.compute_orbits(g)
    t3 = clock()
    rho = lt.init_rho_uniform(lg)
    t4 = clock()
    stages = {"parse": t1 - t0, "ground": t2 - t1, "orbits": t3 - t2, "rho": t4 - t3}
    cells = []
    for s in inst.solves:
        tb = clock()
        if s.ground:
            # without the Newton polish, as on ground models above its size cap
            res = lt.ground_trw(g, rho[lg.edge_orbit_of[:len(g.edges)]], outer=s.outer,
                                tol=s.tol, max_iters=s.max_iters, polish=False)
        else:
            res = lt.frank_wolfe(lg, outer=s.outer, rho=rho, tol=s.tol,
                                 max_iters=s.max_iters)
        te = clock()
        cells.append(Cell(inst, s, stages, res.bound, res.objective,
                          res.gap_trace[-1] if res.gap_trace else 0.0,
                          res.iterations, res.lp_pivots, res.n_cuts,
                          res.converged, te - tb, (tb, te)))
    return stages, cells


def run_pass(insts):
    """Set up and solve every instance once, each after one calibration run."""
    out = Pass()
    for inst in insts:
        gc.collect()   # outside the timed region, so no instance pays for another's garbage
        out.calibration_s += time_calibration()
        stages, cells = run_instance(inst)
        out.setup_s += sum(stages.values())
        out.solve_s += sum(c.solve_s for c in cells)
        out.cells.extend(cells)
    return out


def check_pass(cells, log_z=None):
    """Correctness checks of one pass: a list of ``(ok, description)``.

    ``log_z`` caches the exact log Z per ``(n, W)`` across calls.
    """
    out = []
    log_z = {} if log_z is None else log_z
    for c in cells:
        name = f"{c.inst.model} n={c.inst.n} W={c.inst.w:.7g} {c.solve.outer}" + (
            " ground" if c.solve.ground else "")
        out.append((math.isfinite(c.bound), f"{name}: bound {c.bound} is finite"))
        if c.inst.model == "complete_graph":
            key = (c.inst.n, c.inst.w)
            if key not in log_z:
                log_z[key] = lt.counting_elimination_complete(c.inst.n, c.inst.w, -0.1)[0]
            lz = log_z[key]
            out.append((c.bound >= lz - LOGZ_RTOL * max(1.0, abs(lz)),
                        f"{name}: bound {c.bound} >= log Z {lz}"))
    by_inst = {}
    for c in cells:
        by_inst.setdefault(c.inst, []).append(c)
    for inst, group in by_inst.items():
        name = f"{inst.model} n={inst.n} W={inst.w:.7g}"
        for gc in (c for c in group if c.solve.ground):
            for lc in (c for c in group if not c.solve.ground
                       and c.solve.outer == gc.solve.outer):
                out.append((gc.objective <= lc.bound + AGREE_TOL,
                            f"{name}: ground objective {gc.objective} <= lifted "
                            f"bound {lc.bound} + {AGREE_TOL}"))
                out.append((lc.objective <= gc.bound + AGREE_TOL,
                            f"{name}: lifted objective {lc.objective} <= ground "
                            f"bound {gc.bound} + {AGREE_TOL}"))
        done = {c.solve.outer: c for c in group if c.converged and not c.solve.ground}
        for tight, loose in TIGHTER:
            if tight in done and loose in done:
                tol = max(done[tight].solve.tol, done[loose].solve.tol)
                out.append((done[tight].bound <= done[loose].bound + tol,
                            f"{name}: {tight} bound {done[tight].bound} <= "
                            f"{loose} bound {done[loose].bound} + {tol}"))
    return out


def check_repeat(first, later):
    """Every pass must reproduce the first pass's bounds, iterations and pivots."""
    ref = {c.key: (c.bound, c.iterations, c.pivots) for c in first.cells}
    return [(ref.get(c.key) == (c.bound, c.iterations, c.pivots),
             f"{c.inst.model} n={c.inst.n} {c.solve.outer}: repeat gives "
             f"{(c.bound, c.iterations, c.pivots)}, first pass {ref.get(c.key)}")
            for c in later.cells]

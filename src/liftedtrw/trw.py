"""Lifted tree-reweighted objective and its conditional-gradient optimizer.

The optimization variable is one pseudomarginal per assignment orbit (plus
cluster count variables when exchangeable constraints are active).  The
concave objective is the linear term plus an entropy combination whose
node-orbit coefficient is ``sum_e |e| d(v,e) rho_e - |v|`` and whose
edge-orbit coefficient is ``-|e| rho_e``; maximizing it over an outer bound of
the lifted marginal polytope yields a convex upper bound on the log-partition
function.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .lpsolve import Simplex
from .polytope import build_outer_system, separate_cycles

LOG_CLAMP = 1e-12
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

LS_TOL = 1e-8            # golden-section bracket width of the line search
CUT_ROUNDS = 50          # separate-and-resolve rounds per direction LP
POLISH_SIZE_CAP = 1500   # largest KKT system the polish may factor
EQ_TOL = 1e-7            # largest equality-row residual a certified tau may have


def entropy_coefficients(lg, rho):
    """Per-orbit coefficients of the entropy terms in the bound.

    Returns ``(node_coefs, edge_coefs)``: the multiplier of each node orbit's
    and edge orbit's entropy inside the (negated) entropy bound, so the bound
    equals ``sum_v node_coefs[v] H(tau_v) + sum_e edge_coefs[e] H(tau_e)``.
    """
    rho = np.asarray(rho, dtype=float)
    node_coefs = np.array([-float(o.size) for o in lg.node_orbits])
    edge_coefs = np.zeros(len(lg.edge_orbits))
    for eo in lg.edge_orbits:
        edge_coefs[eo.id] = -eo.size * rho[eo.id]
        for v in (eo.u_orbit, eo.v_orbit) if eo.u_orbit != eo.v_orbit else (eo.u_orbit,):
            node_coefs[v] += eo.size * eo.d(v) * rho[eo.id]
    return node_coefs, edge_coefs


def _xlogx(x):
    x = np.asarray(x, dtype=float)
    return x * np.log(np.maximum(x, 1e-300))


class TrwObjective:
    """Vectorized value/gradient of the lifted TRW objective."""

    def __init__(self, lg, rho, n_vars=None):
        n_vars = lg.n_vars if n_vars is None else n_vars
        self.lg = lg
        self.n_vars = n_vars
        node_coefs, edge_coefs = entropy_coefficients(lg, rho)
        k = lg.n_node_vars
        w = np.zeros(n_vars)
        w[:k] = node_coefs[lg.var_orbit[:k]] * lg.var_mult[:k]
        w[k:lg.n_vars] = edge_coefs[lg.var_orbit[k:]] * lg.var_mult[k:]
        self.w = w
        self.theta = np.zeros(n_vars)
        self.theta[:lg.n_vars] = lg.lifted_theta
        self._went = np.where(w != 0.0)[0]

    def entropy_bound(self, x):
        return -float(self.w @ _xlogx(np.asarray(x)[:self.n_vars]))

    def value(self, x):
        x = np.asarray(x)[:self.n_vars]
        return float(self.theta @ x + self.w @ _xlogx(x))

    def grad(self, x):
        x = np.maximum(np.asarray(x)[:self.n_vars], LOG_CLAMP)
        return self.theta + self.w * (1.0 + np.log(x))

    def line_function(self, x, delta):
        """Cheap evaluator of the objective along ``x + l * delta``."""
        lin0 = float(self.theta @ x)
        lin1 = float(self.theta @ delta)
        idx = self._went
        xe = x[idx]
        de = delta[idx]
        we = self.w[idx]

        def phi(l):
            u = xe + l * de
            return lin0 + l * lin1 + float(we @ (u * np.log(np.maximum(u, 1e-300))))

        return phi


def lifted_entropy_bound(tau, rho, lg):
    """The entropy bound term evaluated at ``tau`` (natural log, 0 ln 0 = 0)."""
    return TrwObjective(lg, rho).entropy_bound(tau)


def lifted_linear_term(tau, lg):
    """Inner product of the lifted parameters with ``tau``."""
    return float(np.asarray(lg.lifted_theta) @ np.asarray(tau)[:lg.n_vars])


def gradient(tau, rho, lg):
    """Gradient of the full objective (linear term minus entropy bound)."""
    return TrwObjective(lg, rho).grad(tau)


def golden_section(f, lo=0.0, hi=1.0, tol=1e-8):
    """Golden-section search for the argmax of a unimodal ``f`` on [lo, hi].

    Returns ``(x, f(x))`` for the best point evaluated; uses about
    ``log(tol / (hi - lo)) / log(0.618)`` evaluations.
    """
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    best = (c, fc) if fc >= fd else (d, fd)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            if fc > best[1]:
                best = (c, fc)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
            if fd > best[1]:
                best = (d, fd)
    return best


def _new_stats():
    """Zeroed per-phase timings (seconds) and counters of a solve."""
    return {"lp_s": 0.0, "separate_s": 0.0, "line_search_s": 0.0, "polish_s": 0.0,
            "eq_residual": 0.0, "lp_solves": 0, "lp_refactorizations": 0,
            "lp_phase1_runs": 0, "lp_phase1_rounds": 0, "lp_degenerate_pivots": 0,
            "polish_tries": 0, "polish_adopted": 0, "polish_faces": 0,
            "polish_face_failures": 0, "cycle_searches": 0, "cycle_pruned": 0}


@dataclass
class TrwResult:
    """A solve's certified bound and how it ended.

    ``termination`` is ``"gap"`` when the gap reached the tolerance,
    ``"stalled"`` when the last iteration moved ``tau`` neither by the polish
    nor by the line search, and ``"iteration_limit"`` otherwise.

    ``stats`` holds the time spent in direction LPs and row additions
    (``lp_s``), cycle separation (``separate_s``), line searches
    (``line_search_s``) and polish candidates (``polish_s``), and counts LP
    solves, basis refactorizations, polish attempts and adopted polishes.
    ``cycle_searches`` counts the ground shortest-path searches of cycle
    separation and ``cycle_pruned`` those its quotient pre-check skipped.
    A polish attempt solves each distinct face once, whatever the number of
    active-set tolerances and cut rounds that reach it: ``polish_faces``
    counts the face solves run and ``polish_face_failures`` those that gave
    no point (a non-finite Newton step); a singular KKT matrix, from
    dependent active rows, is solved by least squares and is no failure.
    ``eq_residual`` is the largest equality-row residual ``|A tau - b|`` of
    the returned ``tau``; a ``"gap"`` termination above ``EQ_TOL`` raises,
    since the bound's concavity argument needs ``tau`` on those rows.

    ``lp_phase1_runs`` counts the LP solves that ran phase 1 (no held or
    crash basis, or one the new cut rows made infeasible) and
    ``lp_phase1_rounds`` the pricing rounds of those runs.
    ``lp_degenerate_pivots`` counts the degenerate LP pivots, those of
    ratio below 1e-12.

    ``iteration_trace`` holds one dict per iteration: its number
    (``iteration``, from 1), its ``gap`` and its ``objective`` before the
    step, the line-search ``step`` taken (None when the iteration took
    none), the LP ``pivots`` and cycle ``cuts`` added in it, and whether its
    polish was adopted (``polish_adopted``).  ``gap_trace`` and
    ``objective_trace`` read the gaps and objectives off it.
    """

    bound: float
    objective: float
    tau: np.ndarray
    iteration_trace: list[dict]
    iterations: int
    termination: str
    node_marginals: dict
    outer: str
    rho: np.ndarray
    millis: float = 0.0
    lp_pivots: int = 0
    n_cuts: int = 0
    stats: dict = field(default_factory=_new_stats)

    @property
    def gap_trace(self):
        """The gap of each iteration."""
        return [e["gap"] for e in self.iteration_trace]

    @property
    def objective_trace(self):
        """The objective of each iteration, before its step."""
        return [e["objective"] for e in self.iteration_trace]

    @property
    def converged(self):
        """Whether the gap reached the tolerance."""
        return self.termination == "gap"


_UNSOLVED = object()  # a face not yet solved, unlike a failed solve (None)


def _face_newton(obj, free, E, b_e, tau):
    """Newton iteration for the stationary point on the face ``E x = b_e``.

    The KKT matrix has no multiplier regularization, so steps land exactly on
    the face; its small negative primal diagonal moves coordinates without
    entropy weight to their bound.  Dependent active rows make it singular,
    and then the step is a least-squares solution, which lands on the face
    when the rows are consistent.
    """
    nf = free.size
    m = E.shape[0]
    x = np.maximum(tau[free], 1e-12)
    kkt = np.zeros((nf + m, nf + m))
    kkt[:nf, nf:] = E.T
    kkt[nf:, :nf] = E
    rhs = np.zeros(nf + m)
    diag = np.arange(nf)
    for _ in range(25):
        xs = np.maximum(x, 1e-18)
        grad = obj.theta[free] + obj.w[free] * (1.0 + np.log(xs))
        kkt[diag, diag] = obj.w[free] / xs - 1e-10
        rhs[:nf] = -grad
        rhs[nf:] = b_e - E @ x
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs)[0]
        dx = sol[:nf]
        if not np.isfinite(dx).all():
            return None
        neg = dx < 0
        lam = 1.0
        if neg.any():
            ratio = x[neg] / -dx[neg]
            lam = min(1.0, 0.9995 * float(ratio.min()))
        if lam <= 0:
            break
        x = x + lam * dx
        if float(np.abs(dx).max()) * lam <= 1e-13 * (1.0 + float(np.abs(x).max())):
            break
    return x


def _row_excess(lp, tau):
    """How far ``tau`` is past the bound of each row of ``lp`` (at most 0
    when feasible), ``inf`` on equality rows; a row is active within
    ``active_tol`` when its excess is at least ``-active_tol``."""
    sign = lp.slack_sign
    return np.where(sign == 0.0, np.inf, sign * (lp.A @ tau - lp.b))


def _newton_polish(obj, lp, tau, active_tol, faces=None):
    """Refine ``tau`` by Newton steps on its active face.

    Runs an active-set loop: solve the equality-constrained stationarity
    system on the current face, then add any inequality rows the candidate
    violates and retry.  Returns a feasible candidate or None; the caller
    must still gate on objective improvement and re-certify the LP gap.

    The rows are those of the direction LP ``lp``: its equality rows have
    ``slack_sign == 0``, and an inequality's violation is
    ``slack_sign * (A x - b)``, since the simplex negates rows of negative
    right-hand side.  Columns the LP pins to zero (``lp.fixed_zero``) stay
    at zero.  Columns at most 1e-10 without entropy weight (the cluster
    counts) start pinned too; when a face's feasible point does not improve
    the objective over ``tau``, they are freed and that face is solved again
    from that point, as an active-set method releases a bound.

    ``faces`` maps the ordered active row indices, the pinned columns and the
    start to the face solve there (None when it failed); these inputs fix the
    face system bit for bit, row order included, and rows are only ever
    appended to ``lp``, so one dict may serve every tolerance and cut round.
    """
    n = obj.n_vars
    start = tau = np.asarray(tau, dtype=float)
    pinned = lp.fixed_zero | ((tau <= 1e-10) & (obj.w == 0.0))
    free = np.where(~pinned)[0]
    if free.size == 0:
        return None

    faces = {} if faces is None else faces
    A, b, sign = lp.A, lp.b, lp.slack_sign
    is_active = _row_excess(lp, tau) >= -active_tol
    active = np.flatnonzero(is_active)
    inactive = np.flatnonzero(~is_active)
    for _ in range(6):
        key = (active.tobytes(), pinned.tobytes(), start.tobytes())
        x = faces.get(key, _UNSOLVED)
        if x is _UNSOLVED:
            # np.ix_ blocks are row-major; a column-major block (A[active][:, free])
            # sums E @ x in another order, which changes the last bits
            b_e = b[active] - A[np.ix_(active, pinned)] @ start[pinned]
            x = faces[key] = _face_newton(obj, free, A[np.ix_(active, free)], b_e, start)
        if x is None:
            return None
        cand = np.zeros(n)
        cand[free] = np.maximum(x, 0.0)
        violated = sign[inactive] * (A[inactive] @ cand - b[inactive]) > 1e-9
        if not violated.any():
            resid = A[active] @ cand - b[active]
            s = sign[active]
            if (np.where(s == 0.0, np.abs(resid), s * resid) > 1e-8).any():
                return None
            if (pinned & ~lp.fixed_zero).any() and obj.value(cand) <= obj.value(tau):
                pinned, start = lp.fixed_zero, cand
                free = np.where(~pinned)[0]
                continue
            return cand
        active = np.concatenate([active, inactive[violated]])
        inactive = inactive[~violated]
    return None


def frank_wolfe(lg, outer="local", rho=None, tol=1e-4, max_iters=1000,
                polish=True):
    """Conditional gradient on the lifted TRW objective over ``outer``.

    Starts from the moments of the uniform distribution, solves a direction
    LP per iteration (with a cutting-plane inner loop when cycle constraints
    are enabled), takes a golden-section step, and stops when the duality gap
    drops to ``tol``.  The returned bound is the final objective plus the
    final gap, a certified upper bound on the constrained supremum even when
    the iteration limit is hit.

    When ``polish`` is on, every iteration first tries a Newton refinement of
    the iterate on its active face, adopted only when it improves the
    objective and no row, old or newly separated, cuts it off.

    ``rho`` holds one edge appearance probability per edge orbit.  The bound
    is an upper bound on log Z for a ``rho`` in the spanning-tree polytope;
    a ``rho`` of the wrong length or with an entry outside [0, 1] (which no
    such point has) raises ``ValueError``, as do ``max_iters`` below 1 and a
    negative or non-finite ``tol``.
    """
    if rho is None:
        raise ValueError("edge appearance vector rho is required")
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (len(lg.edge_orbits),):
        raise ValueError(f"rho has shape {rho.shape}, need one entry per edge orbit "
                         f"({len(lg.edge_orbits)})")
    if not np.isfinite(rho).all():
        raise ValueError("rho has a non-finite entry")
    if ((rho < 0.0) | (rho > 1.0)).any():
        raise ValueError("rho has an entry outside [0, 1]")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    clock = time.perf_counter
    t_start = clock()
    if lg.n_vars == 0:
        return TrwResult(0.0, 0.0, np.zeros(0), [], 0, "gap", {}, outer, rho)

    system = build_outer_system(lg, outer)
    obj = TrwObjective(lg, rho, system.n_vars)
    simplex = Simplex(system.n_vars, system.rows, system.fixed_zero, system.start_basis)
    tau = system.uniform_point()

    iteration_trace = []
    pivots = 0
    converged = moved = False
    F = obj.value(tau)
    gap = math.inf
    it = 0
    clean_vertices = set()
    n_built = simplex.m
    kkt_dim = system.n_vars - int(system.fixed_zero.sum()) + n_built
    may_polish = polish and kkt_dim <= POLISH_SIZE_CAP
    stats = _new_stats()

    def add_cuts(x):
        """Add the cycle rows violated at ``x`` to the LP, their only holder;
        report whether there were any."""
        t = clock()
        new_rows = separate_cycles(lg, x, stats) if system.use_cycles else []
        stats["separate_s"] += clock() - t
        if new_rows:
            t = clock()
            simplex.add_rows(new_rows)
            stats["lp_s"] += clock() - t
        return bool(new_rows)

    def solve_lp(gvec):
        """One LP solve from the simplex's held basis, counted and timed."""
        nonlocal pivots
        t = clock()
        res = simplex.solve(gvec)
        stats["lp_s"] += clock() - t
        stats["lp_solves"] += 1
        pivots += res.iterations
        return res

    def direction(gvec):
        """Solve the direction LP, running cut separation at its vertex."""
        s = solve_lp(gvec).x
        if system.use_cycles:
            for _ in range(CUT_ROUNDS):
                key = s.round(9).tobytes()
                if key in clean_vertices:
                    break
                if not add_cuts(s):
                    clean_vertices.add(key)
                    break
                s = solve_lp(gvec).x
        return s

    def attempt_polish(g_scale):
        """Adopt the best improving face refinement that no cycle row cuts;
        report whether one was adopted.  Tolerances that give the same
        starting active set run the active-set loop once, and every face is
        solved once per attempt."""
        nonlocal tau, F
        stats["polish_tries"] += 1
        tols = sorted({max(1e-7, min(t, 0.2)) for t in
                       (0.5 * g_scale, 0.05 * g_scale, 1e-3, 1e-7)})
        faces = {}
        adopted = False
        for _ in range(CUT_ROUNDS):
            t0 = clock()
            excess = _row_excess(simplex, tau)
            starts = {}
            for t in tols:
                starts.setdefault((excess >= -t).tobytes(), t)
            cands = (_newton_polish(obj, simplex, tau, t, faces)
                     for t in starts.values())
            best = max((c for c in cands if c is not None), key=obj.value, default=None)
            stats["polish_s"] += clock() - t0
            if best is None or obj.value(best) <= F:
                break
            if not add_cuts(best):
                tau, F = best, obj.value(best)
                stats["polish_adopted"] += 1
                adopted = True
                break
        stats["polish_faces"] += len(faces)
        stats["polish_face_failures"] += sum(x is None for x in faces.values())
        return adopted

    while not converged and it < max_iters:
        it += 1
        pivots_before, rows_before = pivots, simplex.m
        polished = moved = may_polish and attempt_polish(gap if math.isfinite(gap) else 1.0)

        gvec = obj.grad(tau)
        s = direction(gvec)
        gap = float(gvec @ (s - tau))
        record = {"iteration": it, "gap": gap, "objective": F, "step": None}
        if gap <= tol:
            converged = not add_cuts(tau)
        else:
            delta = s - tau
            t = clock()
            lam, flam = golden_section(obj.line_function(tau, delta), tol=LS_TOL)
            stats["line_search_s"] += clock() - t
            if flam > F:
                tau = tau + lam * delta
                F = flam
                moved = True
                record["step"] = lam
        record.update(pivots=pivots - pivots_before, cuts=simplex.m - rows_before,
                      polish_adopted=polished)
        iteration_trace.append(record)

    stats["lp_refactorizations"] = simplex.refactorizations
    stats["lp_phase1_runs"] = simplex.phase1_runs
    stats["lp_phase1_rounds"] = simplex.phase1_rounds
    stats["lp_degenerate_pivots"] = simplex.degenerate_pivots
    eq = simplex.slack_sign == 0.0
    stats["eq_residual"] = float(np.abs(simplex.A[eq] @ tau - simplex.b[eq]).max(initial=0.0))
    if converged and stats["eq_residual"] > EQ_TOL:
        raise RuntimeError(f"gap termination off the equality rows: residual "
                           f"{stats['eq_residual']:.3e} > {EQ_TOL}")
    return TrwResult(
        bound=float(F + max(gap, 0.0)),
        objective=float(F),
        tau=tau,
        iteration_trace=iteration_trace,
        iterations=it,
        termination="gap" if converged else "iteration_limit" if moved else "stalled",
        node_marginals=lg.node_marginals(tau),
        outer=outer,
        rho=rho,
        millis=(clock() - t_start) * 1000.0,
        lp_pivots=pivots,
        n_cuts=simplex.m - n_built,
        stats=stats,
    )

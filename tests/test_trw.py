"""Objective, gradient, line search, and conditional-gradient tests."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liftedtrw as lt
from liftedtrw import trw
from liftedtrw.lpsolve import Row, Simplex
from liftedtrw.polytope import build_outer_system, separate_cycles
from liftedtrw.trw import (TrwObjective, _conditional_gradient, entropy_coefficients,
                           frank_wolfe, golden_section, gradient,
                           lifted_entropy_bound, lifted_linear_term)

from conftest import build, expand_rho, ground_entropy_bound


def named_rho(lg, mapping):
    rho = np.zeros(len(lg.edge_orbits))
    for eo in lg.edge_orbits:
        rho[eo.id] = mapping[eo.key[0]]
    return rho


def interior_point(lg, seed):
    """A strictly interior point of the lifted local polytope."""
    g = lg.model
    rng = np.random.default_rng(seed)
    mu = np.zeros(g.n_features)
    atoms = g.atom_node_ids
    scores = rng.normal(scale=0.5, size=1 << len(atoms))
    p = np.exp(scores - scores.max())
    p /= p.sum()
    for idx in range(1 << len(atoms)):
        state = [0] * len(g.nodes)
        for pos, i in enumerate(atoms):
            state[i] = (idx >> pos) & 1
        for aux in g.aux_atoms:
            state[aux] = g.consistent_aux_value(aux, state)
        for i in range(len(g.nodes)):
            mu[g.node_feature(i, state[i])] += p[idx]
        for k, (u, v) in enumerate(g.edges.tolist()):
            mu[g.edge_feature(k, state[u], state[v])] += p[idx]
    return lg.project(mu)


class TestEntropyCoefficients:
    def test_ring_worked_values(self, ring_lifted):
        lg = ring_lifted
        rho = named_rho(lg, {"stem": 1.0, "ring": 0.4, "chord": 0.4})
        node_coefs, edge_coefs = entropy_coefficients(lg, rho)
        core = next(o.id for o in lg.node_orbits
                    if lg.model.nodes[o.rep].label == "B")
        pend = next(o.id for o in lg.node_orbits
                    if lg.model.nodes[o.rep].label == "R")
        by_tag = {eo.key[0]: eo.id for eo in lg.edge_orbits}
        assert node_coefs[core] == 8.0
        assert node_coefs[pend] == 0.0
        assert edge_coefs[by_tag["stem"]] == -5.0
        assert edge_coefs[by_tag["ring"]] == -2.0
        assert edge_coefs[by_tag["chord"]] == -2.0

    def test_matches_ground_bound(self, ring_model, ring_lifted):
        lg = ring_lifted
        rho = named_rho(lg, {"stem": 0.9, "ring": 0.3, "chord": 0.55})
        for seed in range(5):
            tau = interior_point(lg, seed)
            lifted = lifted_entropy_bound(tau, rho, lg)
            ground = ground_entropy_bound(ring_model, lg.expand(tau),
                                          expand_rho(lg, rho))
            assert abs(lifted - ground) < 1e-9

    def test_matches_ground_bound_with_aux(self):
        g = build("friends_smokers", 2, -1.0)
        lg = lt.compute_orbits(g)
        rng = np.random.default_rng(3)
        rho = rng.uniform(0.1, 0.9, size=len(lg.edge_orbits))
        for seed in range(3):
            tau = interior_point(lg, seed)
            lifted = lifted_entropy_bound(tau, rho, lg)
            ground = ground_entropy_bound(g, lg.expand(tau), expand_rho(lg, rho))
            assert abs(lifted - ground) < 1e-9

    def test_deterministic_point_has_zero_entropy(self):
        g = build("complete_graph", 3, -1.0)
        lg = lt.compute_orbits(g)
        eo = lg.edge_orbits[0]
        tau = np.zeros(lg.n_vars)
        tau[lg.node_var(0, 0)] = 1.0
        tau[lg.edge_var(eo.id, 0, 0)] = 1.0
        rho = lt.init_rho_uniform(lg)
        assert lifted_entropy_bound(tau, rho, lg) == 0.0


class TestLinearTerm:
    def test_zero_tau(self, ring_lifted):
        assert lifted_linear_term(np.zeros(ring_lifted.n_vars), ring_lifted) == 0.0

    def test_matches_ground_inner_product(self, ring_model, ring_lifted):
        lg = ring_lifted
        theta = ring_model.theta_vector()
        for seed in range(5):
            tau = interior_point(lg, seed)
            assert abs(lifted_linear_term(tau, lg)
                       - float(theta @ lg.expand(tau))) < 1e-9


class TestGradient:
    def test_finite_differences_ring(self, ring_lifted):
        lg = ring_lifted
        rho = named_rho(lg, {"stem": 1.0, "ring": 0.4, "chord": 0.4})
        obj = TrwObjective(lg, rho)
        worst = 0.0
        for seed in range(20):
            tau = interior_point(lg, seed)
            grad = gradient(tau, rho, lg)
            step = 1e-6
            for j in range(lg.n_vars):
                e = np.zeros(lg.n_vars)
                e[j] = step
                fd = (obj.value(tau + e) - obj.value(tau - e)) / (2 * step)
                rel = abs(grad[j] - fd) / max(1.0, abs(fd))
                worst = max(worst, rel)
        assert worst <= 1e-5

    def test_zero_node_coefficient_gradient(self, ring_lifted):
        """With the uniform-tree rho the pendant orbit drops out of the
        entropy, so its gradient is purely the linear term."""
        lg = ring_lifted
        rho = named_rho(lg, {"stem": 1.0, "ring": 0.4, "chord": 0.4})
        obj = TrwObjective(lg, rho)
        pend = next(o.id for o in lg.node_orbits
                    if lg.model.nodes[o.rep].label == "R")
        tau = interior_point(lg, 1)
        grad = gradient(tau, rho, lg)
        for t in range(2):
            var = lg.node_var(pend, t)
            assert grad[var] == obj.theta[var]

    def test_gradient_finite_at_vertex(self):
        g = build("complete_graph", 3, -1.0)
        lg = lt.compute_orbits(g)
        eo = lg.edge_orbits[0]
        tau = np.zeros(lg.n_vars)
        tau[lg.node_var(0, 0)] = 1.0
        tau[lg.edge_var(eo.id, 0, 0)] = 1.0
        rho = lt.init_rho_uniform(lg)
        grad = gradient(tau, rho, lg)
        assert np.isfinite(grad).all()


class TestGoldenSection:
    def test_quadratic(self):
        x, fx = golden_section(lambda l: -(l - 0.3) ** 2)
        assert abs(x - 0.3) <= 1e-8

    def test_boundary(self):
        x, fx = golden_section(lambda l: l)
        assert abs(x - 1.0) <= 1e-7

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.5, max_value=20.0))
    @settings(max_examples=30, deadline=None)
    def test_random_quadratics(self, peak, curv):
        x, _ = golden_section(lambda l: -curv * (l - peak) ** 2)
        assert abs(x - peak) <= 1e-7

    def test_matches_grid_scan_on_trw_line(self):
        g = build("complete_graph", 5, -1.0)
        lg = lt.compute_orbits(g)
        rho = lt.init_rho_uniform(lg)
        system = build_outer_system(lg, "local")
        obj = TrwObjective(lg, rho, system.n_vars)
        tau = system.uniform_point()
        grad = obj.grad(tau)
        s = Simplex(system.n_vars, system.cs.rows, system.fixed_zero).solve(grad).x
        phi = obj.line_function(tau, s - tau)
        lam, _ = golden_section(phi, 0.0, 1.0 - 1e-9, 1e-8)
        grid = np.arange(0.0, 1.0, 1e-4)
        best = grid[int(np.argmax([phi(l) for l in grid]))]
        assert abs(lam - best) <= 1e-4

    def test_evaluation_budget(self):
        calls = []

        def f(l):
            calls.append(l)
            return -(l - 0.4) ** 2

        golden_section(f, 0.0, 1.0, 1e-8)
        budget = int(np.ceil(np.log(1e-8) / np.log(0.618))) + 2
        assert len(calls) <= budget + 2


class TestFrankWolfe:
    def test_single_node_exact(self):
        for w in (-1.5, 0.0, 0.7, 2.0):
            g = lt.ground(lt.parse_model("W V(x)").bind_weight(w), 1)
            lg = lt.compute_orbits(g)
            res = frank_wolfe(lg, outer="local", rho=np.zeros(0), tol=1e-6)
            assert res.iterations <= 2
            assert abs(res.bound - np.log1p(np.exp(w))) < 1e-6

    def test_upper_bound_on_complete_graph_grid(self):
        for w in np.linspace(-2, 2, 5):
            g = build("complete_graph", 10, float(w))
            lg = lt.compute_orbits(g)
            rho = lt.init_rho_uniform(lg)
            log_z, _ = lt.counting_elimination_complete(10, float(w), -0.1)
            res = frank_wolfe(lg, outer="local+exch", rho=rho, tol=1e-5,
                              max_iters=2000)
            assert res.bound >= log_z - 1e-8

    def test_upper_bound_all_outers_small_models(self):
        rng = np.random.default_rng(9)
        for name, n in (("complete_graph", 4), ("friends_smokers", 2),
                        ("clique_cycle", 3)):
            for w in rng.uniform(-2, 2, 3):
                g = build(name, n, float(w))
                lg = lt.compute_orbits(g)
                ex = lt.brute_force(g)
                rho = lt.init_rho_uniform(lg)
                for outer in lt.OUTER_CHOICES:
                    res = frank_wolfe(lg, outer=outer, rho=rho, tol=1e-5,
                                      max_iters=3000)
                    assert res.bound >= ex.log_z - 1e-8, (name, w, outer)

    def test_lifting_equivalence_ring(self, ring_model, ring_lifted):
        lg = ring_lifted
        rho = lt.init_rho_uniform(lg)
        for outer in ("local", "cycle"):
            a = frank_wolfe(lg, outer=outer, rho=rho, tol=1e-6, max_iters=20000)
            b = lt.ground_trw(ring_model, expand_rho(lg, rho), outer=outer,
                              tol=1e-6, max_iters=20000)
            assert abs(a.bound - b.bound) < 1e-5

    def test_monotone_objective_and_gap_traces(self):
        g = build("clique_cycle", 3, 2.0)
        lg = lt.compute_orbits(g)
        rho = lt.init_rho_uniform(lg)
        for outer in lt.OUTER_CHOICES:
            res = frank_wolfe(lg, outer=outer, rho=rho, tol=1e-5, max_iters=2000)
            obj_trace = np.array(res.objective_trace)
            assert (np.diff(obj_trace) >= -1e-12).all()
            assert res.converged
            assert res.gap_trace[-1] <= 1e-5

    def test_monotone_tightening(self):
        for w in (-1.5, 0.5, 2.0):
            g = build("clique_cycle", 3, w)
            lg = lt.compute_orbits(g)
            rho = lt.init_rho_uniform(lg)
            bounds = {}
            for outer in lt.OUTER_CHOICES:
                bounds[outer] = frank_wolfe(lg, outer=outer, rho=rho,
                                            tol=1e-6, max_iters=20000).bound
            assert bounds["local"] >= bounds["local+exch"] - 1e-7
            assert bounds["local+exch"] >= bounds["cycle+exch"] - 1e-7
            assert bounds["local"] >= bounds["cycle"] - 1e-7

    def test_cycle_bound_at_a_cycle_feasible_point(self):
        """The polish must not adopt a point that a cycle row cuts off: the
        local optimum violates three cycle rows here."""
        for w in (1.5, 2.0):
            g = build("clique_cycle", 3, w)
            lg = lt.compute_orbits(g)
            rho = lt.init_rho_uniform(lg)
            local = frank_wolfe(lg, outer="local", rho=rho, tol=1e-6, max_iters=20000)
            cycle = frank_wolfe(lg, outer="cycle", rho=rho, tol=1e-6, max_iters=20000)
            fresh = build_outer_system(lg, "cycle")
            assert separate_cycles(lg, cycle.tau, fresh.cs) == [], w
            assert cycle.converged and cycle.bound < local.bound - 1.0, w

    @pytest.mark.parametrize("name, n, w, below", [
        ("friends_smokers", 10, 1.0, 133.1),
        ("complete_graph", 150, -1.0, -74.3),
    ])
    def test_local_certifies_within_budget(self, name, n, w, below):
        """Optima near the boundary, where the conditional-gradient gap alone
        stalls at the iteration limit, are certified by the face polish."""
        lg = lt.compute_orbits(build(name, n, w))
        res = frank_wolfe(lg, outer="local", rho=lt.init_rho_uniform(lg),
                          tol=1e-5, max_iters=200)
        assert res.converged and res.bound < below

    @pytest.mark.parametrize("name, n, w, polish, termination", [
        ("complete_graph", 12, -1.0, True, "gap"),
        # every line search accepted, gap 0.709 at the limit
        ("friends_smokers", 10, 1.0, False, "iteration_limit"),
        # 2 of 200 line searches accepted, gap 0.298 at the limit
        ("complete_graph", 150, -1.0, False, "stalled"),
    ])
    def test_termination_reasons(self, name, n, w, polish, termination):
        lg = lt.compute_orbits(build(name, n, w))
        res = frank_wolfe(lg, outer="local", rho=lt.init_rho_uniform(lg),
                          tol=1e-5, max_iters=200, polish=polish)
        assert res.termination == termination
        assert res.converged == (termination == "gap")
        if not res.converged:
            assert res.iterations == 200 and res.gap_trace[-1] > 0.2

    def test_stats_keys_and_types(self):
        """``stats`` holds float timings, the equality residual and int
        counters; a ``+exch`` solve adds the timings and counts of its looser
        solve, keeps the residual of the ``tau`` it returns, and reports the
        looser solve's iterations and termination, which a solve without
        clusters leaves at ``0`` and ``""``."""
        lg = lt.compute_orbits(build("clique_cycle", 4, 0.5))
        rho = lt.init_rho_uniform(lg)
        res = frank_wolfe(lg, outer="cycle+exch", rho=rho, tol=1e-5, max_iters=200)
        timings = {"lp_s", "separate_s", "line_search_s", "polish_s"}
        counters = {"lp_solves", "lp_refactorizations", "polish_tries",
                    "polish_adopted"}
        assert set(res.stats) == timings | counters | {"eq_residual", "loose_iterations",
                                                       "loose_termination"}
        assert all(type(res.stats[k]) is float and res.stats[k] >= 0.0 for k in timings)
        assert all(type(res.stats[k]) is int for k in counters)
        assert type(res.stats["eq_residual"]) is float
        assert 0.0 <= res.stats["eq_residual"] <= trw.EQ_TOL
        assert res.cluster_counts
        parts = [_conditional_gradient(lg, outer, rho, 1e-5, 200, True)
                 for outer in ("cycle+exch", "cycle")]
        for k in counters:
            assert res.stats[k] == sum(p.stats[k] for p in parts), k
        assert res.stats["eq_residual"] == parts[0].stats["eq_residual"]
        assert (res.stats["loose_iterations"], res.stats["loose_termination"]) == (
            parts[1].iterations, parts[1].termination)
        assert type(res.stats["loose_iterations"]) is int and res.stats["loose_iterations"] > 0
        assert all((p.stats["loose_iterations"], p.stats["loose_termination"]) == (0, "")
                   for p in parts)
        lg_fs = lt.compute_orbits(build("friends_smokers", 3, 0.5))
        plain = frank_wolfe(lg_fs, outer="local+exch", rho=lt.init_rho_uniform(lg_fs),
                            tol=1e-5, max_iters=200)
        assert not plain.cluster_counts
        assert (plain.stats["loose_iterations"], plain.stats["loose_termination"]) == (0, "")
        assert res.tau.tobytes() == parts[0].tau.tobytes()
        eq_rows = [row for row in build_outer_system(lg, "cycle+exch").cs.rows
                   if row.rel == "="]
        walked = max(abs(sum(c * res.tau[j] for j, c in row.coeffs) - row.rhs)
                     for row in eq_rows)
        assert res.stats["eq_residual"] == pytest.approx(walked, abs=1e-15)
        assert res.stats["lp_solves"] >= res.iterations
        assert 0 < res.stats["polish_adopted"] <= res.stats["polish_tries"]
        assert res.stats["lp_refactorizations"] >= 1

    def test_zero_entropy_weights_reach_their_bound(self, ring_model):
        """A tree-polytope point with rho 0 on two ground edges leaves 18 of
        the 80 ground variables without entropy weight; the polish still has
        to move them onto their bounds and certify."""
        rng = np.random.default_rng(7)
        for _ in range(12):
            rho_g = lt.random_tree_point(ring_model, rng)
        assert int((rho_g == 0.0).sum()) == 2
        obj = TrwObjective(lt.trivial_lifting(ring_model), rho_g)
        assert (obj.n_vars, int((obj.w == 0.0).sum())) == (80, 18)
        res = lt.ground_trw(ring_model, rho_g, outer="local", tol=1e-6,
                            max_iters=100)
        assert res.converged

    def test_symmetrization_never_hurts(self, ring_model, ring_lifted):
        """Orbit-averaging any tree-polytope point cannot worsen the bound."""
        lg = ring_lifted
        rng = np.random.default_rng(11)
        for trial in range(20):
            rho_g = lt.random_tree_point(ring_model, rng)
            rho_avg = np.zeros(len(lg.edge_orbits))
            for eo in lg.edge_orbits:
                members = [ring_model.edge_index[(min(u, v), max(u, v))]
                           for u, v in eo.members]
                rho_avg[eo.id] = float(np.mean([rho_g[k] for k in members]))
            a = lt.ground_trw(ring_model, expand_rho(lg, rho_avg), outer="local",
                              tol=1e-6, max_iters=20000)
            b = lt.ground_trw(ring_model, rho_g, outer="local",
                              tol=1e-6, max_iters=20000)
            assert a.objective <= b.bound + 1e-6

    def test_polish_off_still_converges_small(self):
        g = build("complete_graph", 4, -1.0)
        lg = lt.compute_orbits(g)
        rho = lt.init_rho_uniform(lg)
        res = frank_wolfe(lg, outer="local", rho=rho, tol=1e-4,
                          max_iters=3000, polish=False)
        assert res.converged
        ref = frank_wolfe(lg, outer="local", rho=rho, tol=1e-6, max_iters=3000)
        assert abs(res.bound - ref.bound) < 2e-4


# ---------------------------------------------------------------------------
# The polish against a row-walking reference
# ---------------------------------------------------------------------------

def reference_face_newton(obj, free, active, tau):
    """The face Newton iteration with the face built by walking ``Row.coeffs``."""
    nf = free.size
    col_of = {int(j): k for k, j in enumerate(free)}
    m = len(active)
    E = np.zeros((m, nf))
    b_e = np.zeros(m)
    for i, row in enumerate(active):
        b_e[i] = row.rhs
        for j, c in row.coeffs:
            k = col_of.get(int(j))
            if k is not None:
                E[i, k] += c
            else:
                b_e[i] -= c * tau[j]

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
            return None
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


def reference_newton_polish(obj, rows, fixed_zero, tau, active_tol):
    """The active-set polish with every row value summed over ``Row.coeffs``."""
    n = obj.n_vars
    tau = np.asarray(tau, dtype=float)
    pinned = fixed_zero | ((tau <= 1e-10) & (obj.w == 0.0))
    free = np.where(~pinned)[0]
    if free.size == 0:
        return None

    active = []
    inactive = []
    for row in rows:
        val = sum(c * tau[j] for j, c in row.coeffs)
        if row.rel == "=" or val >= row.rhs - active_tol:
            active.append(row)
        else:
            inactive.append(row)

    for _ in range(6):
        x = reference_face_newton(obj, free, active, tau)
        if x is None:
            return None
        cand = np.zeros(n)
        cand[free] = np.maximum(x, 0.0)
        violated = []
        still = []
        for row in inactive:
            val = sum(c * cand[j] for j, c in row.coeffs)
            if val > row.rhs + 1e-9:
                violated.append(row)
            else:
                still.append(row)
        if not violated:
            for row in active:
                val = sum(c * cand[j] for j, c in row.coeffs)
                if row.rel == "=" and abs(val - row.rhs) > 1e-8:
                    return None
                if row.rel == "<=" and val > row.rhs + 1e-8:
                    return None
            return cand
        active = active + violated
        inactive = still
    return None


def _candidate_bytes(cand):
    return None if cand is None else cand.tobytes()


class TestNewtonPolish:
    ACTIVE_TOLS = (1e-7, 1e-3, 0.05, 0.2)

    @staticmethod
    def _iterates(monkeypatch, lg, outer):
        """``(objective, rows, fixed_zero, tau)`` at the iterates of a
        polishing and a non-polishing solve, with the LP's rows, cuts
        included, at that iterate."""
        points = {}
        lps = []
        polish = trw._newton_polish
        line_function = TrwObjective.line_function

        class Recorded(Simplex):
            def __init__(self, *args):
                super().__init__(*args)
                lps.append(self)

        def record(obj, lp, tau):
            points.setdefault((tau.tobytes(), lp.m),
                              (obj, list(lp.rows), lp.fixed_zero, tau.copy()))

        def polish_recorded(obj, lp, fixed_zero, tau, active_tol):
            record(obj, lp, tau)
            return polish(obj, lp, fixed_zero, tau, active_tol)

        def line_recorded(obj, x, delta):
            record(obj, lps[-1], x)
            return line_function(obj, x, delta)

        with monkeypatch.context() as mp:
            mp.setattr(trw, "Simplex", Recorded)
            mp.setattr(trw, "_newton_polish", polish_recorded)
            mp.setattr(TrwObjective, "line_function", line_recorded)
            rho = lt.init_rho_uniform(lg)
            for polish_on in (True, False):
                frank_wolfe(lg, outer=outer, rho=rho, tol=1e-6, max_iters=30,
                            polish=polish_on)
        return list(points.values())

    @pytest.mark.parametrize("outer", ["local", "cycle", "local+exch", "cycle+exch"])
    @pytest.mark.parametrize("name, n, w", [
        ("complete_graph", 4, -1.0), ("friends_smokers", 3, 1.0),
        ("clique_cycle", 3, 2.0), ("ring_pendant", 5, 3.0),
    ])
    def test_matches_row_walk_at_iterates(self, monkeypatch, name, n, w, outer):
        """At Frank-Wolfe iterates, with the cycle rows found so far, the
        polish read from the LP's matrix returns the bytes (or None) of the
        polish that walks the rows."""
        g = (lt.zoo.ring_pendant_model(scale=w) if name == "ring_pendant"
             else build(name, n, w))
        lg = lt.compute_orbits(g)
        points = self._iterates(monkeypatch, lg, outer)
        found = []
        for obj, rows, fixed_zero, tau in points:
            lp = Simplex(obj.n_vars, rows, fixed_zero)
            for t in self.ACTIVE_TOLS:
                got = _candidate_bytes(trw._newton_polish(obj, lp, fixed_zero, tau, t))
                want = _candidate_bytes(reference_newton_polish(obj, rows, fixed_zero,
                                                                tau, t))
                assert got == want, t
                found.append(got is not None)
        assert any(found)
        row_counts = {len(rows) for _obj, rows, _fz, _tau in points}
        if outer.startswith("cycle") and name in ("clique_cycle", "ring_pendant"):
            assert len(row_counts) > 1   # iterates before and after cuts

    @pytest.mark.parametrize("theta, start, expected", [
        # the entropy maximum (1/3 each) violates x0 >= 0.5: the row is added
        ((0.0, 0.0, 0.0), (0.6, 0.2, 0.2), (0.5, 0.25, 0.25)),
        ((0.0, 0.0, 0.0), (0.9, 0.05, 0.05), (0.5, 0.25, 0.25)),
        # the maximum has x0 = e^2 / (e^2 + 2) > 0.5: the row stays inactive
        ((2.0, 0.0, 0.0), (0.6, 0.2, 0.2), None),
    ])
    def test_negative_rhs_row(self, theta, start, expected):
        """``-x0 <= -0.5``, which the simplex stores negated with
        ``slack_sign`` -1, is held as ``x0 >= 0.5``, never reversed, both in
        the active set and in the violation test."""
        rows = [Row.make({0: 1.0, 1: 1.0, 2: 1.0}, "=", 1.0),
                Row.make({0: -1.0}, "<=", -0.5)]
        lp = Simplex(3, rows)
        assert lp.slack_sign.tolist() == [0.0, -1.0]
        assert lp.A[1].tolist() == [1.0, 0.0, 0.0] and lp.b[1] == 0.5
        obj = SimpleNamespace(n_vars=3, theta=np.array(theta), w=-np.ones(3))
        tau = np.array(start)
        fixed_zero = np.zeros(3, dtype=bool)
        if expected is None:
            e2 = np.exp(2.0)
            expected = (e2 / (e2 + 2.0), 1.0 / (e2 + 2.0), 1.0 / (e2 + 2.0))
        np.testing.assert_allclose(trw._newton_polish(obj, lp, fixed_zero, tau, 1e-3),
                                   expected, atol=1e-12)
        for t in self.ACTIVE_TOLS:
            assert (_candidate_bytes(trw._newton_polish(obj, lp, fixed_zero, tau, t))
                    == _candidate_bytes(reference_newton_polish(obj, rows, fixed_zero,
                                                                tau, t))), t

    @pytest.mark.parametrize("start, kept", [((0.6, 0.2), True), ((0.45, 0.2), False)])
    def test_negative_rhs_row_left_off_its_face(self, start, kept):
        """With ``theta_1 = -1e6`` every Newton step is cut short at
        ``x_1 >= 0``, so the active row ``-x0 <= -0.5`` is left as ``x0``
        started: kept when that satisfies ``x0 >= 0.5``, refused otherwise."""
        lp = Simplex(2, [Row.make({0: -1.0}, "<=", -0.5)])
        obj = SimpleNamespace(n_vars=2, theta=np.array([0.0, -1e6]), w=-np.ones(2))
        fixed_zero = np.zeros(2, dtype=bool)
        tau = np.array(start)
        cand = trw._newton_polish(obj, lp, fixed_zero, tau, 0.2)
        assert (cand is not None) == kept
        if kept:
            assert abs(cand[0] - start[0]) < 1e-5
        assert (_candidate_bytes(cand) == _candidate_bytes(
            reference_newton_polish(obj, lp.rows, fixed_zero, tau, 0.2)))

    def test_gap_termination_off_the_equality_rows_raises(self, monkeypatch):
        """A polish that lands 1e-6 off a normalization row, uphill, is
        adopted and certified by the gap; the residual check refuses it."""
        lg = lt.compute_orbits(build("complete_graph", 4, -1.0))
        rho = lt.init_rho_uniform(lg)
        clean = frank_wolfe(lg, outer="local", rho=rho, tol=1e-5, max_iters=200)
        assert clean.converged and clean.stats["eq_residual"] <= 1e-12
        polish = trw._newton_polish

        def off_face(obj, lp, fixed_zero, tau, active_tol):
            cand = polish(obj, lp, fixed_zero, tau, active_tol)
            if cand is not None:
                cand = cand.copy()
                cand[0] += 1e-6 * np.sign(obj.grad(cand)[0])
            return cand

        monkeypatch.setattr(trw, "_newton_polish", off_face)
        with pytest.raises(RuntimeError, match="off the equality rows"):
            frank_wolfe(lg, outer="local", rho=rho, tol=1e-5, max_iters=200)

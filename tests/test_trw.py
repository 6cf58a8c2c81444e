"""Objective, gradient, line search, and conditional-gradient tests."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liftedtrw as lt
from liftedtrw import polytope, trw
from liftedtrw.lpsolve import Row, Simplex
from liftedtrw.polytope import build_outer_system, separate_cycles
from liftedtrw.trw import (TrwObjective, entropy_coefficients, frank_wolfe, golden_section, gradient,
                           lifted_entropy_bound, lifted_linear_term)

from conftest import build, edge_orbit_tags, expand_rho, ground_entropy_bound, members


def named_rho(lg, mapping):
    return np.array([mapping[tag] for tag in edge_orbit_tags(lg)], dtype=float)


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
        by_tag = {tag: i for i, tag in enumerate(edge_orbit_tags(lg))}
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
        s = Simplex(system.n_vars, system.rows, system.fixed_zero).solve(grad).x
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

    @pytest.mark.parametrize("bad, match", [
        ("extra", "one entry per edge orbit"),
        ("short", "one entry per edge orbit"),
        (np.nan, "non-finite"),
        (np.inf, "non-finite"),
        (-1.0, r"outside \[0, 1\]"),
        (1.5, r"outside \[0, 1\]"),
    ])
    def test_malformed_rho_raises(self, bad, match):
        """Only a ``rho`` in the spanning-tree polytope certifies a bound:
        ``rho = [-1]`` on complete_graph n=6 W=-1 gave 0.0924, below log Z
        0.2008.  A wrong length, a non-finite entry and an entry outside
        [0, 1] raise."""
        lg = lt.compute_orbits(build("complete_graph", 6, -1.0))
        rho = lt.init_rho_uniform(lg)
        assert rho.size == 1
        rho = {"extra": np.append(rho, 0.5), "short": rho[:0]}.get(bad, np.array([bad]))
        with pytest.raises(ValueError, match=match):
            frank_wolfe(lg, outer="local", rho=rho, tol=1e-6)

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
            assert separate_cycles(lg, cycle.tau) == [], w
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

    def test_dependent_active_rows_certify(self):
        """At this non-uniform rho the polish faces have dependent active cycle
        rows (singular KKT matrices); their least-squares steps still certify,
        where plain conditional gradient ends at the limit with gap 1e-2."""
        lg = lt.compute_orbits(build("clique_cycle", 6, 1.0))
        rho = (0.5 * lt.init_rho_uniform(lg)
               + 0.5 * lt.lifted_kruskal(lg, np.ones(len(lg.edge_orbits))))
        res = frank_wolfe(lg, outer="cycle", rho=rho, tol=1e-5, max_iters=200)
        assert res.termination == "gap"
        assert res.stats["polish_face_failures"] == 0

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

    def test_stats_keys_and_types(self, monkeypatch):
        """``stats`` holds float timings, the equality residual and int
        counters, all of the one solve a call makes: a ``+exch`` solve with
        clusters builds one outer system, counts its own LP solves and pivots,
        reports the residual of the ``tau`` it returns, and each separation
        call either searches from or prunes each source; the phase-1 counters
        are those of its LP's phase-1 runs."""
        lg = lt.compute_orbits(build("clique_cycle", 4, 0.5))
        rho = lt.init_rho_uniform(lg)
        built, lp_iterations, separations, phase1_rounds = [], [], [], []
        build_system, lp_solve = trw.build_outer_system, Simplex.solve
        separate, phase1 = trw.separate_cycles, Simplex._phase1

        def build_recorded(lg, outer):
            built.append(outer)
            return build_system(lg, outer)

        def solve_recorded(self, objective):
            res = lp_solve(self, objective)
            lp_iterations.append(res.iterations)
            return res

        def separate_recorded(*args):
            separations.append(args[1])
            return separate(*args)

        def phase1_recorded(self):
            out = phase1(self)
            phase1_rounds.append(out[2])
            return out

        with monkeypatch.context() as mp:
            mp.setattr(trw, "build_outer_system", build_recorded)
            mp.setattr(Simplex, "solve", solve_recorded)
            mp.setattr(trw, "separate_cycles", separate_recorded)
            mp.setattr(Simplex, "_phase1", phase1_recorded)
            res = frank_wolfe(lg, outer="cycle+exch", rho=rho, tol=1e-5, max_iters=200)
        timings = {"lp_s", "separate_s", "line_search_s", "polish_s"}
        counters = {"lp_solves", "lp_refactorizations", "lp_phase1_runs", "lp_phase1_rounds",
                    "polish_tries", "polish_adopted", "polish_faces", "polish_face_failures",
                    "cycle_searches", "cycle_pruned"}
        assert set(res.stats) == timings | counters | {"eq_residual"}
        assert all(type(res.stats[k]) is float and res.stats[k] >= 0.0 for k in timings)
        assert all(type(res.stats[k]) is int for k in counters)
        assert type(res.stats["eq_residual"]) is float
        assert 0.0 <= res.stats["eq_residual"] <= trw.EQ_TOL
        assert res.cluster_counts and res.converged
        assert built == ["cycle+exch"]
        assert res.stats["lp_solves"] == len(lp_iterations)
        assert res.lp_pivots == sum(lp_iterations)
        system = build_outer_system(lg, "cycle+exch")
        assert res.tau.shape == (system.n_vars,)
        for cl in system.clusters:
            counts = res.tau[cl.c_offset:cl.c_offset + cl.size + 1]
            assert res.cluster_counts[cl.node_orbit].tobytes() == counts.tobytes()
        eq_rows = [row for row in system.rows if row.rel == "="]
        walked = max(abs(sum(c * res.tau[j] for j, c in row.coeffs) - row.rhs)
                     for row in eq_rows)
        assert res.stats["eq_residual"] == pytest.approx(walked, abs=1e-15)
        assert res.stats["lp_solves"] >= res.iterations
        assert 0 < res.stats["polish_adopted"] <= res.stats["polish_tries"]
        assert res.stats["lp_refactorizations"] >= 1
        assert phase1_rounds and (res.stats["lp_phase1_runs"], res.stats["lp_phase1_rounds"]) == (
            len(phase1_rounds), sum(phase1_rounds))
        n_sources = len(lt.polytope._mirror_graph(lg).sources)
        assert n_sources > 0 and separations
        assert (res.stats["cycle_searches"] + res.stats["cycle_pruned"]
                == n_sources * len(separations))
        assert res.stats["cycle_pruned"] > 0

    @pytest.mark.parametrize("name, n, w, outer, ground, runs, rounds, pivots", [
        # the ground local LP starts from its crash basis
        ("complete_graph", 12, -1.0, "local", True, 0, 0, 483),
        # structural zeros leave no crash basis: the first solve runs phase 1
        ("friends_smokers", 10, 1.0, "local+exch", False, 1, 35, 36),
        # cut rows that cut off the held vertex restart phase 1
        ("clique_cycle", 10, 0.5, "cycle+exch", False, 5, 143, 228),
    ])
    def test_phase1_counts(self, name, n, w, outer, ground, runs, rounds, pivots):
        """Phase-1 runs and their pricing rounds, pinned on three bench cells
        (without the bench's W jitter)."""
        g = build(name, n, w)
        lg = lt.compute_orbits(g)
        rho = lt.init_rho_uniform(lg)
        if ground:
            res = lt.ground_trw(g, expand_rho(lg, rho), outer=outer, tol=1e-4, max_iters=15,
                                polish=False)
        else:
            res = frank_wolfe(lg, outer=outer, rho=rho, tol=1e-5, max_iters=200)
        assert (res.stats["lp_phase1_runs"], res.stats["lp_phase1_rounds"],
                res.lp_pivots) == (runs, rounds, pivots)

    @pytest.mark.parametrize("weights", [(3, 2, 6, 5, 4, 1), (5, 6, 2, 4, 1, 3),
                                         (1, 3, 5, 6, 2, 4)])
    def test_exch_certifies_at_non_uniform_rho(self, weights):
        """At these rho the polish used to pin the cluster counts at zero and
        never free them, and ``local+exch`` stalled at gaps of 5.5e-5 to
        3.8e-3 (which point depended on the BLAS thread count).  Freeing them
        when a face does not improve certifies within ``local``'s bound."""
        lg = lt.compute_orbits(build("clique_cycle", 16, -0.5))
        rho = (0.5 * lt.init_rho_uniform(lg)
               + 0.5 * lt.lifted_kruskal(lg, np.array(weights, dtype=float)))
        res = frank_wolfe(lg, outer="local+exch", rho=rho, tol=1e-5, max_iters=200)
        local = frank_wolfe(lg, outer="local", rho=rho, tol=1e-5, max_iters=200)
        assert res.termination == "gap"
        assert res.stats["polish_face_failures"] == 0
        assert res.bound <= local.bound + 1e-5

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
    def test_malformed_tol_raises(self, tol):
        """``tol=nan`` and ``tol=-1`` ran every iteration at a converged point
        and reported ``stalled``; ``tol=inf`` reported ``gap`` after one
        iteration whatever the gap.  They raise, and ``tol=0`` runs."""
        lg = lt.compute_orbits(build("complete_graph", 6, -1.0))
        rho = lt.init_rho_uniform(lg)
        with pytest.raises(ValueError, match="tol"):
            frank_wolfe(lg, outer="local", rho=rho, tol=tol, max_iters=50)
        res = frank_wolfe(lg, outer="local", rho=rho, tol=0.0, max_iters=50)
        assert res.iterations <= 50 and np.isfinite(res.bound)

    def test_polish_size_cap(self, monkeypatch):
        """A system whose KKT matrix is above ``POLISH_SIZE_CAP`` rows makes
        no polish attempt and still certifies a bound no tighter than the
        polished solve's, within tol."""
        lg = lt.compute_orbits(build("complete_graph", 12, -1.0))
        rho = lt.init_rho_uniform(lg)
        system = build_outer_system(lg, "local+exch")
        kkt_dim = system.n_vars - int(system.fixed_zero.sum()) + len(system.rows)
        polished = frank_wolfe(lg, outer="local+exch", rho=rho, tol=1e-5, max_iters=200)
        assert polished.stats["polish_tries"] > 0
        monkeypatch.setattr(trw, "POLISH_SIZE_CAP", kkt_dim - 1)
        capped = frank_wolfe(lg, outer="local+exch", rho=rho, tol=1e-5, max_iters=200)
        assert capped.stats["polish_tries"] == 0
        assert capped.converged
        assert capped.bound >= polished.bound - 1e-5

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
                rho_avg[eo.id] = float(np.mean([rho_g[k]
                                                for k in members(lg.edge_orbit_of, eo.id)]))
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


def reference_newton_polish(obj, rows, fixed_zero, tau, active_tol, released=None):
    """The active-set polish with every row value summed over ``Row.coeffs``.

    Each bound release (freeing the pinned cluster counts when a face's
    point does not improve on ``tau``) appends that point to ``released``.
    """
    n = obj.n_vars
    start = tau = np.asarray(tau, dtype=float)
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
        x = reference_face_newton(obj, free, active, start)
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
            if (pinned & ~fixed_zero).any() and obj.value(cand) <= obj.value(tau):
                if released is not None:
                    released.append(cand)
                pinned, start = fixed_zero, cand
                free = np.where(~pinned)[0]
                continue
            return cand
        active = active + violated
        inactive = still
    return None


def _candidate_bytes(cand):
    return None if cand is None else cand.tobytes()


HELD_ROW_CASES = ([(name, n, w, False) for name in sorted(lt.zoo.MODEL_TEXTS)
                   for n in range(2, 7) for w in (-2.0, 2.0)]
                  + [("ring_pendant", 5, w, ground) for w in (-1.0, 3.0)
                     for ground in (False, True)])


class TestCutRows:
    @pytest.mark.parametrize("outer", ["cycle", "cycle+exch"])
    @pytest.mark.parametrize("name, n, w, ground", HELD_ROW_CASES)
    def test_separation_returns_no_held_row(self, monkeypatch, name, n, w, ground, outer):
        """A solve's LP is the only holder of its cut rows.  Tracking the
        rows it holds, those it is built from plus every ``add_rows``, no
        row that separation returns is held already, and each is violated
        at its point by more than ``CYCLE_VIOLATION_TOL``; so no filter
        against the held rows is needed.  Lifted solves, and ``ring_pendant``
        through ``ground_trw`` too."""
        held = set()
        returned = []
        build_lp, add_rows, separate = Simplex.__init__, Simplex.add_rows, trw.separate_cycles

        def build_tracked(self, n_vars, rows, *args):
            rows = list(rows)
            build_lp(self, n_vars, rows, *args)
            held.clear()
            held.update(rows)

        def add_tracked(self, rows):
            rows = list(rows)
            add_rows(self, rows)
            held.update(rows)

        def separate_checked(lg, tau, *args):
            rows = separate(lg, tau, *args)
            for row in rows:
                assert row not in held
                violation = sum(c * tau[j] for j, c in row.coeffs) - row.rhs
                assert violation > polytope.CYCLE_VIOLATION_TOL
            returned.extend(rows)
            return rows

        monkeypatch.setattr(Simplex, "__init__", build_tracked)
        monkeypatch.setattr(Simplex, "add_rows", add_tracked)
        monkeypatch.setattr(trw, "separate_cycles", separate_checked)
        g = lt.zoo.ring_pendant_model(scale=w) if name == "ring_pendant" else build(name, n, w)
        lg = lt.compute_orbits(g)
        rho = lt.init_rho_uniform(lg)
        if ground:
            res = lt.ground_trw(g, expand_rho(lg, rho), outer=outer, tol=1e-5, max_iters=200)
        else:
            res = frank_wolfe(lg, outer=outer, rho=rho, tol=1e-5, max_iters=200)
        assert res.n_cuts == len(returned)
        if (name, w) in (("clique_cycle", 2.0), ("ring_pendant", 3.0)) and n >= 3:
            assert returned


class TestNewtonPolish:
    ACTIVE_TOLS = (1e-7, 1e-3, 0.05, 0.2)

    @staticmethod
    def _iterates(monkeypatch, lg, outer, rho):
        """``(objective, rows, fixed_zero, tau)`` at the iterates of a
        polishing and a non-polishing solve, with the LP's rows, cuts
        included, at that iterate."""
        points = {}
        lps = []
        polish = trw._newton_polish
        line_function = TrwObjective.line_function

        class Recorded(Simplex):
            def __init__(self, n_vars, rows, *args):
                super().__init__(n_vars, rows, *args)
                self.held_rows = list(rows)   # the outer system's rows, cuts appended
                lps.append(self)

            def add_rows(self, rows):
                rows = list(rows)
                super().add_rows(rows)
                self.held_rows += rows

        def record(obj, lp, tau):
            points.setdefault((tau.tobytes(), lp.m),
                              (obj, list(lp.held_rows), lp.fixed_zero, tau.copy()))

        def polish_recorded(obj, lp, tau, active_tol, faces=None):
            record(obj, lp, tau)
            return polish(obj, lp, tau, active_tol, faces)

        def line_recorded(obj, x, delta):
            record(obj, lps[-1], x)
            return line_function(obj, x, delta)

        with monkeypatch.context() as mp:
            mp.setattr(trw, "Simplex", Recorded)
            mp.setattr(trw, "_newton_polish", polish_recorded)
            mp.setattr(TrwObjective, "line_function", line_recorded)
            for polish_on in (True, False):
                frank_wolfe(lg, outer=outer, rho=rho, tol=1e-6, max_iters=30,
                            polish=polish_on)
        return list(points.values())

    def _check_row_walk(self, monkeypatch, lg, outer, rho):
        """At Frank-Wolfe iterates, with the cycle rows found so far, the
        polish read from the LP's matrix returns the bytes (or None) of the
        polish that walks the rows.  Returns the iterates and the reference's
        bound releases."""
        points = self._iterates(monkeypatch, lg, outer, rho)
        found, released = [], []
        for obj, rows, fixed_zero, tau in points:
            lp = Simplex(obj.n_vars, rows, fixed_zero)
            faces = {}   # shared by every tolerance at this iterate
            for t in self.ACTIVE_TOLS:
                got = _candidate_bytes(trw._newton_polish(obj, lp, tau, t))
                want = _candidate_bytes(reference_newton_polish(obj, rows, fixed_zero,
                                                                tau, t, released))
                assert got == want, t
                assert _candidate_bytes(trw._newton_polish(obj, lp, tau, t,
                                                           faces)) == want, t
                found.append(got is not None)
        assert any(found)
        return points, released

    @pytest.mark.parametrize("outer", ["local", "cycle", "local+exch", "cycle+exch"])
    @pytest.mark.parametrize("name, n, w", [
        ("complete_graph", 4, -1.0), ("friends_smokers", 3, 1.0),
        ("clique_cycle", 3, 2.0), ("ring_pendant", 5, 3.0),
    ])
    def test_matches_row_walk_at_iterates(self, monkeypatch, name, n, w, outer):
        g = (lt.zoo.ring_pendant_model(scale=w) if name == "ring_pendant"
             else build(name, n, w))
        lg = lt.compute_orbits(g)
        points, _ = self._check_row_walk(monkeypatch, lg, outer, lt.init_rho_uniform(lg))
        row_counts = {len(rows) for _obj, rows, _fz, _tau in points}
        if outer.startswith("cycle") and name in ("clique_cycle", "ring_pendant"):
            assert len(row_counts) > 1   # iterates before and after cuts

    @pytest.mark.parametrize("outer", ["local+exch", "cycle+exch"])
    def test_matches_row_walk_through_bound_release(self, monkeypatch, outer):
        """At this rho some ``clique_cycle`` n=3 faces do not improve on
        ``tau`` with the cluster counts pinned, so the polish frees them and
        solves the face again; the row walk makes the same release."""
        rho = np.array([float.fromhex(h) for h in (
            "0x1.2f684bc8d1994p-2", "0x1.2f684bd4841adp-2", "0x1.2f684be469881p-2",
            "0x1.2f684bdc2e16cp-2", "0x1.2f684bd781346p-2", "0x1.2f684be4cd4bep-2")])
        lg = lt.compute_orbits(build("clique_cycle", 3, 2.0))
        _, released = self._check_row_walk(monkeypatch, lg, outer, rho)
        assert released

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
        np.testing.assert_allclose(trw._newton_polish(obj, lp, tau, 1e-3),
                                   expected, atol=1e-12)
        for t in self.ACTIVE_TOLS:
            assert (_candidate_bytes(trw._newton_polish(obj, lp, tau, t))
                    == _candidate_bytes(reference_newton_polish(obj, rows, fixed_zero,
                                                                tau, t))), t

    @pytest.mark.parametrize("start, kept", [((0.6, 0.2), True), ((0.45, 0.2), False)])
    def test_negative_rhs_row_left_off_its_face(self, start, kept):
        """With ``theta_1 = -1e6`` every Newton step is cut short at
        ``x_1 >= 0``, so the active row ``-x0 <= -0.5`` is left as ``x0``
        started: kept when that satisfies ``x0 >= 0.5``, refused otherwise."""
        rows = [Row.make({0: -1.0}, "<=", -0.5)]
        lp = Simplex(2, rows)
        obj = SimpleNamespace(n_vars=2, theta=np.array([0.0, -1e6]), w=-np.ones(2))
        fixed_zero = np.zeros(2, dtype=bool)
        tau = np.array(start)
        cand = trw._newton_polish(obj, lp, tau, 0.2)
        assert (cand is not None) == kept
        if kept:
            assert abs(cand[0] - start[0]) < 1e-5
        assert (_candidate_bytes(cand) == _candidate_bytes(
            reference_newton_polish(obj, rows, fixed_zero, tau, 0.2)))

    def test_gap_termination_off_the_equality_rows_raises(self, monkeypatch):
        """A polish that lands 1e-6 off a normalization row, uphill, is
        adopted and certified by the gap; the residual check refuses it."""
        lg = lt.compute_orbits(build("complete_graph", 4, -1.0))
        rho = lt.init_rho_uniform(lg)
        clean = frank_wolfe(lg, outer="local", rho=rho, tol=1e-5, max_iters=200)
        assert clean.converged and clean.stats["eq_residual"] <= 1e-12
        polish = trw._newton_polish

        def off_face(obj, lp, tau, active_tol, faces=None):
            cand = polish(obj, lp, tau, active_tol, faces)
            if cand is not None:
                cand = cand.copy()
                cand[0] += 1e-6 * np.sign(obj.grad(cand)[0])
            return cand

        monkeypatch.setattr(trw, "_newton_polish", off_face)
        with pytest.raises(RuntimeError, match="off the equality rows"):
            frank_wolfe(lg, outer="local", rho=rho, tol=1e-5, max_iters=200)


# ---------------------------------------------------------------------------
# One face solve per active set per polish attempt
# ---------------------------------------------------------------------------

class _NoMemo(dict):
    """A face dict that keeps nothing, so every face is solved afresh."""

    def __setitem__(self, key, value):
        pass


def _solve_bytes(res):
    return (np.float64(res.bound).tobytes(), np.float64(res.objective).tobytes(),
            res.tau.tobytes(), np.array(res.gap_trace).tobytes(), res.iterations,
            res.lp_pivots, res.n_cuts, res.termination)


class TestFaceMemo:
    @staticmethod
    def _lifted(name, n, w):
        g = (lt.zoo.ring_pendant_model(scale=w) if name == "ring_pendant"
             else build(name, n, w))
        return lt.compute_orbits(g)

    @pytest.mark.parametrize("outer", ["local", "cycle", "local+exch", "cycle+exch"])
    @pytest.mark.parametrize("name, n, w", [
        ("complete_graph", 4, -1.0), ("friends_smokers", 3, 1.0),
        ("clique_cycle", 3, 2.0), ("ring_pendant", 5, 3.0),
    ])
    def test_no_face_solved_twice_per_attempt(self, monkeypatch, name, n, w, outer):
        """Within one polish attempt, over all its tolerances and cut rounds,
        no two face solves get byte-equal inputs; the counters count the
        solves run and the failed ones."""
        lg = self._lifted(name, n, w)
        polish, face_newton = trw._newton_polish, trw._face_newton
        attempts = []   # (face dict, inputs of each face solve) per attempt
        failed = []

        def polish_traced(obj, lp, tau, active_tol, faces=None):
            if not attempts or attempts[-1][0] is not faces:
                attempts.append((faces, []))
            return polish(obj, lp, tau, active_tol, faces)

        def face_traced(obj, free, E, b_e, tau):
            attempts[-1][1].append((free.tobytes(), E.shape, E.tobytes(),
                                    b_e.tobytes(), tau.tobytes()))
            x = face_newton(obj, free, E, b_e, tau)
            failed.append(x is None)
            return x

        monkeypatch.setattr(trw, "_newton_polish", polish_traced)
        monkeypatch.setattr(trw, "_face_newton", face_traced)
        res = frank_wolfe(lg, outer=outer, rho=lt.init_rho_uniform(lg), tol=1e-6,
                          max_iters=30)
        assert attempts and len(attempts) == res.stats["polish_tries"]
        for _faces, inputs in attempts:
            assert len(set(inputs)) == len(inputs)
        assert res.stats["polish_faces"] == len(failed) > 0
        assert res.stats["polish_face_failures"] == sum(failed)

    @pytest.mark.parametrize("outer", ["local", "cycle", "local+exch", "cycle+exch"])
    @pytest.mark.parametrize("name, n, w", [
        ("complete_graph", 4, -1.0), ("friends_smokers", 3, 1.0),
        ("clique_cycle", 3, 2.0), ("ring_pendant", 5, 3.0),
    ])
    def test_defeated_memo_gives_same_bytes(self, monkeypatch, name, n, w, outer):
        """Solving every face afresh, as without the memo, returns the bytes
        of the memoized solve."""
        lg = self._lifted(name, n, w)
        rho = lt.init_rho_uniform(lg)
        shared = frank_wolfe(lg, outer=outer, rho=rho, tol=1e-6, max_iters=30)
        polish = trw._newton_polish

        def unshared(obj, lp, tau, active_tol, faces=None):
            return polish(obj, lp, tau, active_tol, _NoMemo())

        monkeypatch.setattr(trw, "_newton_polish", unshared)
        alone = frank_wolfe(lg, outer=outer, rho=rho, tol=1e-6, max_iters=30)
        assert _solve_bytes(alone) == _solve_bytes(shared)
        assert alone.stats["polish_faces"] == 0 < shared.stats["polish_faces"]

    def test_released_faces_memoized_exactly(self, monkeypatch):
        """At these rho (those of ``test_exch_certifies_at_non_uniform_rho``)
        some face is solved again from its point with the cluster counts
        freed; solving every face afresh gives the bytes of the memoized
        solve, since the memo key holds the pinned columns and the start."""
        lg = self._lifted("clique_cycle", 16, -0.5)
        uniform = lt.init_rho_uniform(lg)
        polish, face_newton = trw._newton_polish, trw._face_newton
        taus, released = [], []

        def polish_traced(obj, lp, tau, active_tol, faces=None):
            taus.append(tau)
            return polish(obj, lp, tau, active_tol, faces)

        def face_traced(obj, free, E, b_e, start):
            released.append(start.tobytes() != taus[-1].tobytes())
            return face_newton(obj, free, E, b_e, start)

        def unshared(obj, lp, tau, active_tol, faces=None):
            return polish_traced(obj, lp, tau, active_tol, _NoMemo())

        monkeypatch.setattr(trw, "_face_newton", face_traced)
        for weights in ((3, 2, 6, 5, 4, 1), (5, 6, 2, 4, 1, 3), (1, 3, 5, 6, 2, 4)):
            rho = 0.5 * uniform + 0.5 * lt.lifted_kruskal(lg, np.array(weights, dtype=float))
            with monkeypatch.context() as mp:
                mp.setattr(trw, "_newton_polish", polish_traced)
                shared = frank_wolfe(lg, outer="local+exch", rho=rho, tol=1e-5, max_iters=200)
                mp.setattr(trw, "_newton_polish", unshared)
                alone = frank_wolfe(lg, outer="local+exch", rho=rho, tol=1e-5, max_iters=200)
            assert _solve_bytes(alone) == _solve_bytes(shared), weights
        assert any(released)

"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criteria 1, 2, 4, 6, and 10 also assert their runtime budgets.
"""

import time

import numpy as np

import liftedtrw as lt
from liftedtrw.trw import TrwObjective, entropy_coefficients

from conftest import build, edge_orbit_tags, expand_rho, members

ALL_RUNS = []  # (label, TrwResult, tol) collected for the convergence criterion


def report(num, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:>2}] {flag}: {detail}")
    assert ok, detail


def run_fw(lg, outer, rho, tol, max_iters, label):
    res = lt.frank_wolfe(lg, outer=outer, rho=rho, tol=tol, max_iters=max_iters)
    ALL_RUNS.append((label, res, tol))
    return res


def run_ground(g, rho_ground, outer, tol, max_iters, label):
    res = lt.ground_trw(g, rho_ground, outer=outer, tol=tol, max_iters=max_iters)
    ALL_RUNS.append((label, res, tol))
    return res


def test_01_lifting_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    cases = []
    for scale in (-1.0, -0.5, 0.5, 1.0, 2.0):
        g = lt.zoo.ring_pendant_model(scale=scale)
        cases.append((f"ring[{scale}]", g))
    for w in (0.5, 1.0, 1.5, 2.0, 2.5):
        cases.append((f"cc3[{w}]", build("clique_cycle", 3, w)))
    for label, g in cases:
        lg = lt.compute_orbits(g)
        rho = lt.init_rho_uniform(lg)
        rho_g = expand_rho(lg, rho)
        for outer in ("local", "cycle"):
            a = run_fw(lg, outer, rho, 1e-6, 20000, f"c1-{label}-{outer}-lifted")
            b = run_ground(g, rho_g, outer, 1e-6, 20000, f"c1-{label}-{outer}-ground")
            diff = abs(a.bound - b.bound)
            worst = max(worst, diff)
            assert diff <= 1e-5, (label, outer, diff)
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-5 and elapsed < 30.0,
           f"lifted vs ground bound, 2 models x 2 outers x 5 weights: "
           f"max |diff| = {worst:.2e} (tol 1e-5), {elapsed:.1f}s (< 30s)")


def test_02_upper_bound_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_deficit = -np.inf
    n_runs = 0
    for name, n in (("complete_graph", 3), ("complete_graph", 4),
                    ("friends_smokers", 2), ("friends_smokers", 3),
                    ("clique_cycle", 3)):
        for w in np.linspace(-2.0, 2.0, 10):
            g = build(name, n, float(w))
            lg = lt.compute_orbits(g)
            ex = lt.brute_force(g)
            rho = lt.init_rho_uniform(lg)
            for outer in lt.OUTER_CHOICES:
                res = run_fw(lg, outer, rho, 1e-4, 1000,
                             f"c2-{name}{n}-{w:.2f}-{outer}")
                worst_deficit = max(worst_deficit, ex.log_z - res.bound)
                n_runs += 1
                assert res.bound >= ex.log_z - 1e-8, (name, n, w, outer)
    elapsed = time.perf_counter() - t0
    report(2, worst_deficit <= 1e-8 and elapsed < 300.0,
           f"{n_runs} runs: worst (logZ - bound) = {worst_deficit:.2e} "
           f"(tol 1e-8), {elapsed:.1f}s (< 300s)")


def test_03_worked_example(ring_lifted):
    lg = ring_lifted
    by_tag = {tag: i for i, tag in enumerate(edge_orbit_tags(lg))}
    core = next(o.id for o in lg.node_orbits
                if lg.model.nodes[o.rep].label == "B")
    pend = next(o.id for o in lg.node_orbits
                if lg.model.nodes[o.rep].label == "R")
    rho = np.zeros(3)
    rho[by_tag["stem"]] = 1.0
    rho[by_tag["ring"]] = 2.0 / 5.0
    rho[by_tag["chord"]] = 2.0 / 5.0
    node_coefs, edge_coefs = entropy_coefficients(lg, rho)
    exact = (node_coefs[core] == 8.0 and node_coefs[pend] == 0.0
             and edge_coefs[by_tag["stem"]] == -5.0
             and edge_coefs[by_tag["ring"]] == -2.0
             and edge_coefs[by_tag["chord"]] == -2.0)

    rho_init = lt.init_rho_uniform(lg)
    init_err = max(abs(rho_init[by_tag["stem"]] - 1.0),
                   abs(rho_init[by_tag["ring"]] - 0.4),
                   abs(rho_init[by_tag["chord"]] - 0.4))
    report(3, exact and init_err <= 1e-6,
           f"entropy coefficients exactly (8, 0, -5, -2, -2): {exact}; "
           f"most-uniform rho error {init_err:.2e} (tol 1e-6)")


def test_04_exchangeable_exactness():
    t0 = time.perf_counter()
    n = 10
    max_err_le, max_err_l = 0.0, 0.0
    bound_ok = True
    for w in np.linspace(-2.0, 2.0, 9):
        g = build("complete_graph", n, float(w))
        lg = lt.compute_orbits(g)
        rho = lt.init_rho_uniform(lg)
        log_z, marg = lt.counting_elimination_complete(n, float(w), -0.1)
        le = run_fw(lg, "local+exch", rho, 1e-6, 2000, f"c4-le-{w:.2f}")
        lo = run_fw(lg, "local", rho, 1e-6, 2000, f"c4-l-{w:.2f}")
        max_err_le = max(max_err_le, abs(le.node_marginals[0][1] - marg))
        max_err_l = max(max_err_l, abs(lo.node_marginals[0][1] - marg))
        if abs(le.bound - log_z) > 0.05 * abs(log_z) + 0.5:
            bound_ok = False
    elapsed = time.perf_counter() - t0
    ok = (max_err_le <= 0.02 and bound_ok and max_err_l > max_err_le
          and elapsed < 120.0)
    report(4, ok,
           f"n=10 marginal error: local+exch {max_err_le:.4f} (tol 0.02), "
           f"local {max_err_l:.4f} (strictly worse); bounds within "
           f"0.05|logZ|+0.5: {bound_ok}; {elapsed:.1f}s (< 120s)")


def test_05_monotone_tightening():
    worst = -np.inf
    rows = 0
    for name, n, w_grid in (("complete_graph", 4, np.linspace(-2, 2, 9)),
                            ("clique_cycle", 3, np.linspace(0.5, 2.5, 5))):
        for w in w_grid:
            g = build(name, n, float(w))
            lg = lt.compute_orbits(g)
            rho = lt.init_rho_uniform(lg)
            bounds = {}
            for outer in lt.OUTER_CHOICES:
                bounds[outer] = run_fw(lg, outer, rho, 1e-6, 20000,
                                       f"c5-{name}-{w:.2f}-{outer}").bound
            rows += 4
            worst = max(worst,
                        bounds["local+exch"] - bounds["local"] - 1e-7,
                        bounds["cycle+exch"] - bounds["local+exch"] - 1e-7,
                        bounds["cycle"] - bounds["local"] - 1e-7)
            assert bounds["local"] >= bounds["local+exch"] - 1e-7, (name, w)
            assert bounds["local+exch"] >= bounds["cycle+exch"] - 1e-7, (name, w)
            assert bounds["local"] >= bounds["cycle"] - 1e-7, (name, w)
    report(5, worst <= 0.0,
           f"{rows} sweep rows ordered local >= local+exch >= cycle+exch and "
           f"local >= cycle, each within 1e-7 (worst residual {worst:.2e})")


def test_06_lifted_kruskal():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    tree_ok = True
    graphs = [lt.zoo.ring_pendant_model(),
              build("clique_cycle", 3, 1.0),
              build("clique_cycle", 5, 1.0),
              build("complete_graph", 6, -1.0)]
    count = 0
    for g in graphs:
        lg = lt.compute_orbits(g)
        for _ in range(50):
            w = rng.normal(size=len(lg.edge_orbits))
            rho = lt.lifted_kruskal(lg, w)
            lifted = lt.lifted_mst_value(lg, w, rho)
            ground, _ = lt.ground_kruskal(g, expand_rho(lg, w))
            worst = max(worst, abs(lifted - ground))
            if abs(lt.tree_edge_total(lg, rho) - (len(g.nodes) - 1)) > 1e-9:
                tree_ok = False
            count += 1
    elapsed = time.perf_counter() - t0
    report(6, worst <= 1e-9 and tree_ok and elapsed < 10.0,
           f"{count} weightings: max |MST value diff| = {worst:.2e}; "
           f"edge totals |V|-1: {tree_ok}; {elapsed:.1f}s (< 10s)")


def test_07_symmetrization(ring_model, ring_lifted):
    lg = ring_lifted
    rng = np.random.default_rng(7)
    worst = -np.inf
    for _ in range(20):
        rho_g = lt.random_tree_point(ring_model, rng)
        rho_avg = np.zeros(len(lg.edge_orbits))
        for eo in lg.edge_orbits:
            rho_avg[eo.id] = float(np.mean([rho_g[k] for k in members(lg.edge_orbit_of, eo.id)]))
        sym = run_ground(ring_model, expand_rho(lg, rho_avg), "local",
                         1e-6, 20000, "c7-sym")
        raw = run_ground(ring_model, rho_g, "local", 1e-6, 20000, "c7-raw")
        worst = max(worst, sym.objective - raw.bound)
        assert sym.objective <= raw.bound + 1e-6
    report(7, worst <= 1e-6,
           f"20 tree-polytope points: max (symmetrized - raw) bound gap "
           f"{worst:.2e} (tol 1e-6)")


def test_08_exchangeable_identities():
    worst = 0.0
    for n in (3, 5, 8):
        for seed in range(20):
            m, c, _ = lt.random_exchangeable_moments(n, seed)
            denom = n * (n - 1)
            k = np.arange(n + 1)
            worst = max(
                worst,
                abs(float(((n - k) * (n - k - 1) / denom) @ c) - m["e00"]),
                abs(float((k * (k - 1) / denom) @ c) - m["e11"]),
                abs(float((k * (n - k) / denom) @ c) - m["a01"]))
    report(8, worst <= 1e-12,
           f"60 symmetrized distributions: max count-consistency residual "
           f"{worst:.2e} (tol 1e-12)")


def test_09_gradient_check(ring_model, ring_lifted):
    lg = ring_lifted
    rho = lt.init_rho_uniform(lg)
    obj = TrwObjective(lg, rho)
    from test_trw import interior_point
    worst = 0.0
    for seed in range(20):
        tau = interior_point(lg, seed)
        grad = obj.theta - obj.grad(tau)  # entropy-bound gradient
        step = 1e-6
        for j in range(lg.n_vars):
            e = np.zeros(lg.n_vars)
            e[j] = step
            fd = (lt.lifted_entropy_bound(tau + e, rho, lg)
                  - lt.lifted_entropy_bound(tau - e, rho, lg)) / (2 * step)
            worst = max(worst, abs(grad[j] - fd) / max(1.0, abs(fd)))
    report(9, worst <= 1e-5,
           f"20 interior points: max relative gradient error {worst:.2e} "
           f"(tol 1e-5)")


def test_10_speedup_direction():
    # identical settings on both sides; the small fixed budget keeps the
    # (slow) ground run affordable, the ratio is what is asserted
    tol, iters = 1e-4, 15
    g = build("complete_graph", 30, -1.0)
    lg = lt.compute_orbits(g)
    rho = lt.init_rho_uniform(lg)
    rho_g = expand_rho(lg, rho)
    t0 = time.perf_counter()
    lifted = lt.frank_wolfe(lg, outer="local", rho=rho, tol=tol, max_iters=iters)
    t_lifted = time.perf_counter() - t0
    t0 = time.perf_counter()
    ground = lt.ground_trw(g, rho_g, outer="local", tol=tol, max_iters=iters)
    t_ground = time.perf_counter() - t0
    ratio = t_ground / max(t_lifted, 1e-9)

    t0 = time.perf_counter()
    g200 = build("complete_graph", 200, -1.0)
    lg200 = lt.compute_orbits(g200)
    rho200 = lt.init_rho_uniform(lg200)
    res200 = run_fw(lg200, "local", rho200, 1e-4, 1000, "c10-n200")
    t200 = time.perf_counter() - t0
    report(10, ratio >= 10.0 and t200 < 60.0,
           f"n=30 local: lifted {t_lifted * 1e3:.1f}ms vs ground "
           f"{t_ground:.1f}s ({ratio:.0f}x, need >= 10x); n=200 lifted "
           f"pipeline {t200:.1f}s (< 60s)")


def test_11_convergence_contract():
    assert ALL_RUNS, "earlier criteria populate the run log"
    bad = []
    for label, res, tol in ALL_RUNS:
        terminated_ok = (res.converged and res.gap_trace[-1] <= tol) or (
            not res.converged and res.iterations >= 1)
        trace = np.array(res.objective_trace)
        monotone = bool((np.diff(trace) >= -1e-12).all()) if trace.size else True
        if not (terminated_ok and monotone):
            bad.append(label)
    report(11, not bad,
           f"{len(ALL_RUNS)} runs: every run ends with gap <= tol or reports "
           f"the iteration limit, objective traces non-decreasing"
           + (f"; offenders: {bad[:5]}" if bad else ""))

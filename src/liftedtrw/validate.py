"""Self-contained cross-check suite behind the ``validate`` CLI subcommand.

Each check pits an orbit-level computation against a ground-level reference
at desk scale.  Checks return (ok, detail) and never raise on mismatch.
"""

from __future__ import annotations

import numpy as np

from . import oracle, spanning, trw, zoo
from .polytope import detect_exchangeable_clusters
from .symmetry import compute_orbits, verify_orbits


def check_orbit_enumeration():
    g = zoo.build_model("complete_graph", 5, w_value=-1.0)
    rep = verify_orbits(compute_orbits(g), g)
    g2 = zoo.ring_pendant_model()
    rep2 = verify_orbits(compute_orbits(g2), g2)
    ok = rep.ok and rep2.ok and rep2.group_size == 10
    return ok, f"group sizes {rep.group_size}, {rep2.group_size}"


def check_counting_elimination():
    worst = 0.0
    for n in (3, 6, 9):
        for w in (-1.5, 0.0, 1.0):
            g = zoo.build_model("complete_graph", n, w_value=w)
            ex = oracle.brute_force(g)
            log_z, _ = oracle.counting_elimination_complete(n, w, -0.1)
            worst = max(worst, abs(ex.log_z - log_z))
    return worst < 1e-10, f"max |logZ| mismatch {worst:.2e}"


def check_lifted_mst():
    rng = np.random.default_rng(7)
    worst = 0.0
    for g in (zoo.ring_pendant_model(), zoo.build_model("clique_cycle", 3, w_value=1.0)):
        lg = compute_orbits(g)
        for _ in range(10):
            w = rng.normal(size=len(lg.edge_orbits))
            rho = spanning.lifted_kruskal(lg, w)
            lifted = spanning.lifted_mst_value(lg, w, rho)
            ground, _ = oracle.ground_kruskal(g, w[lg.edge_orbit_of])
            worst = max(worst, abs(lifted - ground))
    return worst < 1e-9, f"max MST value mismatch {worst:.2e}"


def check_upper_bound(n=4):
    g = zoo.build_model("complete_graph", n, w_value=-1.0)
    lg = compute_orbits(g)
    ex = oracle.brute_force(g)
    rho = spanning.init_rho_uniform(lg)
    worst = -np.inf
    for outer in ("local", "cycle", "local+exch", "cycle+exch"):
        res = trw.frank_wolfe(lg, outer=outer, rho=rho, tol=1e-5, max_iters=2000)
        worst = max(worst, ex.log_z - res.bound)
    return worst < 1e-8, f"worst bound deficit {worst:.2e}"


def check_lifting_equivalence():
    g = zoo.ring_pendant_model()
    lg = compute_orbits(g)
    rho = spanning.init_rho_uniform(lg)
    a = trw.frank_wolfe(lg, outer="local", rho=rho, tol=1e-6, max_iters=20000)
    b = oracle.ground_trw(g, rho[lg.edge_orbit_of], outer="local",
                          tol=1e-6, max_iters=20000)
    diff = abs(a.bound - b.bound)
    return diff < 1e-5, f"lifted vs ground bound differ by {diff:.2e}"


def check_exchangeable_identities():
    worst = 0.0
    for n in (3, 5):
        for seed in range(5):
            m, c, _ = oracle.random_exchangeable_moments(n, seed)
            denom = n * (n - 1)
            k = np.arange(n + 1)
            e00 = float(((n - k) * (n - k - 1) / denom) @ c)
            e11 = float((k * (k - 1) / denom) @ c)
            a01 = float((k * (n - k) / denom) @ c)
            worst = max(worst, abs(e00 - m["e00"]), abs(e11 - m["e11"]),
                        abs(a01 - m["a01"]))
    return worst < 1e-12, f"max identity residual {worst:.2e}"


def check_cluster_detection():
    g = zoo.build_model("complete_graph", 5, w_value=-1.0)
    c1 = detect_exchangeable_clusters(compute_orbits(g))
    g2 = zoo.ring_pendant_model()
    c2 = detect_exchangeable_clusters(compute_orbits(g2))
    ok = len(c1) == 1 and c1[0].size == 5 and len(c2) == 0
    return ok, f"complete graph {len(c1)} cluster(s), ring model {len(c2)}"


def check_most_uniform_rho():
    g = zoo.ring_pendant_model()
    lg = compute_orbits(g)
    rho = spanning.init_rho_uniform(lg)
    by_tag = {tag: rho[oid] for tag, oid in zip(g.edge_tags, lg.edge_orbit_of.tolist())}
    ok = (abs(by_tag["stem"] - 1.0) < 1e-6
          and abs(by_tag["ring"] - 0.4) < 1e-6
          and abs(by_tag["chord"] - 0.4) < 1e-6)
    shown = {k: round(float(v), 6) for k, v in by_tag.items()}
    return ok, f"rho = {shown}"


CHECKS = [
    ("orbit enumeration matches the computed orbits", check_orbit_enumeration),
    ("counting elimination matches brute force", check_counting_elimination),
    ("lifted MST value matches ground Kruskal", check_lifted_mst),
    ("bounds dominate exact log-partition", check_upper_bound),
    ("lifted and ground TRW bounds agree", check_lifting_equivalence),
    ("exchangeable moment identities hold", check_exchangeable_identities),
    ("exchangeable cluster detection", check_cluster_detection),
    ("most-uniform edge appearances", check_most_uniform_rho),
]


def run_checks(verbose=False):
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the table
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return results

"""Outer-bound constraint tests: projection equivalence, exchangeable
consistency with brute-force symmetrized distributions, and cycle-inequality
separation checked against exhaustive enumeration."""

import copy
import dataclasses
import heapq
import itertools

import numpy as np
import pytest

import liftedtrw as lt
from liftedtrw import polytope, trw
from liftedtrw.lpsolve import Row, Simplex
from liftedtrw.polytope import (CUT_BATCH, CYCLE_VIOLATION_TOL,
                                NotExchangeable, build_outer_system,
                                detect_exchangeable_clusters,
                                exchangeable_constraints, lifted_local,
                                separate_cycles)
from conftest import build, ground_local_feasible, symmetrized_random_moments


def lifted_feasible(cs, x, tol=1e-7):
    x = np.asarray(x)
    if (x < -tol).any():
        return False
    for row in cs.rows:
        val = sum(c * x[j] for j, c in row.coeffs)
        if row.rel == "=" and abs(val - row.rhs) > tol:
            return False
        if row.rel == "<=" and val > row.rhs + tol:
            return False
    return True


class TestLiftedLocal:
    def test_ring_stem_rows_present(self, ring_model, ring_lifted):
        """Both marginalization identities of the stem orbit must appear."""
        lg = ring_lifted
        cs = lifted_local(lg)
        stem = next(eo for eo in lg.edge_orbits if eo.key[0] == "stem")
        core = stem.u_orbit if lg.model.nodes[
            lg.node_orbits[stem.u_orbit].rep].label == "B" else stem.v_orbit
        pend = stem.v_orbit if core == stem.u_orbit else stem.u_orbit
        if core == stem.u_orbit:
            row_core = {lg.edge_var(stem.id, 0, 0): 1.0,
                        lg.edge_var(stem.id, 0, 1): 1.0,
                        lg.node_var(core, 0): -1.0}
            row_pend = {lg.edge_var(stem.id, 0, 0): 1.0,
                        lg.edge_var(stem.id, 1, 0): 1.0,
                        lg.node_var(pend, 0): -1.0}
        else:
            row_core = {lg.edge_var(stem.id, 0, 0): 1.0,
                        lg.edge_var(stem.id, 1, 0): 1.0,
                        lg.node_var(core, 0): -1.0}
            row_pend = {lg.edge_var(stem.id, 0, 0): 1.0,
                        lg.edge_var(stem.id, 0, 1): 1.0,
                        lg.node_var(pend, 0): -1.0}
        keys = {r.canonical_key() for r in cs.rows}
        from liftedtrw.lpsolve import Row
        assert Row.make(row_core, "=", 0.0).canonical_key() in keys
        assert Row.make(row_pend, "=", 0.0).canonical_key() in keys

    def test_flip_merged_normalization_identity(self):
        """e00 + e11 + 2 a01 = 1 must be implied by the emitted rows."""
        g = build("complete_graph", 4, -1.0)
        lg = lt.compute_orbits(g)
        cs = lifted_local(lg)
        eo = lg.edge_orbits[0]
        rng = np.random.default_rng(0)
        for seed in range(20):
            tau = symmetrized_random_moments(g, lg, seed)
            assert lifted_feasible(cs, tau)
            total = (tau[lg.edge_var(eo.id, 0, 0)] + tau[lg.edge_var(eo.id, 1, 1)]
                     + 2 * tau[lg.edge_var(eo.id, 0, 1)])
            assert abs(total - 1.0) < 1e-9

    def test_single_orbit_normalization(self):
        g = lt.ground(lt.parse_model("W V(x)").bind_weight(1.0), 3)
        lg = lt.compute_orbits(g)
        cs = lifted_local(lg)
        assert len(cs.rows) == 1
        assert cs.rows[0].rel == "="


class TestProjectionEquivalence:
    @pytest.mark.parametrize("name,n,w", [
        ("complete_graph", 5, -1.0),
        ("clique_cycle", 3, 1.5),
        ("friends_smokers", 2, -0.8),
    ])
    def test_lifted_iff_ground(self, name, n, w):
        g = build(name, n, w)
        lg = lt.compute_orbits(g)
        cs = lifted_local(lg)
        rng = np.random.default_rng(42)
        agree = 0
        for trial in range(120):
            if trial % 3 == 0:
                tau = symmetrized_random_moments(g, lg, trial)
            elif trial % 3 == 1:
                tau = rng.random(lg.n_vars)
            else:
                tau = symmetrized_random_moments(g, lg, trial)
                tau = tau + rng.normal(scale=0.05, size=lg.n_vars)
            lifted_ok = lifted_feasible(cs, tau) and not (
                tau[lg.structural_zero_var] > 1e-7).any()
            ground_ok = ground_local_feasible(g, lg.expand(tau))
            assert lifted_ok == ground_ok
            agree += 1
        assert agree == 120


class TestExchangeable:
    def test_uniform_n3(self):
        g = build("complete_graph", 3, 0.0)
        lg = lt.compute_orbits(g)
        rows, n = exchangeable_constraints(lg, 0, lg.n_vars)
        assert n == 3
        eo = lg.edge_orbits[0]
        x = np.zeros(lg.n_vars + 4)
        x[lg.edge_var(eo.id, 0, 0)] = 0.25
        x[lg.edge_var(eo.id, 1, 1)] = 0.25
        x[lg.edge_var(eo.id, 0, 1)] = 0.25
        x[lg.n_vars:] = [1 / 8, 3 / 8, 3 / 8, 1 / 8]
        for row in rows:
            val = sum(c * x[j] for j, c in row.coeffs)
            assert abs(val - row.rhs) < 1e-12

    def test_point_mass_n2(self):
        g = build("complete_graph", 2, 0.0)
        lg = lt.compute_orbits(g)
        rows, n = exchangeable_constraints(lg, 0, lg.n_vars)
        eo = lg.edge_orbits[0]
        x = np.zeros(lg.n_vars + 3)
        x[lg.edge_var(eo.id, 1, 1)] = 1.0
        x[lg.n_vars + 2] = 1.0  # all mass on the two-ones class
        for row in rows:
            val = sum(c * x[j] for j, c in row.coeffs)
            assert abs(val - row.rhs) < 1e-12

    def test_random_exchangeable_n4(self):
        g = build("complete_graph", 4, 0.0)
        lg = lt.compute_orbits(g)
        rows, n = exchangeable_constraints(lg, 0, lg.n_vars)
        eo = lg.edge_orbits[0]
        for seed in range(10):
            moments, c, marg1 = lt.random_exchangeable_moments(4, seed)
            x = np.zeros(lg.n_vars + 5)
            x[lg.edge_var(eo.id, 0, 0)] = moments["e00"]
            x[lg.edge_var(eo.id, 1, 1)] = moments["e11"]
            x[lg.edge_var(eo.id, 0, 1)] = moments["a01"]
            x[lg.n_vars:] = c
            for row in rows:
                val = sum(cc * x[j] for j, cc in row.coeffs)
                assert abs(val - row.rhs) < 1e-12

    @pytest.mark.parametrize("name, n", [("complete_graph", 4), ("clique_cycle", 3),
                                         ("clique_cycle", 5)])
    def test_rows_independent_and_imply_count_normalization(self, name, n):
        """The Newton polish needs independent equality rows; sum_k c_k = 1 is
        implied by them, so it must not be a row of its own."""
        system = build_outer_system(lt.compute_orbits(build(name, n, 1.0)), "local+exch")
        assert system.clusters and all(row.rel == "=" for row in system.cs.rows)
        E = np.zeros((len(system.cs.rows), system.n_vars))
        for i, row in enumerate(system.cs.rows):
            for j, c in row.coeffs:
                E[i, j] = c
        assert np.linalg.matrix_rank(E) == len(E)
        for cl in system.clusters:
            ones = np.zeros((1, system.n_vars))
            ones[0, cl.c_offset:cl.c_offset + cl.size + 1] = 1.0
            assert np.linalg.matrix_rank(np.vstack([E, ones])) == len(E)

    def test_not_exchangeable_raises(self, ring_model, ring_lifted):
        for orb in ring_lifted.node_orbits:
            with pytest.raises(NotExchangeable):
                exchangeable_constraints(ring_lifted, orb.id, ring_lifted.n_vars)


class TestClusterDetection:
    def test_complete_graph(self):
        g = build("complete_graph", 6, -1.0)
        lg = lt.compute_orbits(g)
        clusters = detect_exchangeable_clusters(lg)
        assert len(clusters) == 1
        assert clusters[0].size == 6

    def test_ring_model_has_none(self, ring_lifted):
        assert detect_exchangeable_clusters(ring_lifted) == []

    def test_no_unary_predicate(self):
        tm = lt.parse_model("0.5 [x != y ^ Friends(x,y)]")
        g = lt.ground(tm, 3)
        lg = lt.compute_orbits(g)
        assert detect_exchangeable_clusters(lg) == []

    def test_clique_cycle_clusters(self):
        g = build("clique_cycle", 3, 1.0)
        lg = lt.compute_orbits(g)
        clusters = detect_exchangeable_clusters(lg)
        assert len(clusters) == 3
        assert all(c.size == 3 for c in clusters)

    def test_friends_smokers_has_none(self):
        # no direct edges inside the unary orbits (influence runs through
        # auxiliary nodes), so the cluster system does not attach
        g = build("friends_smokers", 3, -1.0)
        lg = lt.compute_orbits(g)
        assert detect_exchangeable_clusters(lg) == []


def pair_scan_clusters(lg):
    """Clusters by definition: a unary binary-atom node orbit of two or more
    members, every member pair joined by a ground edge, and all those edges
    in one flip-symmetric edge orbit of n(n-1)/2 edges."""
    model = lg.model
    out = []
    for orb in lg.node_orbits:
        nd = model.nodes[orb.rep]
        if nd.kind != "atom" or nd.n_values != 2 or len(nd.consts) != 1 or orb.size < 2:
            continue
        edges = [model.edge_index.get((a, b))
                 for a, b in itertools.combinations(sorted(orb.members), 2)]
        if None in edges:
            continue
        eo_ids = {int(lg.edge_orbit_of[k]) for k in edges}
        if len(eo_ids) != 1:
            continue
        eo = lg.edge_orbits[eo_ids.pop()]
        if eo.flip and eo.size == len(edges):
            out.append(polytope.Cluster(orb.id, eo.id, orb.size))
    return out


class TestClusterReference:
    @pytest.mark.parametrize("name", ["complete_graph", "friends_smokers", "clique_cycle"])
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_bundled_models_match_pair_scan(self, name, n):
        lg = lt.compute_orbits(build(name, n, 0.5))
        pairs = [(u, v) for u, v in lg.model.edges.tolist()]
        assert all(u != v for u, v in pairs) and len(set(pairs)) == len(pairs)
        clusters = detect_exchangeable_clusters(lg)
        assert clusters == pair_scan_clusters(lg)
        assert bool(clusters) == (name != "friends_smokers" and n > 1)
        clustered = {cl.node_orbit for cl in clusters}
        for orb in lg.node_orbits:
            if orb.id not in clustered:
                with pytest.raises(NotExchangeable):
                    exchangeable_constraints(lg, orb.id, lg.n_vars)

    def test_ring_pendant_matches_pair_scan(self, ring_lifted):
        """The core orbit has two flip-symmetric internal edge orbits, ring
        and chord, of 5 edges each; neither covers its 10 pairs."""
        core = [eo for eo in ring_lifted.edge_orbits if eo.u_orbit == eo.v_orbit]
        assert [(eo.flip, eo.size) for eo in core] == [(True, 5), (True, 5)]
        assert detect_exchangeable_clusters(ring_lifted) == pair_scan_clusters(ring_lifted) == []

    def test_orbit_without_flip_is_no_cluster(self):
        """An internal edge orbit covering every pair but not flip-symmetric
        (built by hand: grounding makes every such orbit flip-symmetric)."""
        lg = lt.compute_orbits(build("complete_graph", 6, 0.5))
        assert len(detect_exchangeable_clusters(lg)) == 1
        unflipped = copy.copy(lg)
        unflipped.edge_orbits = [dataclasses.replace(eo, flip=False) for eo in lg.edge_orbits]
        assert detect_exchangeable_clusters(unflipped) == pair_scan_clusters(unflipped) == []


class TestSoundness:
    @pytest.mark.parametrize("name,n,w", [
        ("complete_graph", 4, -1.0), ("clique_cycle", 3, 2.0),
    ])
    def test_symmetrized_moments_feasible_everywhere(self, name, n, w):
        g = build(name, n, w)
        lg = lt.compute_orbits(g)
        system = build_outer_system(lg, "cycle+exch")
        for seed in range(8):
            tau = symmetrized_random_moments(g, lg, seed)
            x = np.concatenate([tau, np.zeros(system.n_vars - lg.n_vars)])
            # recover the exact cluster count distribution from brute force
            for cl in system.clusters:
                members = lg.node_orbits[cl.node_orbit].members
                probs = _count_distribution(g, members, seed)
                x[cl.c_offset:cl.c_offset + cl.size + 1] = probs
            assert lifted_feasible(system.cs, x)
            assert separate_cycles(lg, x, system.cs) == []


def _count_distribution(g, members, seed):
    """Pr(sum of cluster variables = k) under the seeded random distribution."""
    rng = np.random.default_rng(seed)
    atoms = g.atom_node_ids
    scores = rng.normal(size=1 << len(atoms))
    p = np.exp(scores - scores.max())
    p /= p.sum()
    pos = {i: atoms.index(i) for i in members}
    out = np.zeros(len(members) + 1)
    for idx in range(1 << len(atoms)):
        k = sum((idx >> pos[i]) & 1 for i in members)
        out[k] += p[idx]
    return out


class TestNesting:
    def test_lp_optima_ordering(self):
        g = build("complete_graph", 4, -1.0)
        lg = lt.compute_orbits(g)
        rng = np.random.default_rng(5)
        for _ in range(5):
            c = rng.normal(size=lg.n_vars)
            values = {}
            for outer in ("local", "local+exch"):
                system = build_outer_system(lg, outer)
                obj = np.concatenate([c, np.zeros(system.n_vars - lg.n_vars)])
                values[outer] = Simplex(system.n_vars, system.cs.rows,
                                        system.fixed_zero).solve(obj).objective
            assert values["local+exch"] <= values["local"] + 1e-9

    def test_exchangeable_exactness_on_complete_graph(self):
        """With cluster rows the LP optimum of any symmetric objective equals
        the maximum over the true lifted marginal polytope (vertex scan)."""
        for n in (3, 4):
            g = build("complete_graph", n, -1.0)
            lg = lt.compute_orbits(g)
            system = build_outer_system(lg, "local+exch")
            rng = np.random.default_rng(n)
            for _ in range(6):
                c = rng.normal(size=lg.n_vars)
                obj = np.concatenate([c, np.zeros(system.n_vars - lg.n_vars)])
                lp_val = Simplex(system.n_vars, system.cs.rows,
                                 system.fixed_zero).solve(obj).objective
                best = -np.inf
                for state in itertools.product((0, 1), repeat=n):
                    mu = np.zeros(g.n_features)
                    for i, t in enumerate(state):
                        mu[g.node_feature(i, t)] = 1.0
                    for k, (u, v) in enumerate(g.edges.tolist()):
                        mu[g.edge_feature(k, state[u], state[v])] = 1.0
                    best = max(best, float(c @ lg.project(mu)))
                assert lp_val >= best - 1e-8
                assert lp_val <= best + 1e-7


class TestSeparation:
    def test_uniform_has_no_violated_cycles(self):
        g = build("clique_cycle", 3, 2.0)
        lg = lt.compute_orbits(g)
        system = build_outer_system(lg, "cycle")
        tau = system.uniform_point()
        assert separate_cycles(lg, tau, system.cs) == []

    def test_tree_graph_has_no_cycles(self):
        b = lt.GroundModelBuilder(range(3))
        ids = [b.add_node("atom", "V", (i,), 2) for i in range(3)]
        for i in (1, 2):
            b.add_edge_theta(ids[0], ids[i], [[0.3, -0.3], [-0.3, 0.3]], tag="t")
        g = b.build()
        lg = lt.compute_orbits(g)
        tau = np.full(lg.n_vars, 0.5)
        tau[lg.feat_to_var] = 0.0  # fill with a fractional-but-local point
        system = build_outer_system(lg, "cycle")
        assert separate_cycles(lg, system.uniform_point(), system.cs) == []

    def test_clique_cycle_fractional_point_is_cut(self):
        """The local optimum at strong repulsion violates a cycle inequality;
        the separator must find the most violated one (checked exhaustively),
        and adding it must strictly lower the LP value."""
        g = build("clique_cycle", 3, 2.0)
        lg = lt.compute_orbits(g)
        system = build_outer_system(lg, "local")
        grad = lg.lifted_theta
        res = Simplex(system.n_vars, system.cs.rows, system.fixed_zero).solve(grad)
        x, val = res.x, res.objective

        n_local = len(system.cs.rows)
        rows = separate_cycles(lg, x, system.cs)
        assert rows
        assert system.cs.rows[n_local:] == rows

        best_found = max(sum(c * x[j] for j, c in r.coeffs) - r.rhs for r in rows)
        best_exhaustive = _exhaustive_worst_violation(g, lg, x)
        assert best_exhaustive > 1e-6
        assert abs(best_found - best_exhaustive) < 1e-9

        val2 = Simplex(system.n_vars, system.cs.rows,
                       system.fixed_zero).solve(grad).objective
        assert val2 < val - 1e-6

    @pytest.mark.parametrize("name,n,w,has_cycles", [
        ("clique_cycle", 3, 2.0, True), ("clique_cycle", 4, 2.0, True),
        ("complete_graph", 6, -1.0, True), ("friends_smokers", 4, 1.0, False),
        ("ring_pendant", 5, 3.0, True),
    ])
    def test_orbit_skip_matches_all_sources(self, name, n, w, has_cycles):
        """Searching the other members of a node orbit only when its first
        source finds a violated cycle returns the rows, in the order, of a
        search from every source; checked at LP vertices over cut rounds.
        (The binary edges of friends_smokers, Smokes-Cancer, form no cycle.)"""
        g = (lt.zoo.ring_pendant_model(scale=w) if name == "ring_pendant"
             else build(name, n, w))
        lg = lt.compute_orbits(g)
        system = build_outer_system(lg, "cycle")
        disagree = [int(lg.feat_to_var[g.edge_feature(k, t, h)])
                    for k, _u, _v in _binary_edges(g) for t, h in ((0, 1), (1, 0))]
        rng = np.random.default_rng(7)
        n_rows = 0
        for _trial in range(6):
            c = rng.normal(size=system.n_vars)
            c[disagree] += 3.0 * rng.choice([-1.0, 1.0, 1.0], size=len(disagree))
            for _round in range(4):
                x = Simplex(system.n_vars, system.cs.rows,
                            system.fixed_zero).solve(c).x
                # points between the vertex and the uniform point have cycle
                # lengths up to 1, near the search's cutoff
                t = rng.uniform(0.5, 1.0)
                mid = t * x + (1.0 - t) * system.uniform_point()
                assert (separate_cycles(lg, mid, copy.deepcopy(system.cs))
                        == _all_sources_separation(lg, mid, copy.deepcopy(system.cs)))
                ref_cs = copy.deepcopy(system.cs)
                expected = _all_sources_separation(lg, x, ref_cs)
                rows = separate_cycles(lg, x, system.cs)
                assert rows == expected
                assert system.cs.rows == ref_cs.rows
                n_rows += len(rows)
                if not rows:
                    break
        assert (n_rows > 0) == has_cycles

    def test_one_search_per_node_orbit_without_cut(self, monkeypatch):
        g = build("clique_cycle", 3, 2.0)
        lg = lt.compute_orbits(g)
        system = build_outer_system(lg, "cycle")
        calls = []
        search = polytope._dijkstra

        def counted(*args):
            calls.append(args[2])
            return search(*args)

        monkeypatch.setattr(polytope, "_dijkstra", counted)
        assert separate_cycles(lg, system.uniform_point(), system.cs) == []
        assert len(lg.node_orbits) == 3
        assert sorted(lg.node_orbit_of[s // 2] for s in calls) == [0, 1, 2]

    def test_forest_binary_subgraph_runs_no_search(self, monkeypatch):
        """The binary edges of friends_smokers (Smokes-Cancer) form a matching,
        a forest, so no search runs; the solve is that of a search from every
        orbit, which never finds a cut.  With the sources restored, each
        separation call searches from the first source of each source orbit
        and from no other member."""
        g = build("friends_smokers", 6, 1.0)
        calls = []
        separations = []
        search = polytope._dijkstra
        separate = trw.separate_cycles

        def counted(*args):
            calls.append(args[2])
            return search(*args)

        def counted_separate(*args):
            separations.append(args[1])
            return separate(*args)

        monkeypatch.setattr(polytope, "_dijkstra", counted)
        monkeypatch.setattr(trw, "separate_cycles", counted_separate)
        results = []
        for restore_sources in (False, True):
            lg = lt.compute_orbits(g)
            mg = polytope._mirror_graph(lg)
            assert mg.sources == [] and mg.first == {}
            if restore_sources:
                sources = sorted({i for _k, u, v in _binary_edges(g) for i in (u, v)})
                first, orbit_first = {}, {}
                for s in sources:
                    first[s] = orbit_first.setdefault(int(lg.node_orbit_of[s]), s)
                lg._mirror = dataclasses.replace(mg, sources=sources, first=first)
            calls.clear()
            separations.clear()
            res = lt.frank_wolfe(lg, outer="cycle", rho=lt.init_rho_uniform(lg),
                                 tol=1e-5, max_iters=200)
            results.append((len(calls), len(separations), res.bound, res.objective,
                            res.gap_trace[-1], res.iterations, res.lp_pivots,
                            res.n_cuts))
        (searches, *skipped), (searches_before, *before) = results
        n_separations = before[0]
        assert len(orbit_first) == 2 and n_separations > 0
        assert searches == 0 and searches_before == len(orbit_first) * n_separations
        assert sorted(calls) == sorted([2 * s for s in orbit_first.values()] * n_separations)
        assert skipped == before
        assert skipped[-1] == 0


def _binary_edges(g):
    """Edges between binary atom nodes, as (edge id, u, v)."""
    return [(k, u, v) for k, (u, v) in enumerate(g.edges.tolist())
            if all(g.nodes[i].kind == "atom" and g.nodes[i].n_values == 2
                   for i in (u, v))]


def _all_sources_separation(lg, tau, cs):
    """Cycle separation without the orbit skip or the length cutoff.

    Builds the mirror graph afresh and runs Dijkstra from every binary ground
    node; otherwise gathers, ranks and adds rows like ``separate_cycles``.
    """
    g = lg.model
    edges = _binary_edges(g)
    adj = [[] for _ in range(2 * len(g.nodes))]
    for k, u, v in edges:
        lam = float(tau[lg.feat_to_var[g.edge_feature(k, 0, 1)]]
                    + tau[lg.feat_to_var[g.edge_feature(k, 1, 0)]])
        lam = min(max(lam, 0.0), 1.0)
        for a, b in ((u, v), (v, u)):
            adj[2 * a].append((2 * b, lam, k, False))
            adj[2 * a + 1].append((2 * b + 1, lam, k, False))
            adj[2 * a].append((2 * b + 1, 1.0 - lam, k, True))
            adj[2 * a + 1].append((2 * b, 1.0 - lam, k, True))
    found = []
    seen_keys = set()
    for s in sorted({u for _, u, _v in edges} | {v for _, _u, v in edges}):
        src, dst = 2 * s, 2 * s + 1
        dist = [np.inf] * len(adj)
        dist[src] = 0.0
        parent = [None] * len(adj)
        heap = [(0.0, src)]
        while heap:
            d, a = heapq.heappop(heap)
            if d > dist[a] + 1e-15:
                continue
            if a == dst:
                break
            for b, wt, k, crossing in adj[a]:
                if d + wt < dist[b] - 1e-15:
                    dist[b] = d + wt
                    parent[b] = (a, k, crossing)
                    heapq.heappush(heap, (d + wt, b))
        if dist[dst] >= 1.0 - CYCLE_VIOLATION_TOL:
            continue
        coeffs = {}
        n_cross = 0
        cur = dst
        steps = []
        while cur != src:
            cur, k, crossing = parent[cur]
            steps.append((k, crossing))
        for k, crossing in reversed(steps):
            n_cross += int(crossing)
            for t, h in ((0, 1), (1, 0)):
                var = int(lg.feat_to_var[g.edge_feature(k, t, h)])
                coeffs[var] = coeffs.get(var, 0.0) + (1.0 if crossing else -1.0)
        row = Row.make(coeffs, "<=", n_cross - 1, tag="cycle")
        key = row.canonical_key()
        if key in seen_keys or row in cs:
            continue
        violation = sum(c * tau[j] for j, c in row.coeffs) - row.rhs
        if violation <= CYCLE_VIOLATION_TOL:
            continue
        seen_keys.add(key)
        found.append((violation, row))
    found.sort(key=lambda t: -t[0])
    rows = [row for _violation, row in found[:CUT_BATCH]]
    for row in rows:
        cs.add(row)
    return rows


def _exhaustive_worst_violation(g, lg, tau):
    """Max cycle-inequality violation over all simple cycles and odd subsets."""
    adj = {}
    for k, (u, v) in enumerate(g.edges.tolist()):
        adj.setdefault(u, []).append((v, k))
        adj.setdefault(v, []).append((u, k))
    lam = {}
    for k in range(len(g.edges)):
        lam[k] = (tau[lg.feat_to_var[g.edge_feature(k, 0, 1)]]
                  + tau[lg.feat_to_var[g.edge_feature(k, 1, 0)]])

    cycles = set()

    def dfs(start, node, visited, path_edges):
        for nxt, k in adj.get(node, []):
            if nxt == start and len(path_edges) >= 2:
                cycles.add(frozenset(path_edges + [k]))
            elif nxt not in visited and nxt > start:
                dfs(start, nxt, visited | {nxt}, path_edges + [k])

    for s in range(len(g.nodes)):
        dfs(s, s, {s}, [])

    worst = -np.inf
    for cyc in cycles:
        edges = sorted(cyc)
        lam_c = np.array([lam[k] for k in edges])
        # best odd subset: flip edges with largest (lam - (1 - lam))
        gain = 2 * lam_c - 1.0
        order = np.argsort(-gain)
        chosen = []
        for count in range(1, len(edges) + 1, 2):
            f = order[:count]
            lhs = lam_c.sum() - lam_c[f].sum() + (1 - lam_c[f]).sum()
            worst = max(worst, 1.0 - lhs)
    return worst

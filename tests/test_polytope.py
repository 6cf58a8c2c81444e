"""Outer-bound constraint tests: projection equivalence, exchangeable
consistency with brute-force symmetrized distributions, and cycle-inequality
separation checked against exhaustive enumeration."""

import copy
import dataclasses
import heapq
import itertools
import math

import numpy as np
import pytest

import liftedtrw as lt
from liftedtrw import polytope, trw
from liftedtrw.lpsolve import Row, Simplex
from liftedtrw.polytope import (CUT_BATCH, CYCLE_VIOLATION_TOL, QUOTIENT_MARGIN,
                                NotExchangeable, build_outer_system,
                                detect_exchangeable_clusters,
                                exchangeable_constraints, lifted_local,
                                separate_cycles)
from liftedtrw.symmetry import _pinned_tables
from conftest import (build, edge_orbit_tags, ground_local_feasible, members,
                      symmetrized_random_moments)


def lifted_feasible(rows, x, tol=1e-7):
    x = np.asarray(x)
    if (x < -tol).any():
        return False
    for row in rows:
        val = sum(c * x[j] for j, c in row.coeffs)
        if row.rel == "=" and abs(val - row.rhs) > tol:
            return False
        if row.rel == "<=" and val > row.rhs + tol:
            return False
    return True


def _mixed_orientation_square():
    """Binary atoms A(i), B(i) on a square A0-B0-B1-A1: the A-B edges share
    an orbit but are stored A first for 0 and B first for 1, and their
    potential is not symmetric, so the orbit lists one of them backward."""
    b = lt.GroundModelBuilder(range(2))
    a0, b0, b1, a1 = (b.add_node("atom", p, (i,), 2) for p, i in
                      (("A", 0), ("B", 0), ("B", 1), ("A", 1)))
    theta = np.array([[0.0, 0.4], [-0.3, 0.9]])
    b.add_edge_theta(a0, b0, theta, tag="ab")
    b.add_edge_theta(a1, b1, theta, tag="ab")
    b.add_edge_theta(a0, a1, np.eye(2), tag="aa")
    b.add_edge_theta(b0, b1, np.eye(2), tag="bb")
    return b.build()


def _mirror_models():
    """Every bundled model at n = 2..6 under its orbits and, up to n = 4,
    under the identity lifting; ring_pendant; the mixed-orientation square."""
    for name in sorted(lt.zoo.MODEL_TEXTS):
        for n in range(2, 7):
            g = build(name, n, 0.5)
            yield f"{name}-{n}", lt.compute_orbits(g)
            if n <= 4:
                yield f"{name}-{n}-trivial", lt.trivial_lifting(g)
    ring = lt.zoo.ring_pendant_model(scale=1.0)
    yield "ring_pendant", lt.compute_orbits(ring)
    yield "ring_pendant-trivial", lt.trivial_lifting(ring)
    yield "mixed_square", lt.compute_orbits(_mixed_orientation_square())


MIRROR_MODELS = list(_mirror_models())


class TestLiftedLocal:
    def test_local_rows_built_once_and_copied(self, monkeypatch):
        """The outer systems of one lifted graph share the local rows, built
        once; each system gets its own list, so a row appended to one
        reaches no other, later ones included."""
        lg = lt.compute_orbits(build("clique_cycle", 3, 2.0))
        want = lifted_local(lg)
        built = []

        def counted(g):
            built.append(g)
            return lifted_local(g)

        monkeypatch.setattr(polytope, "lifted_local", counted)
        systems = [build_outer_system(lg, outer) for outer in lt.OUTER_CHOICES]
        assert built == [lg]
        assert all(system.rows[:len(want)] == want for system in systems)
        cut = Row.make({0: 1.0, 1: 1.0}, "<=", 0.5)
        systems[1].rows.append(cut)
        later = build_outer_system(lg, "cycle")
        assert built == [lg] and later.rows == want and lg._local == want
        assert all(cut not in system.rows for system in systems[:1] + systems[2:] + [later])

    @pytest.mark.parametrize("label,lg", MIRROR_MODELS, ids=[m[0] for m in MIRROR_MODELS])
    def test_coinciding_flip_merged_rows_appear_once(self, label, lg):
        """Flip merging makes a flip-symmetric orbit's column row for value
        ``h`` equal to its row for ``t = h``: each such row is listed once,
        where the row of ``t = h`` stands, and no two listed rows are equal.
        Every other row is distinct: one normalization row per node orbit
        and ``nu + nv - 1`` marginalization rows per edge orbit."""
        rows = lifted_local(lg)
        assert len(set(rows)) == len(rows)
        n_values = [orb.n_values for orb in lg.node_orbits]
        n_rows = len(lg.node_orbits)
        for eo in lg.edge_orbits:
            nu, nv = n_values[eo.u_orbit], n_values[eo.v_orbit]
            n_rows += nu + nv - 1
            if not eo.flip:
                continue
            n_rows -= nv - 1
            for h in range(nv - 1):
                col = {lg.edge_var(eo.id, t, h): 1.0 for t in range(nu)}
                row = {lg.edge_var(eo.id, h, t): 1.0 for t in range(nv)}
                for coeffs in (col, row):
                    coeffs[lg.node_var(eo.u_orbit, h)] = -1.0
                assert Row.make(col, "=", 0.0) == Row.make(row, "=", 0.0)
                assert rows.count(Row.make(col, "=", 0.0)) == 1
        assert len(rows) == n_rows
        assert any(eo.flip for _label, g in MIRROR_MODELS for eo in g.edge_orbits)

    def test_ring_stem_rows_present(self, ring_model, ring_lifted):
        """Both marginalization identities of the stem orbit must appear."""
        lg = ring_lifted
        rows = lifted_local(lg)
        stem = lg.edge_orbits[edge_orbit_tags(lg).index("stem")]
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
        assert Row.make(row_core, "=", 0.0) in rows
        assert Row.make(row_pend, "=", 0.0) in rows

    def test_flip_merged_normalization_identity(self):
        """e00 + e11 + 2 a01 = 1 must be implied by the emitted rows."""
        g = build("complete_graph", 4, -1.0)
        lg = lt.compute_orbits(g)
        rows = lifted_local(lg)
        eo = lg.edge_orbits[0]
        rng = np.random.default_rng(0)
        for seed in range(20):
            tau = symmetrized_random_moments(g, lg, seed)
            assert lifted_feasible(rows, tau)
            total = (tau[lg.edge_var(eo.id, 0, 0)] + tau[lg.edge_var(eo.id, 1, 1)]
                     + 2 * tau[lg.edge_var(eo.id, 0, 1)])
            assert abs(total - 1.0) < 1e-9

    def test_single_orbit_normalization(self):
        g = lt.ground(lt.parse_model("W V(x)").bind_weight(1.0), 3)
        lg = lt.compute_orbits(g)
        rows = lifted_local(lg)
        assert len(rows) == 1
        assert rows[0].rel == "="


class TestProjectionEquivalence:
    @pytest.mark.parametrize("name,n,w", [
        ("complete_graph", 5, -1.0),
        ("clique_cycle", 3, 1.5),
        ("friends_smokers", 2, -0.8),
    ])
    def test_lifted_iff_ground(self, name, n, w):
        g = build(name, n, w)
        lg = lt.compute_orbits(g)
        rows = lifted_local(lg)
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
            lifted_ok = lifted_feasible(rows, tau) and not (
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
        assert system.clusters and all(row.rel == "=" for row in system.rows)
        E = np.zeros((len(system.rows), system.n_vars))
        for i, row in enumerate(system.rows):
            for j, c in row.coeffs:
                E[i, j] = c
        assert np.linalg.matrix_rank(E) == len(E)
        for cl in system.clusters:
            ones = np.zeros((1, system.n_vars))
            ones[0, cl.c_offset:cl.c_offset + cl.size + 1] = 1.0
            assert np.linalg.matrix_rank(np.vstack([E, ones])) == len(E)

    def test_uniform_count_block(self):
        """The count block of the uniform point is binomial(size, 1/2): finite
        and summing to 1 for a 1100-node cluster, where ``2.0 ** size``
        overflows, and equal to that expression's bytes up to 200 nodes."""
        system = build_outer_system(lt.compute_orbits(build("complete_graph", 4, 0.0)),
                                    "local+exch")
        for size in (*range(1, 201), 1100):
            cl = dataclasses.replace(system.clusters[0], size=size)
            c = dataclasses.replace(system, n_vars=cl.c_offset + size + 1,
                                    clusters=[cl]).uniform_point()[cl.c_offset:]
            assert c.size == size + 1 and np.isfinite(c).all(), size
            assert abs(c.sum() - 1.0) < 1e-12, size
            if size <= 200:
                # past 62 nodes the counts are Python ints in an object array
                old = np.array([math.comb(size, k) for k in range(size + 1)]) / 2.0 ** size
                assert c.tobytes() == old.astype(float).tobytes(), size

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
                 for a, b in itertools.combinations(members(lg.node_orbit_of, orb.id), 2)]
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
                probs = _count_distribution(g, members(lg.node_orbit_of, cl.node_orbit), seed)
                x[cl.c_offset:cl.c_offset + cl.size + 1] = probs
            assert lifted_feasible(system.rows, x)
            assert separate_cycles(lg, x) == []


def _count_distribution(g, cluster, seed):
    """Pr(sum of cluster variables = k) under the seeded random distribution."""
    rng = np.random.default_rng(seed)
    atoms = g.atom_node_ids
    scores = rng.normal(size=1 << len(atoms))
    p = np.exp(scores - scores.max())
    p /= p.sum()
    pos = {i: atoms.index(i) for i in cluster}
    out = np.zeros(len(cluster) + 1)
    for idx in range(1 << len(atoms)):
        k = sum((idx >> pos[i]) & 1 for i in cluster)
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
                values[outer] = Simplex(system.n_vars, system.rows,
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
                lp_val = Simplex(system.n_vars, system.rows,
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
        assert separate_cycles(lg, tau) == []

    @pytest.mark.parametrize("name", ["clique_cycle", "friends_smokers"])
    def test_bad_point_raises(self, name):
        """An all-NaN ``tau`` gave no row on ``clique_cycle`` n=3, which reads
        as a certificate, and a short one a bare ``IndexError``; they raise,
        as do a 2-D one and an infinite entry, also where the binary subgraph
        is a forest (``friends_smokers``).  Cluster counts may follow the
        lifted variables."""
        lg = lt.compute_orbits(build(name, 3, 2.0))
        uniform = build_outer_system(lg, "local").uniform_point()
        bad = [np.full(lg.n_vars, np.nan), uniform[:-1], uniform[None, :],
               np.where(np.arange(lg.n_vars) == 0, np.inf, uniform)]
        for tau in bad:
            with pytest.raises(ValueError, match="tau"):
                separate_cycles(lg, tau)
        assert separate_cycles(lg, np.concatenate([uniform, [0.25, 0.75]])) == []

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
        assert separate_cycles(lg, system.uniform_point()) == []

    def test_clique_cycle_fractional_point_is_cut(self):
        """The local optimum at strong repulsion violates a cycle inequality;
        the separator must find the most violated one (checked exhaustively),
        and adding it must strictly lower the LP value."""
        g = build("clique_cycle", 3, 2.0)
        lg = lt.compute_orbits(g)
        system = build_outer_system(lg, "local")
        grad = lg.lifted_theta
        res = Simplex(system.n_vars, system.rows, system.fixed_zero).solve(grad)
        x, val = res.x, res.objective

        n_local = len(system.rows)
        rows = separate_cycles(lg, x)
        assert rows
        assert len(system.rows) == n_local

        best_found = max(sum(c * x[j] for j, c in r.coeffs) - r.rhs for r in rows)
        best_exhaustive = _exhaustive_worst_violation(g, lg, x)
        assert best_exhaustive > 1e-6
        assert abs(best_found - best_exhaustive) < 1e-9

        val2 = Simplex(system.n_vars, system.rows + rows,
                       system.fixed_zero).solve(grad).objective
        assert val2 < val - 1e-6

    @pytest.mark.parametrize("name,n,w,has_cycles", [
        ("clique_cycle", 3, 2.0, True), ("clique_cycle", 4, 2.0, True),
        ("complete_graph", 6, -1.0, True), ("friends_smokers", 4, 1.0, False),
        ("ring_pendant", 5, 3.0, True),
    ])
    def test_orbit_skip_matches_all_sources(self, name, n, w, has_cycles):
        """One search per node orbit finds rows exactly when a search from
        every ground node does; its rows are violated, and are rows of that
        search whenever that search returns fewer than ``CUT_BATCH``.  Checked
        at LP vertices over cut rounds and at points between them and the
        uniform point.  (The binary edges of friends_smokers, Smokes-Cancer,
        form no cycle.)"""
        g = (lt.zoo.ring_pendant_model(scale=w) if name == "ring_pendant"
             else build(name, n, w))
        lg = lt.compute_orbits(g)
        system = build_outer_system(lg, "cycle")
        disagree = [int(lg.feat_to_var[g.edge_feature(k, t, h)])
                    for k, _u, _v in _binary_edges(g) for t, h in ((0, 1), (1, 0))]
        rng = np.random.default_rng(7)
        n_rows = 0
        held = list(system.rows)
        for _trial in range(6):
            c = rng.normal(size=system.n_vars)
            c[disagree] += 3.0 * rng.choice([-1.0, 1.0, 1.0], size=len(disagree))
            for _round in range(4):
                x = Simplex(system.n_vars, held, system.fixed_zero).solve(c).x
                # points between the vertex and the uniform point have cycle
                # lengths up to 1, near the search's cutoff
                t = rng.uniform(0.5, 1.0)
                mid = t * x + (1.0 - t) * system.uniform_point()
                for point in (mid, x):
                    expected = _all_sources_separation(lg, point, set(held))
                    rows = separate_cycles(lg, point)
                    assert bool(rows) == bool(expected)
                    assert not set(rows) & set(held)
                    for row in rows:
                        violation = sum(cf * point[j] for j, cf in row.coeffs) - row.rhs
                        assert violation > CYCLE_VIOLATION_TOL
                    if len(expected) < CUT_BATCH:
                        assert all(row in expected for row in rows)
                held += rows
                n_rows += len(rows)
                if not rows:
                    break
        assert (n_rows > 0) == has_cycles

    def test_one_search_per_node_orbit_without_cut(self, monkeypatch):
        """At the uniform point each node orbit's source gets one quotient
        pre-check, which finds no path, so no ground search runs and the
        ground adjacency is never built."""
        g = build("clique_cycle", 3, 2.0)
        lg = lt.compute_orbits(g)
        system = build_outer_system(lg, "cycle")
        events = _record_searches(monkeypatch)
        assert separate_cycles(lg, system.uniform_point()) == []
        assert len(lg.node_orbits) == 3
        sources = [s for kind, s, _found in events if kind == "quotient"]
        assert sorted(lg.node_orbit_of[s] for s in sources) == [0, 1, 2]
        assert events == [(kind, s, False) for s in sources for kind in ("quotient", "pre")]
        assert "adj" not in polytope._mirror_graph(lg).__dict__

    def test_one_search_per_node_orbit_with_cuts(self, monkeypatch):
        """A call at a point with violated cycles pre-checks once per node
        orbit too, from the orbit's lowest ground node, and searches the
        ground graph from exactly the sources whose pre-check found a path;
        on a renaming-group model each of those searches finds one."""
        g = build("clique_cycle", 4, 2.0)
        lg = lt.compute_orbits(g)
        system = build_outer_system(lg, "local")
        x = Simplex(system.n_vars, system.rows,
                    system.fixed_zero).solve(lg.lifted_theta).x
        lowest = _lowest_binary_node_per_orbit(lg)
        events = _record_searches(monkeypatch)
        assert separate_cycles(lg, x)
        assert len(_binary_nodes(g)) > len(lowest)
        expected = []
        for s in sorted(lowest.values()):
            found = next(f for kind, src, f in events if kind == "pre" and src == s)
            expected += [("quotient", s, False), ("pre", s, found)]
            if found:
                expected.append(("ground", s, True))
        assert events == expected
        assert any(kind == "ground" for kind, _s, _f in events)

    def test_forest_binary_subgraph_runs_no_search(self, monkeypatch):
        """The binary edges of friends_smokers (Smokes-Cancer) form a matching,
        a forest, so no search runs; the solve is that of a search from every
        orbit, which never finds a cut.  With the sources restored, each
        separation call pre-checks once from each source orbit's lowest node,
        and the pre-checks, exact on this model, find no path, so no ground
        search runs either."""
        g = build("friends_smokers", 6, 1.0)
        separations = []
        separate = trw.separate_cycles

        def counted_separate(*args):
            separations.append(args[1])
            return separate(*args)

        events = _record_searches(monkeypatch)
        monkeypatch.setattr(trw, "separate_cycles", counted_separate)
        results = []
        for restore_sources in (False, True):
            lg = lt.compute_orbits(g)
            mg = polytope._mirror_graph(lg)
            assert mg.sources == []
            if restore_sources:
                lowest = _lowest_binary_node_per_orbit(lg)
                lg._mirror = dataclasses.replace(mg, sources=sorted(lowest.values()))
            events.clear()
            separations.clear()
            res = lt.frank_wolfe(lg, outer="cycle", rho=lt.init_rho_uniform(lg),
                                 tol=1e-5, max_iters=200)
            results.append((list(events), (len(separations), res.bound, res.objective,
                                           res.gap_trace[-1], res.iterations, res.lp_pivots,
                                           res.n_cuts),
                            (res.stats["cycle_searches"], res.stats["cycle_pruned"])))
        (events_skipped, solve, counts), (events_before, solve_before, counts_before) = results
        n_separations, n_cuts = solve[0], solve[-1]
        assert len(lowest) == 2 and n_separations > 0
        assert solve == solve_before and n_cuts == 0
        assert events_skipped == [] and counts == (0, 0)
        assert events_before == [(kind, s, False) for s in sorted(lowest.values())
                                 for kind in ("quotient", "pre")] * n_separations
        assert counts_before == (0, len(lowest) * n_separations)


def _ground_forest(g):
    """Whether the binary edges of ``g`` form a forest, by a ground union-find."""
    parent = list(range(len(g.nodes)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for _k, u, v in _binary_edges(g):
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[rv] = ru
    return True


class TestMirrorGraphFromOrbits:
    @pytest.mark.parametrize("label,lg", MIRROR_MODELS, ids=[m[0] for m in MIRROR_MODELS])
    def test_forest_and_variables_match_ground_forms(self, label, lg):
        """The forest test from lifted counts agrees with a union-find over
        the ground binary edges; each binary edge is labelled by its edge
        orbit, whose two disagreement variables read off the orbit's map
        are, as a set, the edge's ground features' (0, 1) and (1, 0) entries
        under ``feat_to_var``, which the mirror graph never builds."""
        g = lg.model
        mg = polytope._mirror_graph(lg)
        assert "feat_to_var" not in vars(lg)
        assert (mg.sources == []) == _ground_forest(g)
        ks = [k for k, _u, _v in _binary_edges(g)]
        assert mg.pairs.tolist() == g.edges[ks].tolist()
        assert mg.edge_orbits == sorted(set(lg.edge_orbit_of[ks].tolist()))
        assert [mg.edge_orbits[o] for o in mg.pair_orbit] == lg.edge_orbit_of[ks].tolist()
        assert mg.orbit_vars.shape == (len(mg.edge_orbits), 2)
        start = g.feature_layout()[1][ks]
        for j, o in enumerate(mg.pair_orbit.tolist()):
            assert ({int(lg.feat_to_var[start[j] + 1]), int(lg.feat_to_var[start[j] + 2])}
                    == set(mg.orbit_vars[o].tolist()))

    def test_cases_cover_both_decisions_and_orientations(self):
        """The mixed-orientation square keeps one A-B edge backward; both
        A-B edges get one label, whose two disagreement variables differ,
        and its rows are the per-edge reference's."""
        forests = {_ground_forest(lg.model) for _label, lg in MIRROR_MODELS}
        assert forests == {True, False}
        lg = dict(MIRROR_MODELS)["mixed_square"]
        ab = lg.edge_orbit_of[[0, 1]]
        assert ab[0] == ab[1] and lg.edge_backward[[0, 1]].tolist() in ([True, False],
                                                                       [False, True])
        mg = polytope._mirror_graph(lg)
        assert mg.sources and mg.pair_orbit[0] == mg.pair_orbit[1]
        v01, v10 = mg.orbit_vars[mg.pair_orbit[0]].tolist()
        assert v01 != v10
        # the local vertex where A-B and A-A agree and B-B disagrees: a
        # frustrated square, whose cycle row reads both A-B edges
        system = build_outer_system(lg, "local")
        c = np.zeros(system.n_vars)
        for k, cells in ((0, ((0, 0), (1, 1))), (2, ((0, 0), (1, 1))), (3, ((0, 1), (1, 0)))):
            for t, h in cells:
                c[lg.edge_var_map[lg.edge_orbit_of[k]][t, h]] += 1.0
        x = Simplex(system.n_vars, system.rows, system.fixed_zero).solve(c).x
        assert _rows_match_parent(lg, [x]) == 1

    @pytest.mark.parametrize("label,lg", MIRROR_MODELS, ids=[m[0] for m in MIRROR_MODELS])
    def test_rows_match_parent_separation(self, label, lg):
        """Labelling steps by edge orbit returns the per-edge reference's
        rows, in its order, at points feasible for the rows the reference
        skips.  Runs on a fresh copy of ``lg``, so the shared one never
        builds ``feat_to_var``."""
        lg = dataclasses.replace(lg)
        _rows_match_parent(lg, TestQuotientPrecheck._points(lg, np.random.default_rng(3)))


def _rows_match_parent(lg, points):
    """Separate at each point with :func:`separate_cycles` and with
    :func:`_parent_separation` skipping the cycle system's rows; the rows
    and their order must be equal.  Where rows come back, the two must agree
    again at the vertex maximizing ``tau`` over the system plus those rows,
    where the reference skips those rows too.  Returns the number of rows
    found at ``points``."""
    system = build_outer_system(lg, "cycle")
    n_rows = 0
    for tau in points:
        got = separate_cycles(lg, tau)
        assert got == _parent_separation(lg, tau, set(system.rows))
        n_rows += len(got)
        if got:
            held = system.rows + got
            x = Simplex(system.n_vars, held, system.fixed_zero).solve(tau).x
            assert separate_cycles(lg, x) == _parent_separation(lg, x, set(held))
    return n_rows


def _parent_separation(lg, tau, held):
    """The per-edge cycle separation that :func:`separate_cycles` replaced,
    kept as the reference for its rows; it skips the rows in ``held``, as
    the separation of a point feasible for them must.

    Each binary edge carries its own disagreement variables, the (0, 1) and
    (1, 0) entries of its orbit's map swapped where the orbit lists the edge
    backward, and its own weight; a ground step is labelled by its edge and
    a quotient step by one edge of its orbit (``orbit_edge``).  The sources,
    the quotient pre-check, the ground search and the ranking are those of
    :func:`separate_cycles`.
    """
    g = lg.model
    if _ground_forest(g):
        return []
    ks = np.array([k for k, _u, _v in _binary_edges(g)], dtype=np.int64)
    pairs = g.edges[ks]
    orbits, first, orbit_at = np.unique(lg.edge_orbit_of[ks], return_index=True,
                                        return_inverse=True)
    var01, var10 = (np.array([lg.edge_var_map[o][t, 1 - t] for o in orbits.tolist()],
                             dtype=np.int64)[orbit_at] for t in (0, 1))
    backward = lg.edge_backward[ks]
    var01, var10 = np.where(backward, var10, var01), np.where(backward, var01, var10)
    orbit_edge = dict(zip(orbits.tolist(), first.tolist()))
    adj = polytope._layered_adj(int(pairs.max()) + 1,
                                ((u, v, j) for j, (u, v) in enumerate(pairs.tolist())))
    tau = np.asarray(tau)
    lam = np.clip(tau[var01] + tau[var10], 0.0, 1.0)
    weight = (lam.tolist(), (1.0 - lam).tolist())

    cutoff = 1.0 - CYCLE_VIOLATION_TOL
    found = []
    seen = set()
    for s in sorted(_lowest_binary_node_per_orbit(lg).values()):
        n_classes, class_of, _, edge_table = _pinned_tables(
            lg, frozenset(g.node_table.consts_of(s)))
        if n_classes < g.n_nodes:
            qadj = polytope._layered_adj(n_classes, ((cu, cv, j) for eid, j in orbit_edge.items()
                                                     for cu, cv in edge_table[eid]))
            qs = int(class_of[s])
            if polytope._dijkstra(qadj, weight, 2 * qs, 2 * qs + 1,
                                  cutoff + QUOTIENT_MARGIN)[0] is None:
                continue
        dist, parent = polytope._dijkstra(adj, weight, 2 * s, 2 * s + 1, cutoff)
        if dist is None:
            continue
        steps = []
        cur = 2 * s + 1
        while cur != 2 * s:
            cur, j, crossing = parent[cur]
            steps.append((j, crossing))
        coeffs = {}
        n_cross = 0
        for j, crossing in reversed(steps):
            sign = 1.0 if crossing else -1.0
            n_cross += int(crossing)
            for var in (var01[j], var10[j]):
                coeffs[var] = coeffs.get(var, 0.0) + sign
        row = Row.make(coeffs, "<=", n_cross - 1)
        if row in seen or row in held:
            continue
        violation = sum(c * tau[j] for j, c in row.coeffs) - row.rhs
        if violation <= CYCLE_VIOLATION_TOL:
            continue
        seen.add(row)
        found.append((violation, row))
    found.sort(key=lambda t: -t[0])
    return [row for _violation, row in found[:CUT_BATCH]]


class TestQuotientPrecheck:
    @staticmethod
    def _points(lg, rng):
        """The uniform point, LP vertices of random objectives over the local
        polytope (disagreement variables pushed up or down, for short
        cycles) and a cycle solve's ``tau``."""
        g = lg.model
        system = build_outer_system(lg, "local")
        yield system.uniform_point()
        disagree = [int(lg.feat_to_var[g.edge_feature(k, t, h)])
                    for k, _u, _v in _binary_edges(g) for t, h in ((0, 1), (1, 0))]
        for _trial in range(4):
            c = rng.normal(size=system.n_vars)
            c[disagree] += 3.0 * rng.choice([-1.0, 1.0, 1.0], size=len(disagree))
            yield Simplex(system.n_vars, system.rows, system.fixed_zero).solve(c).x
        yield lt.frank_wolfe(lg, outer="cycle", rho=lt.init_rho_uniform(lg), tol=1e-4,
                             max_iters=50).tau

    @pytest.mark.parametrize("name,n", [(name, n) for name in lt.zoo.MODEL_TEXTS
                                        for n in (3, 4, 5)] + [("ring_pendant", 5)])
    def test_quotient_distance_bounds_ground_distance(self, name, n):
        """From every binary ground node, the shortest layer-crossing path of
        the quotient is no longer than that of the ground mirror graph (built
        afresh), and on the renaming-group models it is as long."""
        g = lt.zoo.ring_pendant_model(scale=2.0) if name == "ring_pendant" else build(name, n, 1.5)
        lg = lt.compute_orbits(g)
        mg = polytope._mirror_graph(lg)
        exact = name != "ring_pendant"
        n_compared = 0
        for tau in self._points(lg, np.random.default_rng(n)):
            lam = np.clip(tau[mg.orbit_vars[:, 0]] + tau[mg.orbit_vars[:, 1]], 0.0, 1.0)
            weight = (lam.tolist(), (1.0 - lam).tolist())
            adj = _ground_mirror(lg, tau)
            for s in _binary_nodes(g):
                qadj, qs = polytope._quotient(lg, mg, s)
                assert len(qadj) < 2 * g.n_nodes
                dq = polytope._dijkstra(qadj, weight, 2 * qs, 2 * qs + 1, math.inf)[0]
                dq = math.inf if dq is None else dq
                dg = _shortest(adj, 2 * s, 2 * s + 1)[0]
                assert dq <= dg + 1e-12
                if exact:
                    assert dq == dg or abs(dq - dg) <= 1e-12
                n_compared += math.isfinite(dg)
        assert n_compared > 0

    def test_identity_lifting_runs_no_precheck(self):
        """Every pinned class of the identity lifting is one ground node, so
        no quotient is built and every source is searched on the ground."""
        g = build("clique_cycle", 3, 2.0)
        lg = lt.trivial_lifting(g)
        mg = polytope._mirror_graph(lg)
        assert all(polytope._quotient(lg, mg, s) is None for s in _binary_nodes(g))
        system = build_outer_system(lg, "local")
        x = Simplex(system.n_vars, system.rows,
                    system.fixed_zero).solve(lg.lifted_theta).x
        stats = {"cycle_searches": 0, "cycle_pruned": 0}
        assert separate_cycles(lg, x, stats)
        assert stats == {"cycle_searches": len(mg.sources), "cycle_pruned": 0}

    @pytest.mark.parametrize("n,w,outer", [(10, 0.5, "cycle+exch"), (12, 1.0, "cycle")])
    def test_pruned_and_unpruned_separation_give_the_same_bytes(self, monkeypatch, n, w, outer):
        """The pre-check only skips ground searches that find nothing: with
        it removed, the solve runs one ground search per source and call and
        returns the same bound, ``tau``, iterations, pivots and cuts."""
        def solve():
            lg = lt.compute_orbits(build("clique_cycle", n, w))
            res = lt.frank_wolfe(lg, outer=outer, rho=lt.init_rho_uniform(lg), tol=1e-5,
                                 max_iters=200)
            return ((res.bound.hex(), res.tau.tobytes(), res.iterations, res.lp_pivots,
                     res.n_cuts), res.stats["cycle_searches"], res.stats["cycle_pruned"])

        result, searches, pruned = solve()
        monkeypatch.setattr(polytope, "_quotient", lambda lg, mg, s: None)
        unpruned_result, unpruned_searches, unpruned_pruned = solve()
        assert result == unpruned_result
        assert pruned > 0 and unpruned_pruned == 0
        assert unpruned_searches == searches + pruned


def _record_searches(monkeypatch):
    """Record ``separate_cycles``' quotient builds and searches, in order.

    Each event is ``(kind, ground source, found)``: ``"quotient"`` for a
    :func:`polytope._quotient` call (``found`` False), ``"pre"`` for its
    pre-check search and ``"ground"`` for a ground search, whose ``found``
    says a path came back below the cutoff.  The two searches are told apart
    by their cutoff.
    """
    events = []
    search, quotient = polytope._dijkstra, polytope._quotient
    ground_cutoff = 1.0 - CYCLE_VIOLATION_TOL

    def counted_quotient(lg, mg, s):
        events.append(("quotient", s, False))
        return quotient(lg, mg, s)

    def counted_search(adj, weight, src, dst, cutoff):
        dist, parent = search(adj, weight, src, dst, cutoff)
        if cutoff == ground_cutoff:
            events.append(("ground", src // 2, dist is not None))
        else:
            events.append(("pre", events[-1][1], dist is not None))
        return dist, parent

    monkeypatch.setattr(polytope, "_dijkstra", counted_search)
    monkeypatch.setattr(polytope, "_quotient", counted_quotient)
    return events


def _binary_edges(g):
    """Edges between binary atom nodes, as (edge id, u, v)."""
    return [(k, u, v) for k, (u, v) in enumerate(g.edges.tolist())
            if all(g.nodes[i].kind == "atom" and g.nodes[i].n_values == 2
                   for i in (u, v))]


def _lowest_binary_node_per_orbit(lg):
    """Node orbit -> its lowest ground node on a binary edge."""
    lowest = {}
    for s in _binary_nodes(lg.model):
        lowest.setdefault(int(lg.node_orbit_of[s]), s)
    return lowest


def _binary_nodes(g):
    """The ground nodes on a binary edge, ascending."""
    return sorted({i for _k, u, v in _binary_edges(g) for i in (u, v)})


def _ground_mirror(lg, tau):
    """The ground mirror graph at ``tau``, built afresh from the model: per
    copy its ``(copy, weight, edge id, crossing)`` steps."""
    g = lg.model
    adj = [[] for _ in range(2 * len(g.nodes))]
    for k, u, v in _binary_edges(g):
        lam = float(tau[lg.feat_to_var[g.edge_feature(k, 0, 1)]]
                    + tau[lg.feat_to_var[g.edge_feature(k, 1, 0)]])
        lam = min(max(lam, 0.0), 1.0)
        for a, b in ((u, v), (v, u)):
            adj[2 * a].append((2 * b, lam, k, False))
            adj[2 * a + 1].append((2 * b + 1, lam, k, False))
            adj[2 * a].append((2 * b + 1, 1.0 - lam, k, True))
            adj[2 * a + 1].append((2 * b, 1.0 - lam, k, True))
    return adj


def _shortest(adj, src, dst):
    """Dijkstra without a cutoff on a :func:`_ground_mirror` adjacency:
    ``(distance, parent)``, the distance ``inf`` when ``dst`` is unreached."""
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
    return dist[dst], parent


def _all_sources_separation(lg, tau, held):
    """Cycle separation from every binary ground node, without the cutoff.

    Builds the mirror graph afresh and runs Dijkstra from every binary ground
    node, skips the rows in ``held`` and otherwise gathers and ranks rows
    like ``separate_cycles``.
    """
    g = lg.model
    adj = _ground_mirror(lg, tau)
    found = []
    seen = set()
    for s in _binary_nodes(g):
        src, dst = 2 * s, 2 * s + 1
        dist, parent = _shortest(adj, src, dst)
        if dist >= 1.0 - CYCLE_VIOLATION_TOL:
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
        row = Row.make(coeffs, "<=", n_cross - 1)
        if row in seen or row in held:
            continue
        violation = sum(c * tau[j] for j, c in row.coeffs) - row.rhs
        if violation <= CYCLE_VIOLATION_TOL:
            continue
        seen.add(row)
        found.append((violation, row))
    found.sort(key=lambda t: -t[0])
    return [row for _violation, row in found[:CUT_BATCH]]


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

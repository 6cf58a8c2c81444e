"""Lifted spanning tree tests against ground Kruskal and explicit union-find."""

import itertools

import numpy as np
import pytest

import liftedtrw as lt
from liftedtrw import spanning
from liftedtrw.spanning import (DisconnectedGraph, count_components,
                                init_rho_uniform, lifted_kruskal,
                                lifted_mst_value, optimize_rho,
                                orbit_entropies, tree_edge_total)

from conftest import build, expand_rho, ground_components, subtour_violations


def orbit_id_by_tag(lg, tag):
    return next(eo.id for eo in lg.edge_orbits if eo.key[0] == tag)


def brute_force_mst(g, weights):
    """Maximum spanning tree weight by enumerating edge subsets (tiny graphs)."""
    n = len(g.nodes)
    best = -np.inf
    for subset in itertools.combinations(range(len(g.edges)), n - 1):
        if ground_components(g, subset) == 1:
            best = max(best, sum(weights[k] for k in subset))
    return best


class TestCountComponents:
    def test_stem_orbit_alone(self, ring_model, ring_lifted):
        lg = ring_lifted
        stem = orbit_id_by_tag(lg, "stem")
        eo = lg.edge_orbits[stem]
        orbits = {eo.u_orbit, eo.v_orbit}
        assert count_components(lg, orbits, [stem]) == 5

    def test_connected_ground_graph(self, ring_lifted):
        assert count_components(ring_lifted) == 1

    def test_complete_graph(self):
        g = build("complete_graph", 4, -1.0)
        lg = lt.compute_orbits(g)
        assert count_components(lg) == 1

    def test_ring_chord_subsets_match_union_find(self, ring_model, ring_lifted):
        lg = ring_lifted
        tags = ["stem", "ring", "chord"]
        for r in range(1, 4):
            for combo in itertools.combinations(tags, r):
                ids = [orbit_id_by_tag(lg, t) for t in combo]
                orbits = set()
                for eid in ids:
                    orbits |= {lg.edge_orbits[eid].u_orbit,
                               lg.edge_orbits[eid].v_orbit}
                ground_ids = [k for k in range(len(ring_model.edges))
                              if lg.edge_orbit_of[k] in ids]
                # union-find over the ground nodes covered by these orbits
                nodes = sorted({i for oid in orbits
                                for i in lg.node_orbits[oid].members})
                parent = {i: i for i in nodes}

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                for k in ground_ids:
                    u, v = ring_model.edges[k]
                    ra, rb = find(u), find(v)
                    if ra != rb:
                        parent[rb] = ra
                expected = len({find(i) for i in nodes})
                assert count_components(lg, orbits, ids) == expected, combo


class TestLiftedKruskal:
    def test_ring_worked_weights(self, ring_lifted):
        lg = ring_lifted
        w = np.zeros(3)
        w[orbit_id_by_tag(lg, "stem")] = 3.0
        w[orbit_id_by_tag(lg, "ring")] = 2.0
        w[orbit_id_by_tag(lg, "chord")] = 1.0
        rho = lifted_kruskal(lg, w)
        assert rho[orbit_id_by_tag(lg, "stem")] == 1.0
        assert rho[orbit_id_by_tag(lg, "ring")] == pytest.approx(0.8)
        assert rho[orbit_id_by_tag(lg, "chord")] == 0.0
        assert lifted_mst_value(lg, w, rho) == pytest.approx(23.0)

    def test_exact_tree_is_all_ones(self):
        b = lt.GroundModelBuilder(range(4))
        hub = b.add_node("atom", "H", (), 2)
        for i in range(3):
            leaf = b.add_node("atom", "L", (i,), 2)
            b.add_edge_theta(hub, leaf, np.zeros((2, 2)), tag="spoke")
        lg = lt.compute_orbits(b.build())
        rho = lifted_kruskal(lg, np.ones(len(lg.edge_orbits)))
        np.testing.assert_allclose(rho, 1.0)

    def test_complete_graph_single_orbit(self):
        g = build("complete_graph", 5, -1.0)
        lg = lt.compute_orbits(g)
        rho = lifted_kruskal(lg, np.array([1.0]))
        assert rho[0] == pytest.approx(4 / 10)

    def test_matches_brute_force_tree_enumeration(self, ring_model, ring_lifted):
        lg = ring_lifted
        rng = np.random.default_rng(2)
        for _ in range(3):
            w = rng.normal(size=3)
            rho = lifted_kruskal(lg, w)
            value = lifted_mst_value(lg, w, rho)
            ground_w = expand_rho(lg, w)
            best = brute_force_mst(ring_model, ground_w)
            assert value == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("builder,label", [
        (lambda: lt.zoo.ring_pendant_model(), "ring"),
        (lambda: build("clique_cycle", 3, 1.0), "cc3"),
        (lambda: build("clique_cycle", 5, 1.0), "cc5"),
        (lambda: build("complete_graph", 6, -1.0), "cg6"),
    ])
    def test_fifty_random_weightings_match_ground(self, builder, label):
        g = builder()
        lg = lt.compute_orbits(g)
        rng = np.random.default_rng(hash(label) % (2 ** 31))
        for _ in range(50):
            w = rng.normal(size=len(lg.edge_orbits))
            rho = lifted_kruskal(lg, w)
            lifted_value = lifted_mst_value(lg, w, rho)
            ground_value, _ = lt.ground_kruskal(g, expand_rho(lg, w))
            assert abs(lifted_value - ground_value) < 1e-9
            assert tree_edge_total(lg, rho) == pytest.approx(len(g.nodes) - 1)

    def test_membership_in_tree_polytope(self, ring_model, ring_lifted):
        lg = ring_lifted
        rng = np.random.default_rng(4)
        for _ in range(5):
            rho = lifted_kruskal(lg, rng.normal(size=3))
            assert subtour_violations(ring_model, expand_rho(lg, rho)) == []

    def test_disconnected_graph_raises(self):
        # reciprocal-pair matching: one edge orbit, many ground components
        tm = lt.parse_model("0.5 [x != y ^ (R(x,y) ^ R(y,x))]")
        g = lt.ground(tm, 3)
        lg = lt.compute_orbits(g)
        assert len(lg.edge_orbits) == 1
        assert count_components(lg) == 3
        with pytest.raises(DisconnectedGraph):
            lifted_kruskal(lg, np.ones(len(lg.edge_orbits)))

    def test_disconnected_lifted_graph_raises(self):
        tm = lt.parse_model("0.5 [x != y ^ (V(x) ^ V(y))]\n"
                            "0.5 [x != y ^ (U(x) ^ U(y))]")
        g = lt.ground(tm, 3)
        lg = lt.compute_orbits(g)
        assert count_components(lg) == 2
        with pytest.raises(DisconnectedGraph):
            lifted_kruskal(lg, np.ones(len(lg.edge_orbits)))

    def test_prefix_component_counts_match_ground(self, ring_model, ring_lifted):
        """Every prefix subgraph seen by the sort order counts correctly."""
        lg = ring_lifted
        rng = np.random.default_rng(8)
        for _ in range(20):
            w = rng.normal(size=3)
            order = sorted(range(3), key=lambda e: (-w[e], e))
            for p in range(1, 4):
                prefix = order[:p]
                orbits = set()
                for eid in prefix:
                    orbits |= {lg.edge_orbits[eid].u_orbit,
                               lg.edge_orbits[eid].v_orbit}
                ground_ids = [k for k in range(len(ring_model.edges))
                              if lg.edge_orbit_of[k] in prefix]
                nodes = sorted({i for oid in orbits
                                for i in lg.node_orbits[oid].members})
                parent = {i: i for i in nodes}

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                for k in ground_ids:
                    u, v = ring_model.edges[k]
                    ra, rb = find(u), find(v)
                    if ra != rb:
                        parent[rb] = ra
                expected = len({find(i) for i in nodes})
                assert count_components(lg, orbits, prefix) == expected


class TestInitRhoUniform:
    def test_ring_reproduces_uniform_tree_point(self, ring_lifted):
        lg = ring_lifted
        rho = init_rho_uniform(lg)
        assert abs(rho[orbit_id_by_tag(lg, "stem")] - 1.0) < 1e-6
        assert abs(rho[orbit_id_by_tag(lg, "ring")] - 0.4) < 1e-6
        assert abs(rho[orbit_id_by_tag(lg, "chord")] - 0.4) < 1e-6

    def test_tree_graph_all_ones(self):
        b = lt.GroundModelBuilder(range(4))
        hub = b.add_node("atom", "H", (), 2)
        for i in range(3):
            leaf = b.add_node("atom", "L", (i,), 2)
            b.add_edge_theta(hub, leaf, np.zeros((2, 2)), tag="spoke")
        lg = lt.compute_orbits(b.build())
        np.testing.assert_allclose(init_rho_uniform(lg), 1.0, atol=1e-9)

    def test_complete_graph_n6(self):
        g = build("complete_graph", 6, -1.0)
        lg = lt.compute_orbits(g)
        rho = init_rho_uniform(lg)
        assert abs(rho[0] - 5 / 15) < 1e-9
        assert subtour_violations(g, expand_rho(lg, rho)) == []

    def test_membership(self, ring_model, ring_lifted):
        rho = init_rho_uniform(ring_lifted)
        assert subtour_violations(ring_model, expand_rho(ring_lifted, rho)) == []

    def test_component_counts_memoized(self, monkeypatch):
        """One pinned count per distinct (node-orbit, edge-orbit) set, and the
        same rho as counting every query afresh from per-node keys."""
        g = build("clique_cycle", 16, 0.5)
        with monkeypatch.context() as m:
            m.setattr(spanning, "_ground_components_of", _uncached_components_of)
            expected = init_rho_uniform(lt.compute_orbits(g))

        queries, pinned = [], []
        count, size = spanning._ground_components_of, spanning._pinned_component_size

        def counted(lg, node_orbit_ids, edge_orbit_ids):
            queries.append((frozenset(node_orbit_ids), frozenset(edge_orbit_ids)))
            return count(lg, node_orbit_ids, edge_orbit_ids)

        def sized(*args):
            pinned.append(args)
            return size(*args)

        monkeypatch.setattr(spanning, "_ground_components_of", counted)
        monkeypatch.setattr(spanning, "_pinned_component_size", sized)
        rho = init_rho_uniform(lt.compute_orbits(g))
        assert rho.dtype == expected.dtype and rho.tobytes() == expected.tobytes()
        assert len(queries) > len(set(queries))
        assert len(pinned) == len(set(queries)) <= 18


def _uncached_components_of(lg, node_orbit_ids, edge_orbit_ids):
    """Ground component count with a key per node and a union per ground edge."""
    model = lg.model
    node_ids = [i for oid in node_orbit_ids for i in lg.node_orbits[oid].members]
    u0 = lg.node_orbits[min(node_orbit_ids)].rep
    distinguished = frozenset(model.nodes[u0].consts)
    keys = {}
    class_of = {i: keys.setdefault(lt.symmetry.node_pattern(model, i, distinguished), len(keys))
                for i in node_ids}
    parent = list(range(len(keys)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for eid in edge_orbit_ids:
        for u, v in lg.edge_orbits[eid].members:
            parent[find(class_of[v])] = find(class_of[u])
    root = find(class_of[u0])
    comp = sum(1 for i in node_ids if find(class_of[i]) == root)
    return len(node_ids) // comp


class TestOptimizeRho:
    def test_independent_model_keeps_rho(self):
        # zero edge potentials: mutual information vanishes, so one step
        # reproposes the same spanning-tree point and nothing moves
        b = lt.GroundModelBuilder(range(4))
        ids = [b.add_node("atom", "V", (i,), 2) for i in range(4)]
        for i in range(4):
            b.add_node_theta(ids[i], [0.0, 0.3])
        for i, j in itertools.combinations(range(4), 2):
            b.add_edge_theta(ids[i], ids[j], np.zeros((2, 2)), tag="e")
        g = b.build()
        lg = lt.compute_orbits(g)
        rho0 = init_rho_uniform(lg)
        rho, res = optimize_rho(lg, "local", rho0, outer_iters=1,
                                tol=1e-7, max_iters=2000)
        node_h, edge_h = orbit_entropies(lg, res.tau)
        eo = lg.edge_orbits[0]
        mi = node_h[eo.u_orbit] + node_h[eo.v_orbit] - edge_h[eo.id]
        assert abs(mi) < 1e-6
        np.testing.assert_allclose(rho, rho0, atol=1e-9)

    def test_ring_improves_bound(self, ring_lifted):
        lg = ring_lifted
        rho0 = init_rho_uniform(lg)
        base = lt.frank_wolfe(lg, outer="local", rho=rho0, tol=1e-7,
                              max_iters=5000)
        rho, res = optimize_rho(lg, "local", rho0, outer_iters=6,
                                tol=1e-7, max_iters=5000)
        assert res.bound <= base.bound + 1e-7

    def test_complete_graph_rho_pinned(self):
        g = build("complete_graph", 5, -1.0)
        lg = lt.compute_orbits(g)
        rho0 = init_rho_uniform(lg)
        rho, _ = optimize_rho(lg, "local", rho0, outer_iters=3,
                              tol=1e-6, max_iters=2000)
        assert abs(rho[0] - 4 / 10) < 1e-9

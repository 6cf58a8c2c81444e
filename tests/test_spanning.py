"""Lifted spanning tree tests against ground Kruskal and explicit union-find."""

import itertools

import numpy as np
import pytest

import liftedtrw as lt
from liftedtrw import spanning, symmetry
from liftedtrw.spanning import (DisconnectedGraph, count_components,
                                init_rho_uniform, lifted_kruskal,
                                lifted_mst_value, optimize_rho,
                                orbit_entropies, tree_edge_total)

from conftest import (build, edge_orbit_tags, expand_rho, ground_components, members,
                      node_desc, ordered_key, subtour_violations)


def orbit_id_by_tag(lg, tag):
    return edge_orbit_tags(lg).index(tag)


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
                nodes = sorted({i for oid in orbits for i in members(lg.node_orbit_of, oid)})
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


    @pytest.mark.parametrize("name", ["complete_graph", "friends_smokers", "clique_cycle"])
    def test_identity_lifting_needs_no_pinning(self, monkeypatch, name):
        """Under the identity lifting every connected set of orbits is one
        ground component: the counts of every prefix of the edges equal the
        ground union-find's, and no pinned classes are built."""
        g = build(name, 5, 0.5)
        lg = lt.trivial_lifting(g)
        monkeypatch.setattr(symmetry, "_pinned_component_size", None)
        for p in range(0, len(g.edges) + 1, 7):
            ends = {int(i) for i in g.edges[:p].ravel()}
            assert (count_components(lg, ends, range(p))
                    == ground_components(g, range(p)) - (len(g.nodes) - len(ends)))
        assert count_components(lg) == ground_components(g, range(len(g.edges)))
        assert "_pinned_tables" not in vars(lg)


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

    def test_tree_memoized_by_weight_order(self, monkeypatch):
        """Weights in one order give one tree: a later call with other
        weights in that order counts no components, and every call returns
        its own copy, so changing one result leaves the next intact."""
        g = build("clique_cycle", 6, 0.5)
        lg = lt.compute_orbits(g)
        w = np.arange(len(lg.edge_orbits), dtype=float)
        first = lifted_kruskal(lg, w)
        expected = first.copy()
        first[:] = -1.0
        counted = []
        count = spanning.count_components

        def recorded(*args):
            counted.append(args)
            return count(*args)

        monkeypatch.setattr(spanning, "count_components", recorded)
        assert lifted_kruskal(lg, 3.0 * w + 1.0).tobytes() == expected.tobytes()
        assert counted == []
        reverse = lifted_kruskal(lg, -w)
        assert counted
        assert reverse.tobytes() == lifted_kruskal(lt.compute_orbits(g), -w).tobytes()

    def test_warm_graph_gives_fresh_bytes(self):
        """100 random weight vectors, a third of them with ties, give the
        bytes on one lifted graph, warmed by the trees and prefix counts of
        all before, that they give on a fresh one."""
        g = build("clique_cycle", 10, 0.5)
        warm = lt.compute_orbits(g)
        rng = np.random.default_rng(12)
        for i in range(100):
            w = rng.normal(size=len(warm.edge_orbits))
            if i % 3 == 0:
                w = np.round(w)
            got = lifted_kruskal(warm, w)
            want = lifted_kruskal(lt.compute_orbits(g), w)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_one_component_count_per_prefix(self, monkeypatch):
        """Orders that share a prefix count its ground components once: on
        clique_cycle n=10 the uniform rho counts 22 distinct prefixes, each once."""
        prefixes = []
        count = spanning.count_components

        def recorded(lg, nodes, edges):
            prefixes.append(frozenset(edges))
            return count(lg, nodes, edges)

        monkeypatch.setattr(spanning, "count_components", recorded)
        init_rho_uniform(lt.compute_orbits(build("clique_cycle", 10, 0.5)))
        assert len(prefixes) == len(set(prefixes)) == 22

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

    @pytest.mark.parametrize("size, fill, match", [
        (3, 1.0, "one entry per edge orbit"),      # raised IndexError mid-scan
        (8, 1.0, "one entry per edge orbit"),      # dropped the last two
        (6, np.nan, "non-finite"),                 # gave a tree for no order
        (6, np.inf, "non-finite"),
    ])
    def test_malformed_weights_raise(self, size, fill, match):
        """``clique_cycle`` n=4 has 6 edge orbits; a weight vector of another
        length or with a non-finite entry raises."""
        lg = lt.compute_orbits(build("clique_cycle", 4, 1.0))
        assert len(lg.edge_orbits) == 6
        weights = np.arange(size, dtype=float)
        weights[-1] = fill
        with pytest.raises(ValueError, match=match):
            lifted_kruskal(lg, weights)

    @pytest.mark.parametrize("size", [1, 2])
    def test_malformed_rho_raises_in_totals(self, size):
        """``tree_edge_total`` and ``lifted_mst_value`` take one entry per
        edge orbit, as ``lifted_kruskal`` does; one entry used to broadcast
        to a silent 27.0 on ``clique_cycle`` n=4."""
        lg = lt.compute_orbits(build("clique_cycle", 4, 1.0))
        rho = np.full(size, 0.5)
        with pytest.raises(ValueError, match="one entry per edge orbit"):
            tree_edge_total(lg, rho)
        with pytest.raises(ValueError, match="one entry per edge orbit"):
            lifted_mst_value(lg, np.ones(6), rho)
        with pytest.raises(ValueError, match="one entry per edge orbit"):
            lifted_mst_value(lg, rho, np.full(6, 0.5))

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
                nodes = sorted({i for oid in orbits for i in members(lg.node_orbit_of, oid)})
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
            m.setattr(symmetry, "_ground_components_of", _uncached_components_of)
            expected = init_rho_uniform(lt.compute_orbits(g))

        queries, pinned = [], []
        count, size = symmetry._ground_components_of, symmetry._pinned_component_size

        def counted(lg, node_orbit_ids, edge_orbit_ids):
            queries.append((frozenset(node_orbit_ids), frozenset(edge_orbit_ids)))
            return count(lg, node_orbit_ids, edge_orbit_ids)

        def sized(*args):
            pinned.append(args)
            return size(*args)

        monkeypatch.setattr(symmetry, "_ground_components_of", counted)
        monkeypatch.setattr(symmetry, "_pinned_component_size", sized)
        rho = init_rho_uniform(lt.compute_orbits(g))
        assert rho.dtype == expected.dtype and rho.tobytes() == expected.tobytes()
        assert len(queries) > len(set(queries))
        assert len(pinned) == len(set(queries)) <= 18

    @pytest.mark.parametrize("name", ["complete_graph", "clique_cycle", "friends_smokers"])
    @pytest.mark.parametrize("n", [6, 12])
    def test_rho_bytes_match_uncached_counts(self, monkeypatch, name, n):
        """The pinned class and pair tables give the rho bytes of counting
        every query afresh from per-node keys and per-edge unions."""
        g = build(name, n, 0.5)
        with monkeypatch.context() as m:
            m.setattr(symmetry, "_ground_components_of", _uncached_components_of)
            expected = init_rho_uniform(lt.compute_orbits(g))
        rho = init_rho_uniform(lt.compute_orbits(g))
        assert rho.dtype == expected.dtype and rho.tobytes() == expected.tobytes()


def _uncached_components_of(lg, node_orbit_ids, edge_orbit_ids):
    """Ground component count with a key per node and a union per ground edge."""
    model = lg.model
    node_ids = [i for oid in node_orbit_ids for i in members(lg.node_orbit_of, oid)]
    u0 = lg.node_orbits[min(node_orbit_ids)].rep
    distinguished = frozenset(model.nodes[u0].consts)
    keys = {}
    class_of = {i: keys.setdefault(ordered_key((node_desc(model.nodes[i]),), distinguished),
                                   len(keys))
                for i in node_ids}
    parent = list(range(len(keys)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for eid in edge_orbit_ids:
        for u, v in model.edges[members(lg.edge_orbit_of, eid)].tolist():
            parent[find(class_of[v])] = find(class_of[u])
    root = find(class_of[u0])
    comp = sum(1 for i in node_ids if find(class_of[i]) == root)
    return len(node_ids) // comp


def record_solves(monkeypatch):
    """The list that every ``frank_wolfe`` result of ``optimize_rho`` joins."""
    solves = []
    solve = spanning.frank_wolfe

    def counted(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(spanning, "frank_wolfe", counted)
    return solves


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

    def test_one_point_polytope_solves_once(self, monkeypatch):
        """complete_graph has one edge orbit, so its spanning-tree polytope is
        the point rho0: the Kruskal direction gains nothing and the first
        solve is returned."""
        lg = lt.compute_orbits(build("complete_graph", 6, -1.0))
        rho0 = init_rho_uniform(lg)
        solves = record_solves(monkeypatch)
        rho, res = optimize_rho(lg, "local", rho0, outer_iters=5, max_iters=2000)
        assert len(solves) == 1 and res is solves[0]
        np.testing.assert_array_equal(rho, rho0)

    def test_projected_steps_need_few_solves(self, monkeypatch):
        """``clique_cycle`` n=6 W=1 ``local``: steps through the projection
        reach the bound that 43 solves of vertex steps reached
        (90.6935761473635) in at most 20 solves."""
        lg = lt.compute_orbits(build("clique_cycle", 6, 1.0))
        solves = record_solves(monkeypatch)
        _, res = optimize_rho(lg, "local", init_rho_uniform(lg), outer_iters=10,
                              tol=1e-4, max_iters=1000)
        assert len(solves) <= 20 and res.bound <= 90.6935761473635

    @pytest.mark.parametrize("outer", ["local", "cycle"])
    def test_rho_stays_in_tree_polytope(self, ring_model, ring_lifted, outer):
        """Every accepted step is a projection onto the polytope, so the
        optimized rho satisfies every ground subtour row and sums to
        |V| - 1 tree edges."""
        lg = ring_lifted
        rho0 = init_rho_uniform(lg)
        rho, _ = optimize_rho(lg, outer, rho0, tol=1e-6, max_iters=2000)
        assert np.abs(rho - rho0).max() > 0.1
        assert subtour_violations(ring_model, expand_rho(lg, rho)) == []
        assert tree_edge_total(lg, rho) == pytest.approx(len(ring_model.nodes) - 1, abs=1e-9)

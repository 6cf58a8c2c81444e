"""Reference-computation tests: the oracles themselves get cross-checked."""

import itertools
import math

import numpy as np
import pytest

import liftedtrw as lt
from liftedtrw.oracle import (TooLarge, brute_force,
                              counting_elimination_complete, ground_kruskal,
                              ground_trw, random_exchangeable_moments,
                              random_tree_point)

from conftest import build, complete_state, expand_rho, subtour_violations


class TestBruteForce:
    def test_single_node(self):
        g = lt.ground(lt.parse_model("W V(x)").bind_weight(0.9), 1)
        ex = brute_force(g)
        assert abs(ex.log_z - math.log(1 + math.exp(0.9))) < 1e-12
        assert abs(ex.node_marginals[0][1]
                   - math.exp(0.9) / (1 + math.exp(0.9))) < 1e-12

    def test_independent_model_product_form(self):
        tm = lt.parse_model("0.4 V(x)\n-0.3 U(x)")
        g = lt.ground(tm, 3)
        ex = brute_force(g)
        expected = 3 * (math.log(1 + math.exp(0.4)) + math.log(1 + math.exp(-0.3)))
        assert abs(ex.log_z - expected) < 1e-10

    def test_matches_direct_enumeration_with_aux(self):
        g = build("friends_smokers", 2, -0.6)
        ex = brute_force(g)
        atoms = g.atom_node_ids
        scores = []
        for idx in range(1 << len(atoms)):
            state = [0] * len(g.nodes)
            for pos, i in enumerate(atoms):
                state[i] = (idx >> pos) & 1
            scores.append(g.score_state(complete_state(g, state)))
        scores = np.array(scores)
        ref = np.log(np.exp(scores - scores.max()).sum()) + scores.max()
        assert abs(ex.log_z - ref) < 1e-10

    def test_structural_zero_between_atoms(self):
        """An edge mask forbidding (1, 1) between two atoms leaves three
        states: log Z = log 3, the enumeration by ``score_state``, which the
        local bound may not undercut."""
        b = lt.GroundModelBuilder(range(2))
        u, v = (b.add_node("atom", "V", (i,), 2) for i in range(2))
        b.add_edge_theta(u, v, np.zeros((2, 2)),
                         structural_zero=np.array([[False, False], [False, True]]))
        g = b.build()
        ex = brute_force(g)
        scores = np.array([g.score_state(list(x)) for x in itertools.product(range(2), repeat=2)])
        finite = scores[np.isfinite(scores)]
        assert finite.size == 3
        assert abs(ex.log_z - np.log(np.exp(finite).sum())) < 1e-12
        assert abs(ex.log_z - math.log(3)) < 1e-12
        assert ex.edge_moments[0][1, 1] == 0.0
        lg = lt.compute_orbits(g)
        res = lt.frank_wolfe(lg, outer="local", rho=lt.init_rho_uniform(lg))
        assert res.bound >= ex.log_z - 1e-9

    def test_relabeling_invariance(self):
        # hand-built model rebuilt under a constant permutation: identical logZ
        def ring_with_perm(perm):
            base = lt.zoo.ring_pendant_model(scale=0.9)
            b = lt.GroundModelBuilder(range(5))
            remap = {}
            for i, nd in enumerate(base.nodes):
                remap[i] = b.add_node(nd.kind, nd.label,
                                      tuple(perm[c] for c in nd.consts),
                                      nd.n_values, nd.tag)
                b.add_node_theta(remap[i], base.theta_node[i])
            for k, (u, v) in enumerate(base.edges.tolist()):
                b.add_edge_theta(remap[u], remap[v], base.theta_edge[k],
                                 tag=base.edge_tags[k])
            return b.build()

        ref = brute_force(ring_with_perm(list(range(5)))).log_z
        for perm in ([1, 2, 3, 4, 0], [4, 2, 0, 3, 1]):
            assert abs(brute_force(ring_with_perm(perm)).log_z - ref) < 1e-10

    def test_too_large(self):
        g = build("complete_graph", 5, -1.0)
        with pytest.raises(TooLarge):
            brute_force(g, max_states=16)

    def test_moments_are_normalized(self):
        g = build("friends_smokers", 2, 0.3)
        ex = brute_force(g)
        for m in ex.node_marginals:
            assert abs(m.sum() - 1.0) < 1e-9
            assert (m >= -1e-12).all()
        for m in ex.edge_moments:
            assert abs(m.sum() - 1.0) < 1e-9

    def test_lifted_projection_constant_on_orbits(self):
        g = build("complete_graph", 4, -1.0)
        lg = lt.compute_orbits(g)
        ex = brute_force(g, lg)
        mu = ex.ground_moments
        for f in range(g.n_features):
            var = lg.feat_to_var[f]
            assert abs(mu[f] - ex.lifted_moments[var]) < 1e-9


class TestCountingElimination:
    @pytest.mark.parametrize("n", [3, 5, 8, 10])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            w = float(rng.uniform(-2, 2))
            we = float(rng.uniform(-0.5, 0.2))
            tm = lt.parse_model(
                f"W V(x)\n{we} [x != y ^ (V(x) <-> V(y))]").bind_weight(w)
            g = lt.ground(tm, n)
            ex = brute_force(g)
            log_z, marg = counting_elimination_complete(n, w, we)
            assert abs(log_z - ex.log_z) < 1e-10
            assert abs(marg - ex.node_marginals[0][1]) < 1e-10

    def test_independent_limit(self):
        log_z, marg = counting_elimination_complete(7, 0.8, 0.0)
        assert abs(log_z - 7 * math.log(1 + math.exp(0.8))) < 1e-12

    def test_symmetric_marginal_at_zero_field(self):
        _, marg = counting_elimination_complete(9, 0.0, -0.1)
        assert abs(marg - 0.5) < 1e-12


class TestGroundTrw:
    def test_matches_lifted_on_ring(self, ring_model, ring_lifted):
        rho = lt.init_rho_uniform(ring_lifted)
        a = lt.frank_wolfe(ring_lifted, outer="local", rho=rho,
                           tol=1e-6, max_iters=20000)
        b = ground_trw(ring_model, expand_rho(ring_lifted, rho),
                       outer="local", tol=1e-6, max_iters=20000)
        assert abs(a.bound - b.bound) < 1e-5

    def test_exact_on_tree_with_unit_rho(self):
        b = lt.GroundModelBuilder(range(4))
        ids = [b.add_node("atom", "V", (i,), 2) for i in range(4)]
        rng = np.random.default_rng(0)
        for i in range(4):
            b.add_node_theta(ids[i], [0.0, rng.normal()])
        for i in range(3):
            m = rng.normal(size=(2, 2))
            b.add_edge_theta(ids[i], ids[i + 1], m, tag=f"e{i}")
        g = b.build()
        ex = brute_force(g)
        res = ground_trw(g, np.ones(3), outer="local", tol=1e-8, max_iters=5000)
        assert abs(res.bound - ex.log_z) < 1e-6

    def test_single_edge_zero_theta(self):
        b = lt.GroundModelBuilder(range(2))
        u = b.add_node("atom", "V", (0,), 2)
        v = b.add_node("atom", "V", (1,), 2)
        b.add_edge_theta(u, v, np.zeros((2, 2)))
        g = b.build()
        res = ground_trw(g, np.ones(1), outer="local", tol=1e-8)
        assert abs(res.bound - math.log(4)) < 1e-8

    def test_auxiliary_heavy_ground_model_converges(self):
        # many 8-valued auxiliary nodes: the structural zeros must not count
        # toward the refinement size cap, or the ground run crawls
        tm = lt.parse_model(
            "predicate P1/1\npredicate P2/2\n"
            "0.192 [P1(x)]\n"
            "1.222 [(P1(y) ^ P1(x))]\n"
            "1.263 [y != z ^ (((!P2(z,z) -> P1(z)) -> !P2(y,x)))]")
        g = lt.ground(tm, 3)
        lg = lt.compute_orbits(g)
        rho = lt.init_rho_uniform(lg)
        rho_g = expand_rho(lg, rho)
        a = lt.frank_wolfe(lg, outer="local", rho=rho, tol=1e-6, max_iters=2000)
        b = ground_trw(g, rho_g, outer="local", tol=1e-6, max_iters=2000)
        assert a.converged and b.converged
        assert abs(a.bound - b.bound) < 1e-5


class TestGroundKruskal:
    def test_matches_exhaustive_tree_enumeration(self):
        b = lt.GroundModelBuilder(range(5))
        ids = [b.add_node("atom", "V", (i,), 2) for i in range(5)]
        rng = np.random.default_rng(3)
        pairs = list(itertools.combinations(range(5), 2))
        for i, j in pairs:
            b.add_edge_theta(ids[i], ids[j], np.zeros((2, 2)), tag=f"{i}{j}")
        g = b.build()
        for _ in range(5):
            w = rng.normal(size=len(pairs))
            got, chosen = ground_kruskal(g, w)
            assert len(chosen) == 4
            best = -np.inf
            for subset in itertools.combinations(range(len(pairs)), 4):
                parent = list(range(5))

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                comps = 5
                for k in subset:
                    u, v = g.edges[k]
                    ra, rb = find(u), find(v)
                    if ra != rb:
                        parent[rb] = ra
                        comps -= 1
                if comps == 1:
                    best = max(best, sum(w[k] for k in subset))
            assert abs(got - best) < 1e-12

    def test_random_tree_point_membership(self, ring_model):
        rng = np.random.default_rng(5)
        rho = random_tree_point(ring_model, rng)
        assert subtour_violations(ring_model, rho) == []


class TestRandomExchangeable:
    def test_uniform_case(self):
        # seed-independent identities evaluated on a constructed uniform case
        n = 4
        moments, c, marg = random_exchangeable_moments(n, 0)
        assert abs(c.sum() - 1.0) < 1e-12
        assert abs(moments["e00"] + moments["e11"] + 2 * moments["a01"] - 1.0) < 1e-12

    def test_twenty_seeds_satisfy_identities(self):
        for n in (3, 5):
            for seed in range(20):
                m, c, _ = random_exchangeable_moments(n, seed)
                denom = n * (n - 1)
                k = np.arange(n + 1)
                assert abs(float(((n - k) * (n - k - 1) / denom) @ c) - m["e00"]) < 1e-12
                assert abs(float((k * (k - 1) / denom) @ c) - m["e11"]) < 1e-12
                assert abs(float((k * (n - k) / denom) @ c) - m["a01"]) < 1e-12

    def test_point_mass_limits(self):
        # a distribution concentrated on all-ones has c_n ~ 1, e11 ~ 1
        n = 3
        moments, c, _ = random_exchangeable_moments(n, 1)
        assert c.shape == (n + 1,)
        assert moments["e11"] <= 1.0 and moments["e00"] <= 1.0

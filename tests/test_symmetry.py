"""Orbit computation tests, verified by explicit renaming-group enumeration."""

import itertools
import math

import numpy as np
import pytest

import liftedtrw as lt
from liftedtrw.symmetry import canonical_pattern, edge_pattern

from conftest import build, members


def _desc(pred, consts):
    return ("atom", pred, None, 2, tuple(consts))


class TestCanonicalPattern:
    def test_renamed_pairs_share_key(self):
        a, _ = canonical_pattern((_desc("Friends", (0, 1)),))
        b, _ = canonical_pattern((_desc("Friends", (2, 3)),))
        assert a == b

    def test_ring_edges_share_key_and_flip(self, ring_model):
        lg = lt.compute_orbits(ring_model)
        k01 = ring_model.edge_index[tuple(sorted(
            (ring_model.node_index[("atom", "B", (0,))],
             ring_model.node_index[("atom", "B", (1,))])))]
        k12 = ring_model.edge_index[tuple(sorted(
            (ring_model.node_index[("atom", "B", (1,))],
             ring_model.node_index[("atom", "B", (2,))])))]
        key1, flip1, _ = edge_pattern(ring_model, k01)
        key2, flip2, _ = edge_pattern(ring_model, k12)
        assert key1 == key2
        assert flip1 and flip2

    def test_first_vs_second_argument_incidence(self):
        a, _ = canonical_pattern((_desc("Smokes", (0,)), _desc("Friends", (0, 1))))
        b, _ = canonical_pattern((_desc("Smokes", (1,)), _desc("Friends", (0, 1))))
        assert a != b

    def test_distinguished_constants_split(self):
        a = canonical_pattern((_desc("V", (0,)),), distinguished=frozenset({0}))[0]
        b = canonical_pattern((_desc("V", (1,)),), distinguished=frozenset({0}))[0]
        assert a != b


class TestComputeOrbits:
    def test_ring_model_orbits(self, ring_model, ring_lifted):
        lg = ring_lifted
        assert sorted(o.size for o in lg.node_orbits) == [5, 5]
        assert [o.size for o in lg.edge_orbits] == [5, 5, 5]
        by_tag = {eo.key[0]: eo for eo in lg.edge_orbits}
        core = next(o.id for o in lg.node_orbits
                    if ring_model.nodes[o.rep].label == "B")
        pend = next(o.id for o in lg.node_orbits
                    if ring_model.nodes[o.rep].label == "R")
        assert by_tag["stem"].d(core) == 1 and by_tag["stem"].d(pend) == 1
        assert by_tag["ring"].d(core) == 2 and by_tag["ring"].d(pend) == 0
        assert by_tag["chord"].d(core) == 2
        assert by_tag["ring"].flip and by_tag["chord"].flip
        assert not by_tag["stem"].flip

    def test_single_node_model(self):
        g = lt.ground(lt.parse_model("W V(x)").bind_weight(1.0), 1)
        lg = lt.compute_orbits(g)
        assert len(lg.node_orbits) == 1
        assert lg.node_orbits[0].size == 1
        assert len(lg.edge_orbits) == 0

    def test_complete_graph_n4(self):
        g = build("complete_graph", 4, -1.0)
        lg = lt.compute_orbits(g)
        assert len(lg.node_orbits) == 1 and lg.node_orbits[0].size == 4
        assert len(lg.edge_orbits) == 1
        eo = lg.edge_orbits[0]
        assert eo.size == 6 and eo.flip
        assert eo.u_orbit == eo.v_orbit
        assert eo.d(eo.u_orbit) == 2

    def test_orbit_sizes_sum(self):
        for name, n in (("friends_smokers", 3), ("clique_cycle", 3)):
            g = build(name, n, -1.0)
            lg = lt.compute_orbits(g)
            assert sum(o.size for o in lg.node_orbits) == len(g.nodes)
            assert sum(o.size for o in lg.edge_orbits) == len(g.edges)

    def test_orbit_size_divides_group_order(self):
        for n in (3, 4, 5):
            g = build("complete_graph", n, -1.0)
            lg = lt.compute_orbits(g)
            for o in lg.node_orbits:
                assert math.factorial(n) % o.size == 0

    def test_lifted_theta_is_orbit_sum(self):
        g = build("complete_graph", 4, -1.0)
        lg = lt.compute_orbits(g)
        v1 = lg.node_var(0, 1)
        assert abs(lg.lifted_theta[v1] - 4 * (-1.0)) < 1e-12
        eo = lg.edge_orbits[0]
        assert abs(lg.lifted_theta[lg.edge_var(eo.id, 0, 0)] - 6 * (-0.2)) < 1e-12
        # merged off-diagonal carries both ordered entries of every member
        assert abs(lg.lifted_theta[lg.edge_var(eo.id, 0, 1)] - 0.0) < 1e-12
        assert lg.edge_var(eo.id, 0, 1) == lg.edge_var(eo.id, 1, 0)

    def test_tying_violation_detected(self):
        b = lt.GroundModelBuilder(range(2))
        n0 = b.add_node("atom", "V", (0,), 2)
        n1 = b.add_node("atom", "V", (1,), 2)
        b.add_node_theta(n0, [0.0, 1.0])
        b.add_node_theta(n1, [0.0, 2.0])  # breaks the tie within the orbit
        with pytest.raises(lt.TyingViolation, match=r"node orbit .*value \(1,\)"):
            lt.compute_orbits(b.build())

        def pairs(thetas, zeros=(None, None)):
            """A(i)-B(i) for i = 0, 1: one edge orbit without flip symmetry."""
            b = lt.GroundModelBuilder(range(2))
            for i, (theta, zero) in enumerate(zip(thetas, zeros)):
                b.add_edge_theta(b.add_node("atom", "A", (i,), 2),
                                 b.add_node("atom", "B", (i,), 2), theta,
                                 structural_zero=zero)
            return b.build()

        tied = [[0.5, -1.0], [2.0, 3.0]]
        lg = lt.compute_orbits(pairs([tied, tied]))
        assert len(lg.edge_orbits) == 1 and not lg.edge_orbits[0].flip
        # the tolerance scales with the entry: 1e-9 * 3 at (1, 1)
        lt.compute_orbits(pairs([tied, [[0.5, -1.0], [2.0, 3.0 + 2e-9]]]))
        off = [[0.5, -1.0], [2.0, 3.0 + 1e-8]]  # one entry of one member
        with pytest.raises(lt.TyingViolation, match=r"value \(1, 1\)"):
            lt.compute_orbits(pairs([tied, off]))
        zero = np.array([[False, True], [False, False]])
        with pytest.raises(lt.TyingViolation, match="structural zeros"):
            lt.compute_orbits(pairs([tied, tied], [zero, None]))

        # one edge V(0)-V(1): a flip orbit of one member, so every entry is
        # tied and only the merged off-diagonal pair can disagree
        b = lt.GroundModelBuilder(range(2))
        u, v = (b.add_node("atom", "V", (i,), 2) for i in range(2))
        b.add_edge_theta(u, v, [[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(lt.TyingViolation, match=r"value \(0, 1\)"):
            lt.compute_orbits(b.build())
        b = lt.GroundModelBuilder(range(2))
        u, v = (b.add_node("atom", "V", (i,), 2) for i in range(2))
        b.add_edge_theta(u, v, [[0.0, 1.0], [1.0, 0.0]], structural_zero=zero)
        with pytest.raises(lt.TyingViolation, match="structural zeros"):
            lt.compute_orbits(b.build())

    def test_expand_project_roundtrip(self):
        g = build("clique_cycle", 3, 1.0)
        lg = lt.compute_orbits(g)
        rng = np.random.default_rng(0)
        tau = rng.random(lg.n_vars)
        np.testing.assert_allclose(lg.project(lg.expand(tau)), tau, atol=1e-12)

    def test_theta_expansion_identity(self):
        g = build("friends_smokers", 2, -0.7)
        lg = lt.compute_orbits(g)
        rng = np.random.default_rng(1)
        tau = rng.random(lg.n_vars)
        lifted = float(lg.lifted_theta @ tau)
        ground = float(g.theta_vector() @ lg.expand(tau))
        assert abs(lifted - ground) < 1e-9


class TestFixNode:
    def test_complete_graph_fix(self):
        g = build("complete_graph", 4, -1.0)
        fixed = lt.fix_node(g, 0)
        assert sorted(o.size for o in fixed.node_orbits) == [1, 3]
        assert sorted(o.size for o in fixed.edge_orbits) == [3, 3]
        singleton = [o for o in fixed.node_orbits if o.size == 1][0]
        assert singleton.rep == 0 and members(fixed.node_orbit_of, singleton.id) == [0]

    def test_single_node_unchanged(self):
        g = lt.ground(lt.parse_model("W V(x)").bind_weight(1.0), 1)
        fixed = lt.fix_node(g, 0)
        assert len(fixed.node_orbits) == 1

    def test_ring_fix_splits_core_orbit(self, ring_model):
        """Pinning a core node splits its orbit; classes coarsen the stabilizer.

        For hand-built (non-renaming) symmetry the distinguished-constant
        classes need not equal the exact stabilizer orbits, but they must
        never split one: every class is a union of stabilizer orbits.
        """
        u = ring_model.node_index[("atom", "B", (0,))]
        fixed = lt.fix_node(ring_model, u)
        singleton = [o for o in fixed.node_orbits if members(fixed.node_orbit_of, o.id) == [u]]
        assert len(singleton) == 1
        core_sizes = sorted(o.size for o in fixed.node_orbits
                            if ring_model.nodes[o.rep].label == "B")
        assert core_sizes == [1, 4]

        from liftedtrw.symmetry import _renaming_node_map, _UnionFind
        uf = _UnionFind(len(ring_model.nodes))
        kept = 0
        for perm in itertools.permutations(range(5)):
            mapping = _renaming_node_map(ring_model, dict(enumerate(perm)))
            if mapping is None or mapping[u] != u:
                continue
            kept += 1
            for i, j in enumerate(mapping):
                uf.union(i, int(j))
        assert kept == 2  # identity and one reflection
        enum_parts = {frozenset(p) for p in uf.partition()}
        for orbit in fixed.node_orbits:
            orbit_nodes = set(members(fixed.node_orbit_of, orbit.id))
            covered = [p for p in enum_parts if p <= orbit_nodes]
            assert orbit_nodes == set().union(*covered)

    def test_generated_model_fix_matches_stabilizer(self):
        g = build("friends_smokers", 3, -0.5)
        u = g.node_index[("atom", "Smokes", (0,))]
        fixed = lt.fix_node(g, u)
        from liftedtrw.symmetry import _renaming_node_map, _UnionFind
        uf = _UnionFind(len(g.nodes))
        for perm in itertools.permutations(range(3)):
            mapping = _renaming_node_map(g, dict(enumerate(perm)))
            if mapping is None or mapping[u] != u:
                continue
            for i, j in enumerate(mapping):
                uf.union(i, int(j))
        enum_parts = uf.partition()
        key_parts = sorted(tuple(members(fixed.node_orbit_of, o.id)) for o in fixed.node_orbits)
        assert key_parts == enum_parts


def _bundled_models():
    for name in lt.zoo.MODEL_TEXTS:
        for n in (1, 2, 3, 5):
            yield pytest.param(lambda name=name, n=n: build(name, n, 0.5), id=f"{name}-{n}")
    for name in sorted(lt.zoo.HAND_BUILT):
        yield pytest.param(lambda name=name: lt.zoo.build_hand_built(name), id=name)


class TestOrbitRecords:
    """An orbit holds its size and one representative; membership is read off
    ``node_orbit_of`` and ``edge_orbit_of``, one entry per ground element."""

    @pytest.mark.parametrize("make", list(_bundled_models()))
    def test_size_and_rep_match_orbit_of(self, make):
        g = make()
        liftings = [(lt.compute_orbits(g), frozenset()), (lt.trivial_lifting(g), None)]
        for u in sorted({0, g.n_nodes - 1}) if g.n_nodes else ():  # clique_cycle-1 has none
            liftings.append((lt.fix_node(g, u), frozenset(g.node_table.consts_of(u))))
        for lg, distinguished in liftings:
            assert lg.node_orbit_of.shape == (g.n_nodes,)
            assert lg.edge_orbit_of.shape == (len(g.edges),)
            for orb in lg.node_orbits:
                ids = members(lg.node_orbit_of, orb.id)
                assert (orb.size, orb.rep) == (len(ids), ids[0])
            for eo in lg.edge_orbits:
                ids = members(lg.edge_orbit_of, eo.id)
                k = ids[0]  # the lowest-id member, oriented as the canonical key
                oriented = (tuple(g.edges[k].tolist()) if distinguished is None
                            else edge_pattern(g, k, distinguished)[2])
                assert (eo.size, eo.rep) == (len(ids), oriented)
                assert (eo.u_orbit, eo.v_orbit) == tuple(lg.node_orbit_of[list(eo.rep)].tolist())

    def test_edgeless_model_solves_at_every_outer(self):
        """complete_graph n=1 has one node and no edge: no orbit array is
        padded, and every outer bound gives its log Z."""
        g = build("complete_graph", 1, 0.5)
        lg = lt.compute_orbits(g)
        assert len(g.edges) == 0
        assert lg.edge_orbit_of.shape == lt.trivial_lifting(g).edge_orbit_of.shape == (0,)
        rho = lt.init_rho_uniform(lg)
        log_z = lt.brute_force(g).log_z
        for outer in lt.OUTER_CHOICES:
            res = lt.frank_wolfe(lg, outer=outer, rho=rho)
            assert res.converged and abs(res.bound - log_z) < 1e-9, outer
        assert abs(lt.ground_trw(g, rho[lg.edge_orbit_of]).bound - log_z) < 1e-9


class TestVerifyOrbits:
    @pytest.mark.parametrize("name,n,w", [
        ("complete_graph", 5, -1.0),
        ("clique_cycle", 3, 1.0),
        ("friends_smokers", 2, -0.5),
    ])
    def test_bundled_models_match(self, name, n, w):
        g = build(name, n, w)
        lg = lt.compute_orbits(g)
        report = lt.verify_orbits(lg, g)
        assert report.ok, report.mismatches
        assert report.group_size == math.factorial(n)

    def test_ring_model_matches_dihedral(self, ring_model, ring_lifted):
        report = lt.verify_orbits(ring_lifted, ring_model)
        assert report.ok, report.mismatches
        assert report.group_size == 10

    def test_empty_model(self):
        g = lt.ground(lt.parse_model(""), 2)
        report = lt.verify_orbits(lt.compute_orbits(g), g)
        assert report.ok

    def test_trivial_lifting_is_ground(self):
        g = build("complete_graph", 3, -1.0)
        lg0 = lt.trivial_lifting(g)
        assert len(lg0.node_orbits) == len(g.nodes)
        assert len(lg0.edge_orbits) == len(g.edges)
        assert lg0.n_vars == g.n_features
        np.testing.assert_allclose(lg0.lifted_theta, g.theta_vector(), atol=1e-12)

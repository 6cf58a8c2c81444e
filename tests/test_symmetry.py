"""Orbit computation tests, verified by explicit renaming-group enumeration."""

import itertools
import math

import numpy as np
import pytest

import liftedtrw as lt
from liftedtrw.symmetry import _check_invariants, _pinned_tables, _renaming_node_map, _UnionFind

from conftest import build, edge_orbit_tags, hand_built, keyed_edge, members, partition


class TestRenamingPartition:
    def test_renamed_pairs_share_an_orbit(self):
        g = hand_built(range(4), [("Friends", (0, 1), 2, None), ("Friends", (2, 3), 2, None),
                                  ("Friends", (1, 1), 2, None)])
        assert lt.compute_orbits(g).node_orbit_of.tolist() == [1, 1, 0]

    def test_ring_edges_share_an_orbit_and_flip(self, ring_model):
        lg = lt.compute_orbits(ring_model)
        core = [ring_model.node_index[("atom", "B", (i,))] for i in range(3)]
        k01, k12 = (ring_model.edge_index[tuple(sorted(pair))]
                    for pair in ((core[0], core[1]), (core[1], core[2])))
        assert lg.edge_orbit_of[k01] == lg.edge_orbit_of[k12]
        assert lg.edge_orbits[lg.edge_orbit_of[k01]].flip

    def test_first_vs_second_argument_incidence(self):
        """Smokes(0) meets Friends(0, 1) at its first argument, Smokes(1) at
        its second: one node orbit each side, two edge orbits."""
        g = hand_built(range(2), [("Smokes", (0,), 2, None), ("Smokes", (1,), 2, None),
                                  ("Friends", (0, 1), 2, None)], [(0, 2, None), (1, 2, None)])
        lg = lt.compute_orbits(g)
        assert lg.node_orbit_of[0] == lg.node_orbit_of[1]
        assert lg.edge_orbit_of[0] != lg.edge_orbit_of[1]
        assert not any(eo.flip for eo in lg.edge_orbits)

    def test_pinned_constant_splits_the_classes(self):
        g = hand_built(range(2), [("V", (0,), 2, None), ("V", (1,), 2, None)])
        lg = lt.compute_orbits(g)
        assert lg.node_orbit_of.tolist() == [0, 0]
        n_classes, class_of, node_table, _ = _pinned_tables(lg, frozenset({0}))
        assert n_classes == 2 and class_of[0] != class_of[1]
        assert node_table == [[(0, 1), (1, 1)]]


class TestComputeOrbits:
    def test_ring_model_orbits(self, ring_model, ring_lifted):
        lg = ring_lifted
        assert sorted(o.size for o in lg.node_orbits) == [5, 5]
        assert [o.size for o in lg.edge_orbits] == [5, 5, 5]
        by_tag = {tag: lg.edge_orbits[i] for i, tag in enumerate(edge_orbit_tags(lg))}
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

    @pytest.mark.parametrize("lifting", ["orbits", "trivial"])
    def test_invariant_check_catches_corruption(self, lifting):
        """An edge orbit whose endpoint is no node orbit id (-1, the node
        orbit count, or a fraction), on a self-loop orbit or a two-orbit
        one, fails the invariant check, and so do orbit sizes that no longer
        add up to the ground counts."""
        make = lt.compute_orbits if lifting == "orbits" else lt.trivial_lifting
        g = build("clique_cycle", 3, -1.0)
        lg = make(g)
        _check_invariants(lg)
        loops = [e for e in lg.edge_orbits if e.u_orbit == e.v_orbit]
        others = [e for e in lg.edge_orbits if e.u_orbit != e.v_orbit]
        assert others and (loops or lifting == "trivial")
        for eo in loops[-1:] + others[-1:]:
            for side in ("u_orbit", "v_orbit"):
                for bad in (-1, len(lg.node_orbits), 0.5):
                    kept = getattr(eo, side)
                    setattr(eo, side, bad)
                    with pytest.raises(AssertionError, match=f"edge orbit {eo.id} has incidence"):
                        _check_invariants(lg)
                    setattr(eo, side, kept)
        _check_invariants(lg)
        for orbits in (lg.node_orbits, lg.edge_orbits):
            orbits[-1].size += 1
            with pytest.raises(AssertionError):
                _check_invariants(lg)
            orbits[-1].size -= 1
        _check_invariants(lg)

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


def _pinned_classes(g, u):
    """``_pinned_tables``' class of every node of ``g`` with ``u``'s constants fixed."""
    return _pinned_tables(lt.compute_orbits(g), frozenset(g.node_table.consts_of(u)))[1]


def _stabilizer_partition(g, u):
    """Node orbits under the renamings that map ``g`` to itself and fix node
    ``u``, by enumeration, and the number of such renamings."""
    uf = _UnionFind(len(g.nodes))
    kept = 0
    for perm in itertools.permutations(range(len(g.constants))):
        mapping = _renaming_node_map(g, dict(zip(g.constants, (g.constants[i] for i in perm))))
        if mapping is None or mapping[u] != u:
            continue
        kept += 1
        for i, j in enumerate(mapping):
            uf.union(i, int(j))
    return uf.partition(), kept


class TestPinnedClasses:
    """The stabilizer of a node, as ``symmetry._pinned_tables`` groups it."""

    def test_complete_graph_pin(self):
        g = build("complete_graph", 4, -1.0)
        class_of = _pinned_classes(g, 0)
        assert partition(class_of) == [(0,), (1, 2, 3)]
        pairs = [tuple(sorted(p)) for p in class_of[g.edges].tolist()]
        assert sorted(pairs.count(p) for p in set(pairs)) == [3, 3]

    def test_single_node_unchanged(self):
        g = lt.ground(lt.parse_model("W V(x)").bind_weight(1.0), 1)
        assert partition(_pinned_classes(g, 0)) == [(0,)]

    def test_ring_pin_splits_core_orbit(self, ring_model):
        """Pinning a core node splits its orbit; classes coarsen the stabilizer.

        For hand-built (non-renaming) symmetry the pinned classes need not
        equal the exact stabilizer orbits, but they must never split one:
        every class is a union of stabilizer orbits.
        """
        u = ring_model.node_index[("atom", "B", (0,))]
        classes = partition(_pinned_classes(ring_model, u))
        assert (u,) in classes
        core_sizes = sorted(len(c) for c in classes if ring_model.nodes[c[0]].label == "B")
        assert core_sizes == [1, 4]
        enum_parts, kept = _stabilizer_partition(ring_model, u)
        assert kept == 2  # identity and one reflection
        for cls in map(set, classes):
            assert cls == set().union(*(p for p in map(set, enum_parts) if p <= cls))

    def test_generated_model_pin_matches_stabilizer(self):
        g = build("friends_smokers", 3, -0.5)
        u = g.node_index[("atom", "Smokes", (0,))]
        assert partition(_pinned_classes(g, u)) == _stabilizer_partition(g, u)[0]


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
        for lg, oriented in ((lt.compute_orbits(g), lambda k: keyed_edge(g, k)[2]),
                             (lt.trivial_lifting(g), lambda k: tuple(g.edges[k].tolist()))):
            assert lg.node_orbit_of.shape == (g.n_nodes,)
            assert lg.edge_orbit_of.shape == (len(g.edges),)
            for orb in lg.node_orbits:
                ids = members(lg.node_orbit_of, orb.id)
                assert (orb.size, orb.rep) == (len(ids), ids[0])
            for eo in lg.edge_orbits:
                ids = members(lg.edge_orbit_of, eo.id)
                # the lowest-id member, oriented as its smaller key
                assert (eo.size, eo.rep) == (len(ids), oriented(ids[0]))
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

"""Grounding and orbit computation against their per-element reference forms.

``ground`` builds one potential per atom-coincidence pattern, and
``compute_orbits`` keys every node once and every edge by a pair-specialised
relabeling.  The helpers below are the per-grounding loop and the joint
``_ordered_key`` keying they replaced, plus the per-member loops that filled
the lifted arrays; every field must come out identical.
"""

import itertools

import numpy as np
import pytest

import liftedtrw as lt
from liftedtrw.symmetry import fix_node, trivial_lifting

from conftest import build

# atoms that coincide under a binding: x=y leaves one atom R(x,x) in the
# first text and two distinct atoms in the second; in the third, x=y and y=z
# both leave two distinct atoms with different potentials (R(x,z) coincides
# with R(y,z), then with R(x,y))
COINCIDING_TEXTS = ["1.0 R(x,y) ^ R(y,x)", "0.5 S(x) ^ F(x,y) -> S(y)",
                    "1.2 R(x,y) ^ !R(y,z) -> R(x,z)"]
# corners of grounding by arrays: auxiliary nodes over four constants, an
# atom repeating an argument (x=y leaves one atom), a second formula whose
# first new nodes come after edges exist, and an edge and a node whose sums
# depend on the order of their terms ((1 + 1e16) - 1e16 is 0, while
# (-1e16 + 1e16) + 1 is 1)
CORNER_TEXTS = ["0.3 R(x,y) ^ S(y,z) ^ T(z,w)", "0.2 R(x,x) v R(x,y)",
                "0.5 A(x)\n0.7 [x != y ^ (B(x) <-> A(y))]",
                "1 A(x) ^ B(x)\n1e16 A(x) ^ B(x)\n-1e16 A(x) ^ B(x)\n"
                "1 A(x)\n1e16 A(x)\n-1e16 A(x)"]


def _models():
    for name in ("complete_graph", "friends_smokers", "clique_cycle"):
        for n in (1, 2, 3, 6):
            yield f"{name}-{n}", lt.parse_model(lt.zoo.model_text(name)).bind_weight(-0.7), n
    for prefix, texts in (("text", COINCIDING_TEXTS), ("corner", CORNER_TEXTS)):
        for i, text in enumerate(texts):
            for n in (1, 2, 3, 6):
                yield f"{prefix}{i}-{n}", lt.parse_model(text), n


MODELS = list(_models())


def _ground_per_grounding(model, n):
    """Grounding with a binding dict, a truth table and fresh masks per grounding."""
    builder = lt.GroundModelBuilder(range(n))
    for f_idx, formula in enumerate(model.formulas):
        w = formula.weight.resolve()
        for combo in itertools.product(range(n), repeat=len(formula.variables)):
            binding = dict(zip(formula.variables, combo))
            if not all(binding[a] != binding[b] for a, b in (tuple(g) for g in formula.guards)):
                continue
            ground_atoms = [(a.pred, tuple(binding[v] for v in a.args)) for a in formula.atoms]
            distinct, pos, seen = [], [], {}
            for ga in ground_atoms:
                if ga not in seen:
                    seen[ga] = len(distinct)
                    distinct.append(ga)
                pos.append(seen[ga])
            k = len(distinct)
            table = np.zeros(2 ** k)
            for idx in range(2 ** k):
                bits = [(idx >> j) & 1 for j in range(k)]
                t_idx = sum(bits[pos[i]] << i for i in range(len(ground_atoms)))
                table[idx] = w if formula.table[t_idx] else 0.0
            prov = (f_idx, combo)
            ids = [builder.add_node("atom", p, args, 2, provenance=prov) for p, args in distinct]
            if k == 1:
                builder.add_node_theta(ids[0], table)
            elif k == 2:
                builder.add_edge_theta(ids[0], ids[1], table.reshape(2, 2, order="F"),
                                       provenance=prov)
            else:
                aux = builder.add_node("aux", f"f{f_idx}", combo, 8, provenance=prov)
                builder.add_node_theta(aux, table)
                builder.aux_atoms[aux] = tuple(ids)
                vals = np.arange(8)
                for bit, atom_id in enumerate(ids):
                    zero = ((vals >> bit) & 1)[:, None] != np.arange(2)[None, :]
                    builder.add_edge_theta(aux, atom_id, np.zeros((8, 2)),
                                           structural_zero=zero, provenance=prov)
    return builder.build()


def _assert_same_array(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _assert_same_ground(g, ref):
    assert g.constants == ref.constants
    assert g.nodes == ref.nodes
    assert np.array_equal(g.edges, ref.edges) and g.edges.dtype == ref.edges.dtype
    assert g.edge_tags == ref.edge_tags
    for field in ("theta_node", "theta_edge", "structural_zero"):
        assert len(getattr(g, field)) == len(getattr(ref, field))
        for a, b in zip(getattr(g, field), getattr(ref, field)):
            _assert_same_array(a, b)
    assert g.node_provenance == ref.node_provenance
    assert g.edge_provenance == ref.edge_provenance
    for field in ("aux_atoms", "node_index", "edge_index"):
        assert list(getattr(g, field).items()) == list(getattr(ref, field).items())


def _relabel_jointly(consts, distinguished):
    mapping = {}
    out = []
    for c in consts:
        if c in distinguished:
            out.append(("k", c))
        else:
            if c not in mapping:
                mapping[c] = len(mapping)
            out.append(("v", mapping[c]))
    return tuple(out)


def _ordered_key(descs, distinguished):
    """Key of descriptors in the given order, constants relabeled jointly."""
    consts = tuple(c for d in descs for c in d[4])
    pattern = _relabel_jointly(consts, distinguished)
    shaped = []
    pos = 0
    for d in descs:
        npos = pos + len(d[4])
        shaped.append((d[0], d[1], d[2] or "", d[3], pattern[pos:npos]))
        pos = npos
    return tuple(shaped)


def _desc(node):
    return (node.kind, node.label, node.tag, node.n_values, node.consts)


def _keyed_orbits(model, distinguished):
    """Node orbits ``(key, members)`` and edge orbits ``(key, members, flips)``,
    keying every node and both orderings of every edge with ``_ordered_key``."""
    node_groups = {}
    for i, nd in enumerate(model.nodes):
        node_groups.setdefault(_ordered_key((_desc(nd),), distinguished), []).append(i)
    edge_groups = {}
    for k, ((u, v), tag) in enumerate(zip(model.edges.tolist(), model.edge_tags)):
        du, dv = _desc(model.nodes[u]), _desc(model.nodes[v])
        fwd = (tag or "", _ordered_key((du, dv), distinguished))
        bwd = (tag or "", _ordered_key((dv, du), distinguished))
        key, flip, oriented = (fwd, fwd == bwd, (u, v)) if fwd <= bwd else (bwd, False, (v, u))
        edge_groups.setdefault(key, []).append((k, flip, oriented))
    nodes = [(key, sorted(node_groups[key])) for key in sorted(node_groups)]
    edges = [(key, [m for _k, _f, m in sorted(edge_groups[key])],
              {f for _k, f, _m in edge_groups[key]}) for key in sorted(edge_groups)]
    return nodes, edges


def _member_loop_arrays(lg):
    """The lifted arrays of ``lg``'s orbits, filled member by member."""
    model = lg.model
    n_vars = 0
    node_var_start, lifted_theta, var_mult, var_orbit, zero_var = [], [], [], [], []
    for orb in lg.node_orbits:
        node_var_start.append(n_vars)
        thetas = np.stack([model.theta_node[i] for i in orb.members])
        for t in range(orb.n_values):
            lifted_theta.append(float(np.sum(thetas[:, t])))
            var_orbit.append(("node", orb.id))
            var_mult.append(1)
            zero_var.append(False)
        n_vars += orb.n_values
    edge_var_map = []
    for orb in lg.edge_orbits:
        thetas, zeros = [], []
        for u, v in orb.members:
            k = model.edge_index[(min(u, v), max(u, v))]
            th, z = model.theta_edge[k], model.structural_zero[k]
            if (u, v) != tuple(model.edges[k].tolist()):
                th, z = th.T, (None if z is None else z.T)
            thetas.append(th)
            zeros.append(np.zeros(th.shape, dtype=bool) if z is None else z)
        theta_stack, zero_stack = np.stack(thetas), np.stack(zeros)
        nu, nv = theta_stack.shape[1:]
        vmap = -np.ones((nu, nv), dtype=int)
        for t in range(nu):
            for h in range(nv):
                if vmap[t, h] >= 0:
                    continue
                entries = [(t, h)] + ([(h, t)] if orb.flip and t != h else [])
                for tt, hh in entries:
                    vmap[tt, hh] = n_vars
                n_vars += 1
                lifted_theta.append(float(sum(np.sum(theta_stack[:, tt, hh])
                                              for tt, hh in entries)))
                var_orbit.append(("edge", orb.id))
                var_mult.append(len(entries))
                zero_var.append(all(zero_stack[:, tt, hh].all() for tt, hh in entries))
        edge_var_map.append(vmap)
    feat_to_var = np.zeros(model.n_features, dtype=int)
    node_start, edge_start, _ = model.feature_layout()
    for i, nd in enumerate(model.nodes):
        feat_to_var[node_start[i]:node_start[i] + nd.n_values] = (
            node_var_start[lg.node_orbit_of[i]] + np.arange(nd.n_values))
    for orb, vmap in zip(lg.edge_orbits, edge_var_map):
        for u, v in orb.members:
            k = model.edge_index[(min(u, v), max(u, v))]
            block = vmap if (u, v) == tuple(model.edges[k].tolist()) else vmap.T
            feat_to_var[edge_start[k]:edge_start[k] + block.size] = block.ravel()
    return dict(
        node_var_start=node_var_start, edge_var_map=edge_var_map, n_vars=n_vars,
        lifted_theta=np.array(lifted_theta), var_mult=np.array(var_mult, dtype=int),
        var_orbit=var_orbit, feat_to_var=feat_to_var,
        var_ground_count=np.bincount(feat_to_var, minlength=n_vars),
        structural_zero_var=np.array(zero_var, dtype=bool))


def _assert_lifted_matches_references(lg, distinguished):
    model = lg.model
    if distinguished is not None:
        nodes, edges = _keyed_orbits(model, distinguished)
        assert [(o.key, o.members) for o in lg.node_orbits] == nodes
        assert [(o.key, o.members, {o.flip}) for o in lg.edge_orbits] == edges
        node_orbit_of = np.zeros(len(model.nodes), dtype=int)
        edge_orbit_of = np.zeros(max(len(model.edges), 1), dtype=int)
        for oid, (_key, members) in enumerate(nodes):
            node_orbit_of[members] = oid
        for oid, (_key, members, _flips) in enumerate(edges):
            for u, v in members:
                edge_orbit_of[model.edge_index[(min(u, v), max(u, v))]] = oid
        _assert_same_array(lg.node_orbit_of, node_orbit_of)
        _assert_same_array(lg.edge_orbit_of, edge_orbit_of)
        for orb in lg.edge_orbits:
            assert (orb.u_orbit, orb.v_orbit) == tuple(
                int(node_orbit_of[i]) for i in orb.members[0])
    for field, expected in _member_loop_arrays(lg).items():
        got = getattr(lg, field)
        if field == "edge_var_map":
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                _assert_same_array(a, b)
        elif isinstance(expected, np.ndarray):
            _assert_same_array(got, expected)
        else:
            assert got == expected, field


class TestGroundingEquivalence:
    @pytest.mark.parametrize("label,model,n", MODELS, ids=[m[0] for m in MODELS])
    def test_pattern_tables_match_per_grounding_loop(self, label, model, n):
        _assert_same_ground(lt.ground(model, n), _ground_per_grounding(model, n))

    def test_coinciding_atoms_make_fewer_distinct_atoms(self):
        g = lt.ground(lt.parse_model(COINCIDING_TEXTS[1]), 2)
        # x=y gives S(0) ^ F(0,0) -> S(0): two distinct atoms, an edge
        edge = g.edge_index[tuple(sorted((g.node_index[("atom", "S", (0,))],
                                          g.node_index[("atom", "F", (0, 0))])))]
        assert (0, (0, 0)) in g.edge_provenance[edge]
        assert len(g.aux_atoms) == 2  # x != y: three distinct atoms


class TestOrbitEquivalence:
    @pytest.mark.parametrize("label,model,n", MODELS, ids=[m[0] for m in MODELS])
    def test_keys_and_arrays_match_per_member_forms(self, label, model, n):
        g = lt.ground(model, n)
        _assert_lifted_matches_references(lt.compute_orbits(g), frozenset())
        if g.nodes:
            u = len(g.nodes) - 1
            _assert_lifted_matches_references(fix_node(None, g, u),
                                              frozenset(g.nodes[u].consts))
        _assert_lifted_matches_references(trivial_lifting(g), None)

    def test_hand_built_tags(self, ring_model):
        _assert_lifted_matches_references(lt.compute_orbits(ring_model), frozenset())
        _assert_lifted_matches_references(fix_node(None, ring_model, 0),
                                          frozenset(ring_model.nodes[0].consts))

    def test_mixed_stored_orientations(self):
        """Members stored as (v, u) are transposed into the orbit's orientation."""
        b = lt.GroundModelBuilder(range(3))
        first = b.add_node("aux", "A", (0,), 8)
        atoms = [b.add_node("atom", "B", (i,), 2) for i in range(3)]
        last = b.add_node("aux", "A", (2,), 8)
        rng = np.random.default_rng(3)
        theta = rng.normal(size=(8, 2))
        zero = rng.random((8, 2)) < 0.3
        b.add_edge_theta(first, atoms[0], theta, structural_zero=zero)  # stored (aux, atom)
        b.add_edge_theta(atoms[2], last, theta.T, structural_zero=zero.T)  # stored (atom, aux)
        g = b.build()
        assert g.edges.tolist() == [[first, atoms[0]], [atoms[2], last]]
        lg = lt.compute_orbits(g)
        assert len(lg.edge_orbits) == 1 and lg.edge_orbits[0].size == 2
        _assert_lifted_matches_references(lg, frozenset())
        assert lg.structural_zero_var.sum() == zero.sum()


def test_setup_matches_on_a_larger_domain():
    for name, n in (("friends_smokers", 12), ("complete_graph", 40)):
        g = build(name, n, 0.4)
        _assert_same_ground(g, _ground_per_grounding(
            lt.parse_model(lt.zoo.model_text(name)).bind_weight(0.4), n))
        _assert_lifted_matches_references(lt.compute_orbits(g), frozenset())

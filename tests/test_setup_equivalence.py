"""Grounding and orbit computation against their per-element reference forms.

``ground`` builds one potential per atom-coincidence pattern, and
``compute_orbits`` keys nodes and edges by integer codes computed over whole
arrays.  The references are the per-grounding loop below and the joint tuple
keying of conftest's ``ordered_key`` that they replaced, plus the per-member
loops that filled the lifted arrays; every field must come out identical.
The pinned node classes of ``symmetry._pinned_tables`` are checked against
the same keying with the pinned constants kept by name.
"""

import itertools

import numpy as np
import pytest

import liftedtrw as lt
from liftedtrw import model as model_module
from liftedtrw.model import _first_seen
from liftedtrw.symmetry import _lex_codes, _pinned_tables, _relabel_codes, trivial_lifting

from conftest import build, hand_built, keyed_orbits, members, partition

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
                "1 A(x)\n1e16 A(x)\n-1e16 A(x)",
                # x=y leaves two distinct atoms in the first formula (k == 2)
                # and x != y three (k == 3), next to a pairwise-only formula;
                # the third has k == 1 at x=y and k == 3 elsewhere
                "0.3 R(x,y) v S(y) v R(y,x)\n0.7 [x != y ^ (S(x) <-> S(y))]\n"
                "-0.4 R(x,y) v R(y,x) v R(x,x)"]


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


def _trivial_orbits(model):
    """``keyed_orbits``' form of the identity lifting: an orbit per node and
    edge, keyed by its id."""
    nodes = [(i, [i]) for i in range(model.n_nodes)]
    edges = [(k, [(u, v)], {False}) for k, (u, v) in enumerate(model.edges.tolist())]
    return nodes, edges


def _member_loop_arrays(lg, nodes, edges):
    """The lifted arrays of ``lg``'s orbits, filled member by member from the
    reference orbits ``nodes`` and ``edges`` (in ``keyed_orbits``' form)."""
    model = lg.model
    n_vars = 0
    node_var_start, lifted_theta, var_mult, var_orbit, zero_var = [], [], [], [], []
    for orb, (_key, node_members) in zip(lg.node_orbits, nodes):
        node_var_start.append(n_vars)
        thetas = np.stack([model.theta_node[i] for i in node_members])
        for t in range(orb.n_values):
            lifted_theta.append(float(np.sum(thetas[:, t])))
            var_orbit.append(orb.id)
            var_mult.append(1)
            zero_var.append(False)
        n_vars += orb.n_values
    n_node_vars = n_vars
    edge_var_map = []
    for orb, (_key, edge_members, _flips) in zip(lg.edge_orbits, edges):
        thetas, zeros = [], []
        for u, v in edge_members:
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
                var_orbit.append(orb.id)
                var_mult.append(len(entries))
                zero_var.append(all(zero_stack[:, tt, hh].all() for tt, hh in entries))
        edge_var_map.append(vmap)
    feat_to_var = np.zeros(model.n_features, dtype=int)
    node_start, edge_start, _ = model.feature_layout()
    for i, nd in enumerate(model.nodes):
        feat_to_var[node_start[i]:node_start[i] + nd.n_values] = (
            node_var_start[lg.node_orbit_of[i]] + np.arange(nd.n_values))
    for (_key, edge_members, _flips), vmap in zip(edges, edge_var_map):
        for u, v in edge_members:
            k = model.edge_index[(min(u, v), max(u, v))]
            block = vmap if (u, v) == tuple(model.edges[k].tolist()) else vmap.T
            feat_to_var[edge_start[k]:edge_start[k] + block.size] = block.ravel()
    return dict(
        node_var_start=node_var_start, edge_var_map=edge_var_map, n_vars=n_vars,
        n_node_vars=n_node_vars, lifted_theta=np.array(lifted_theta),
        var_mult=np.array(var_mult, dtype=int), var_orbit=np.array(var_orbit, dtype=int),
        feat_to_var=feat_to_var,
        var_ground_count=np.bincount(feat_to_var, minlength=n_vars),
        structural_zero_var=np.array(zero_var, dtype=bool))


def _assert_lifted_matches_references(lg, nodes, edges):
    """Sizes, representatives and membership of ``lg``'s orbits against the
    reference orbits ``nodes`` and ``edges`` (``keyed_orbits``' form, in key
    order, so orbit ids must follow the keys), and its lifted arrays against
    ``_member_loop_arrays``."""
    model = lg.model
    assert [(o.size, o.rep) for o in lg.node_orbits] == [(len(m), m[0]) for _key, m in nodes]
    assert [(o.size, o.rep, {o.flip}) for o in lg.edge_orbits] == [
        (len(m), m[0], flips) for _key, m, flips in edges]
    node_orbit_of = np.zeros(len(model.nodes), dtype=int)
    edge_orbit_of = np.zeros(len(model.edges), dtype=int)
    for oid, (_key, ids) in enumerate(nodes):
        node_orbit_of[ids] = oid
    for oid, (_key, pairs, _flips) in enumerate(edges):
        for u, v in pairs:
            edge_orbit_of[model.edge_index[(min(u, v), max(u, v))]] = oid
    _assert_same_array(lg.node_orbit_of, node_orbit_of)
    _assert_same_array(lg.edge_orbit_of, edge_orbit_of)
    for orb in lg.edge_orbits:
        assert (orb.u_orbit, orb.v_orbit) == tuple(int(node_orbit_of[i]) for i in orb.rep)
    for field, expected in _member_loop_arrays(lg, nodes, edges).items():
        got = getattr(lg, field)
        if field == "edge_var_map":
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                _assert_same_array(a, b)
        elif isinstance(expected, np.ndarray):
            _assert_same_array(got, expected)
        else:
            assert got == expected, field


def _assert_matches_keys(model):
    """``compute_orbits`` and ``trivial_lifting`` of ``model`` against their
    references."""
    _assert_lifted_matches_references(lt.compute_orbits(model), *keyed_orbits(model))
    _assert_lifted_matches_references(trivial_lifting(model), *_trivial_orbits(model))


def _assert_pinned_classes_match_keys(model, distinguished):
    """``_pinned_tables``' classes with ``distinguished`` fixed partition the
    nodes as the keys that keep those constants by name do, and its tables
    hold each node orbit's classes with their counts and each edge orbit's
    class pairs."""
    lg = lt.compute_orbits(model)
    n_classes, class_of, node_table, edge_table = _pinned_tables(lg, distinguished)
    nodes, _edges = keyed_orbits(model, distinguished)
    assert partition(class_of) == sorted(tuple(m) for _key, m in nodes)
    assert n_classes == len(nodes)
    for orb in lg.node_orbits:
        classes = class_of[members(lg.node_orbit_of, orb.id)]
        assert node_table[orb.id] == [(c, int(np.count_nonzero(classes == c)))
                                      for c in np.unique(classes).tolist()]
    for eo in lg.edge_orbits:
        pairs = class_of[model.edges[members(lg.edge_orbit_of, eo.id)]]
        assert sorted(edge_table[eo.id]) == sorted(set(map(tuple, pairs.tolist())))


class TestGroundingEquivalence:
    @pytest.mark.parametrize("label,model,n", MODELS, ids=[m[0] for m in MODELS])
    def test_pattern_tables_match_per_grounding_loop(self, label, model, n):
        _assert_same_ground(lt.ground(model, n), _ground_per_grounding(model, n))

    @pytest.mark.parametrize("size,bound", [(0, 1), (0, 5), (1, 1), (7, 1), (1, 9), (50, 3),
                                            (400, 40), (300, 1000)])
    def test_linear_numbering_matches_sort(self, size, bound):
        """Numbering codes below a bound by one pass over the bound gives the
        ids and first positions of the stable argsort: empty arrays, one
        code, codes repeated many times and codes spread thinly."""
        codes = np.random.default_rng(size + bound).integers(0, bound, size=size)
        for got, want in zip(_first_seen(codes, bound), _first_seen(codes)):
            _assert_same_array(got, want)

    def test_auxiliary_atoms_built_on_first_access(self):
        g = lt.ground(lt.parse_model(CORNER_TEXTS[0]), 3)
        assert callable(g._aux_atoms)
        assert len(g.aux_atoms) == 3 ** 4 and not callable(g._aux_atoms)

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
        _assert_matches_keys(g)
        if g.nodes:
            _assert_pinned_classes_match_keys(g, frozenset(g.nodes[-1].consts))

    def test_hand_built_tags(self, ring_model):
        _assert_matches_keys(ring_model)
        _assert_pinned_classes_match_keys(ring_model, frozenset(ring_model.nodes[0].consts))

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
        _assert_lifted_matches_references(lg, *keyed_orbits(g))
        assert lg.structural_zero_var.sum() == zero.sum()


def _lifted_and_rho(g):
    """The lifted arrays of ``g`` and its uniform rho, None without a spanning tree."""
    lg = lt.compute_orbits(g)
    try:
        rho = lt.init_rho_uniform(lg)
    except lt.spanning.DisconnectedGraph:
        rho = None
    return (lg.lifted_theta, lg.feat_to_var, lg.structural_zero_var, lg.var_mult,
            lg.var_ground_count, rho)


class TestSetupFromEitherForm:
    """``ground`` and the builder store a model in the same blocks, codes and
    node table, so set-up from either gives the same bytes."""

    @pytest.mark.parametrize("label,model,n", MODELS, ids=[m[0] for m in MODELS])
    def test_lifted_arrays_and_rho_match(self, label, model, n):
        got = _lifted_and_rho(lt.ground(model, n))
        for a, b in zip(got, _lifted_and_rho(_ground_per_grounding(model, n))):
            _assert_same_array(a, b)


def test_setup_matches_on_a_larger_domain(monkeypatch):
    """Up to the sizes of the large-domain benchmark, whose models number
    their edges both ways: by the table pass of ``_first_seen`` (a node
    count squared within ``_TABLE_SPAN`` times the edge events) and by the
    sort (friends_smokers, whose auxiliary nodes make the square large)."""
    calls = []
    first_seen = model_module._first_seen

    def spied(codes, bound=None):
        calls.append((codes.size, bound))  # the last call of a grounding numbers its edges
        return first_seen(codes, bound)

    for name, n in (("friends_smokers", 12), ("complete_graph", 40), ("clique_cycle", 10),
                    ("complete_graph", 30), ("clique_cycle", 12), ("friends_smokers", 8),
                    ("complete_graph", 150), ("clique_cycle", 40), ("friends_smokers", 40)):
        with monkeypatch.context() as m:
            m.setattr(model_module, "_first_seen", spied)
            g = build(name, n, 0.4)
        ref = _ground_per_grounding(lt.parse_model(lt.zoo.model_text(name)).bind_weight(0.4), n)
        _assert_same_ground(g, ref)
        _assert_lifted_matches_references(lt.compute_orbits(g), *keyed_orbits(g))
        for a, b in zip(_lifted_and_rho(g), _lifted_and_rho(ref)):
            _assert_same_array(a, b)
        n_events, bound = calls[-1]
        table_pass = g.n_nodes ** 2 <= model_module._TABLE_SPAN * n_events
        assert table_pass == (name != "friends_smokers")
        assert bound == (g.n_nodes ** 2 if table_pass else None)


@pytest.mark.parametrize("outer", ["local+exch", "cycle+exch"])
def test_solve_leaves_feature_map_unbuilt(outer):
    """Set-up and a solve never build the ground feature map; read
    afterwards, it and the per-variable counts equal the per-member forms."""
    g = build("clique_cycle", 10, 0.5)
    lg = lt.compute_orbits(g)
    res = lt.frank_wolfe(lg, outer=outer, rho=lt.init_rho_uniform(lg))
    assert res.converged and (res.n_cuts > 0) == outer.startswith("cycle")
    assert "feat_to_var" not in vars(lg) and "var_ground_count" not in vars(lg)
    _assert_lifted_matches_references(lg, *keyed_orbits(g))
    assert "feat_to_var" in vars(lg)


# one label "R" with zero to three constants: rows padded to three columns
# must sort a node before its extensions, R(1) before R(1,2)
PADDING_NODES = [("R", (1, 2), 2, None), ("R", (), 2, None), ("R", (2,), 2, None),
                 ("R", (1, 1), 2, None), ("R", (2, 1), 2, None), ("R", (1,), 2, None),
                 ("R", (3, 1, 2), 2, None), ("R", (0,), 2, None), ("R", (1, 3), 2, None)]
PADDING_EDGES = [(i, j, None) for i, j in itertools.combinations(range(9), 2)
                 if (i + j) % 3]
# constants 2..20 out of order, nodes of two sizes and two value counts, and
# edges stored both ways round between them
SPARSE_CONSTS = (10, 4, 7, 20, 2)
SPARSE_NODES = ([("P", (c,), 2, None) for c in SPARSE_CONSTS]
                + [("F", pair, 3, None) for pair in ((10, 4), (4, 10), (7, 20), (20, 2),
                                                     (2, 2), (4, 4))]
                + [("Q", (10, 7, 10), 2, None), ("Q", (20, 4, 2), 2, None)])
SPARSE_EDGES = ([(SPARSE_CONSTS.index(c), 5 + f, None)
                 for f, (a, b) in enumerate(((10, 4), (4, 10), (7, 20), (20, 2), (2, 2), (4, 4)))
                 for c in {a, b}]
                + [(11, 0, None), (11, 2, None), (12, 3, None), (12, 1, None), (12, 8, None),
                   (5, 6, None), (0, 1, None), (3, 4, None)])
# node and edge tags None and "" key alike, and apart from "t"
TAG_NODES = [("V", (0,), 2, None), ("V", (1,), 2, ""), ("V", (2,), 2, None),
             ("W", (0,), 2, "t"), ("W", (1,), 2, None)]
TAG_EDGES = [(0, 1, None), (1, 2, ""), (0, 2, None), (0, 3, "t"), (1, 3, ""),
             (2, 4, "t"), (4, 3, None)]


def _relabel_by_dict(rows, width):
    """Per row, given as tuples of constants, its constants numbered 1, 2,
    ... by first occurrence across the tuples, each tuple padded with 0 to
    ``width``."""
    out = []
    for row in rows:
        labels, codes = {}, []
        for part in row:
            codes += [labels.setdefault(c, len(labels) + 1) for c in part]
            codes += [0] * (width - len(part))
        out.append(codes)
    return out


class TestColumnRelabel:
    """``_relabel_codes`` over the node table's columns, and over the
    endpoint columns gathered for both orientations of edges as
    ``compute_orbits`` gathers them, against a dict per row."""

    @pytest.mark.parametrize("width", range(7))
    @pytest.mark.parametrize("n_rows", [0, 1, 50])
    def test_matches_per_row_dict(self, width, n_rows):
        rng = np.random.default_rng(100 * width + n_rows)
        consts = rng.integers(0, 4, size=(n_rows, width))  # four constants: many repeats
        lengths = rng.integers(0, width + 1, size=n_rows)
        valid = np.arange(width) < lengths[:, None]  # padding holds constants too
        rows = [tuple(consts[i, :lengths[i]].tolist()) for i in range(n_rows)]
        cols, ok = list(consts.T.copy()), list(valid.T.copy())

        got = _relabel_codes(cols, ok)
        assert len(got) == width
        assert all(c.dtype == np.int64 and c.shape == (n_rows,) for c in got)
        want = _relabel_by_dict([(r,) for r in rows], width)
        assert np.array(got, dtype=np.int64).reshape(width, n_rows).T.tolist() == want

        ends = rng.integers(0, max(n_rows, 1), size=(2, 3 * n_rows))
        first, second = np.concatenate([ends[0], ends[1]]), np.concatenate([ends[1], ends[0]])
        got = _relabel_codes([c[first] for c in cols] + [c[second] for c in cols],
                             [v[first] for v in ok] + [v[second] for v in ok])
        assert len(got) == 2 * width
        want = _relabel_by_dict([(rows[a], rows[b]) for a, b in zip(first.tolist(),
                                                                     second.tolist())], width)
        assert np.array(got, dtype=np.int64).reshape(2 * width, first.size).T.tolist() == want


class TestArrayKeying:
    @pytest.mark.parametrize("constants,nodes,edges,pinned", [
        ((0, 1, 2, 3), PADDING_NODES, PADDING_EDGES,
         [frozenset(), frozenset({1}), frozenset({3, 1})]),
        (SPARSE_CONSTS, SPARSE_NODES, SPARSE_EDGES,
         [frozenset(), frozenset({4, 20}), frozenset({2, 10}), frozenset({7, 99})]),
        ((0, 1, 2), TAG_NODES, TAG_EDGES, [frozenset(), frozenset({1})]),
    ], ids=["padding", "sparse", "tags"])
    def test_hand_built_keys_match_per_member_forms(self, constants, nodes, edges, pinned):
        g = hand_built(constants, nodes, edges)
        _assert_matches_keys(g)
        for distinguished in pinned:
            _assert_pinned_classes_match_keys(g, distinguished)
        for u in range(len(g.nodes)):
            _assert_pinned_classes_match_keys(g, frozenset(g.nodes[u].consts))

    def test_none_and_empty_tags_share_orbits(self):
        lg = lt.compute_orbits(hand_built((0, 1, 2), TAG_NODES, TAG_EDGES))
        assert lg.node_orbit_of[0] == lg.node_orbit_of[1] == lg.node_orbit_of[2]
        assert len({lg.edge_orbit_of[k] for k in range(3)}) == 1

    def test_lex_codes_past_int64(self):
        """Five columns whose radices multiply past 2**63: the codes still
        order the rows as tuples do."""
        rng = np.random.default_rng(4)
        pool = np.stack([rng.integers(-2 ** 14, 2 ** 14, size=40) for _ in range(5)])
        pool[:, 1] = pool[:, 0]  # repeated rows in the pool ...
        pool[2, 1] = pool[2, 0] + 1  # ... and rows that differ only in one column
        cols = list(pool[:, rng.integers(0, 40, size=300)])
        radices = [int(c.max()) - int(c.min()) + 1 for c in cols]
        assert np.prod(radices, dtype=object) > 2 ** 63
        rows = list(zip(*(c.tolist() for c in cols)))
        rank = {r: i for i, r in enumerate(sorted(set(rows)))}
        codes = _lex_codes(cols)
        assert codes.dtype == np.int64
        assert np.unique(codes, return_inverse=True)[1].tolist() == [rank[r] for r in rows]

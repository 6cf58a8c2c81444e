"""Parser and grounding tests, checked against direct formula evaluation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liftedtrw as lt
from liftedtrw.model import ModelError

from conftest import atom_assignment, build, complete_state, formula_score


class TestParse:
    def test_complete_graph_text(self):
        tm = lt.parse_model("W V(x)\n-0.1 [x!=y ^ (V(x) <-> V(y))]")
        assert len(tm.predicates) == 1
        assert tm.predicates[0] == ("V", 1)
        assert len(tm.formulas) == 2
        assert tm.formulas[0].weight.symbolic
        bound = tm.bind_weight(-1.0)
        assert bound.formulas[0].weight.resolve() == -1.0
        assert bound.formulas[1].weight.resolve() == -0.1

    def test_empty_text(self):
        tm = lt.parse_model("")
        assert tm.formulas == ()
        g = lt.ground(tm, 3)
        assert len(g.nodes) == 0 and len(g.edges) == 0

    def test_friends_smokers_text(self):
        tm = lt.parse_model(lt.zoo.FRIENDS_SMOKERS)
        assert len(tm.predicates) == 3
        assert len(tm.formulas) == 5
        assert len(tm.formulas[-1].atoms) == 3

    def test_comments_and_blank_lines(self):
        tm = lt.parse_model("// nothing\n\n1.0 V(x) // trailing\n")
        assert len(tm.formulas) == 1

    def test_syntax_error_reports_line(self):
        with pytest.raises(ModelError, match="line 2"):
            lt.parse_model("1.0 V(x)\n1.0 V(x ^")

    def test_undeclared_predicate(self):
        with pytest.raises(ModelError, match="undeclared"):
            lt.parse_model("predicate V/1\n1.0 U(x)")

    def test_arity_mismatch(self):
        with pytest.raises(ModelError, match="arity"):
            lt.parse_model("predicate V/1\n1.0 V(x,y)")
        with pytest.raises(ModelError, match="arity"):
            lt.parse_model("1.0 V(x) ^ V(x,y)")

    def test_too_many_atoms(self):
        with pytest.raises(ModelError, match="atoms"):
            lt.parse_model("1.0 A(x) ^ B(x) ^ C(x) ^ D(x)")

    def test_guard_only_variable_rejected(self):
        with pytest.raises(ModelError, match="guard"):
            lt.parse_model("1.0 x != y ^ V(x)")

    def test_nested_guard_rejected(self):
        with pytest.raises(ModelError, match="top-level"):
            lt.parse_model("1.0 V(x) v (x != y ^ V(y))")

    def test_normalized_atom_order(self):
        a = lt.parse_model("1.0 B(x) ^ A(x)").formulas[0]
        b = lt.parse_model("1.0 A(x) ^ B(x)").formulas[0]
        assert a.atoms == b.atoms
        assert a.table == b.table

    def test_implication_precedence(self):
        # a ^ b -> c must parse as (a ^ b) -> c
        f = lt.parse_model("1.0 A(x) ^ B(x) -> C(x)").formulas[0]
        names = [a.pred for a in f.atoms]
        vals = {"A": 1, "B": 1, "C": 0}
        idx = sum(vals[p] << i for i, p in enumerate(names))
        assert not f.table[idx]
        vals = {"A": 0, "B": 1, "C": 0}
        idx = sum(vals[p] << i for i, p in enumerate(names))
        assert f.table[idx]


def _parse(text):
    return lambda: lt.parse_model(text)


@pytest.mark.parametrize("call, match", [
    pytest.param(_parse("1 V(x) # U(x)"), "line 1: unexpected character '#'", id="character"),
    pytest.param(_parse("1 V(x"), "unexpected end of formula", id="end"),
    pytest.param(_parse("1 V(x) U(x)"), "trailing tokens near 'U'", id="trailing"),
    pytest.param(_parse("1 ^ V(x)"), r"expected atom or variable, found '\^'", id="operand"),
    pytest.param(_parse("1 V(x) ^ y"), "bare identifier 'y'", id="bare"),
    pytest.param(_parse("1 x != y"), "reduces to guards only", id="guards-only"),
    pytest.param(_parse("1e999 V(x)"), "weights must be finite", id="non-finite"),
    pytest.param(_parse("predicate R/3"), "R has arity 3, only 1 or 2", id="declared-arity"),
    pytest.param(_parse("predicate R/1\npredicate R/2"),
                 "line 2: predicate R redeclared with different arity", id="redeclared"),
    pytest.param(_parse("V(x)"), "expected 'predicate Name/arity'", id="malformed-line"),
    pytest.param(_parse("1 R(x,y,z)"), "R has arity 3, only 1 or 2", id="atom-arity"),
    pytest.param(lambda: lt.parse_model("W V(x)").formulas[0].weight.resolve(),
                 "symbolic weight W but no value was bound", id="unbound-W"),
    pytest.param(lambda: lt.ground(lt.parse_model("1 V(x)"), 0),
                 "domain size must be >= 1, got 0", id="domain-0"),
])
def test_bad_input_is_a_model_error(call, match):
    """Every check on model text and on the domain size names the fault."""
    with pytest.raises(ModelError, match=match):
        call()


class TestGround:
    def test_complete_graph_n3(self):
        g = build("complete_graph", 3, -1.0)
        assert len(g.nodes) == 3
        assert len(g.edges) == 3
        # each ordered pair grounding adds -0.1 on agreeing values
        for k in range(3):
            np.testing.assert_allclose(g.theta_edge[k],
                                       [[-0.2, 0.0], [0.0, -0.2]], atol=1e-12)
        for i in range(3):
            np.testing.assert_allclose(g.theta_node[i], [0.0, -1.0], atol=1e-12)

    def test_zero_groundings_gives_empty_graph(self):
        tm = lt.parse_model("-0.1 [x != y ^ (V(x) <-> V(y))]")
        g = lt.ground(tm, 1)
        assert len(g.nodes) == 0 and len(g.edges) == 0

    def test_friends_smokers_n2(self):
        g = build("friends_smokers", 2, 1.0)
        atoms = [nd for nd in g.nodes if nd.kind == "atom"]
        aux = [nd for nd in g.nodes if nd.kind == "aux"]
        by_pred = {}
        for nd in atoms:
            by_pred.setdefault(nd.label, []).append(nd)
        assert len(by_pred["Smokes"]) == 2
        assert len(by_pred["Cancer"]) == 2
        assert len(by_pred["Friends"]) == 2
        assert len(aux) == 2
        assert all(nd.n_values == 8 for nd in aux)
        for aux_id in g.aux_atoms:
            incident = [e for e in g.edges.tolist() if aux_id in e]
            assert len(incident) == 3

    def test_symbolic_weight_must_be_bound(self):
        tm = lt.parse_model("W V(x)")
        with pytest.raises(ModelError, match="W"):
            lt.ground(tm, 2)

    def test_duplicate_potentials_are_summed(self):
        tm = lt.parse_model("0.5 [x != y ^ (V(x) ^ V(y))]\n"
                            "0.25 [x != y ^ (V(x) v V(y))]")
        g = lt.ground(tm, 2)
        assert len(g.edges) == 1
        # ordered pairs double every contribution on the single unordered edge
        np.testing.assert_allclose(g.theta_edge[0],
                                   [[0.0, 0.5], [0.5, 1.5]], atol=1e-12)

    def test_self_guard_admits_no_binding(self):
        g = lt.ground(lt.parse_model("1.0 [x != x ^ R(x)]\n0.5 S(y)"), 3)
        assert [nd.label for nd in g.nodes] == ["S"] * 3


class TestBuilder:
    def test_mis_shaped_thetas_rejected(self):
        b = lt.GroundModelBuilder(range(2))
        atom = b.add_node("atom", "V", (0,), 2)
        other = b.add_node("atom", "V", (1,), 2)
        aux = b.add_node("aux", "f0", (0, 1), 8)
        with pytest.raises(ModelError, match="shape"):
            b.add_node_theta(atom, [0.3])
        with pytest.raises(ModelError, match="shape"):
            b.add_node_theta(aux, np.zeros(2))
        with pytest.raises(ModelError, match="shape"):
            b.add_edge_theta(atom, other, [1.0, 2.0])
        with pytest.raises(ModelError, match="shape"):
            b.add_edge_theta(atom, aux, np.zeros((8, 2)))
        with pytest.raises(ModelError, match="shape"):
            b.add_edge_theta(aux, atom, np.zeros((8, 2)),
                             structural_zero=np.zeros((2, 8), dtype=bool))
        g = b.build()
        assert g.edges.shape == (0, 2) and all(not th.any() for th in g.theta_node)

    def test_well_shaped_thetas_accumulate(self):
        b = lt.GroundModelBuilder(range(2))
        atom = b.add_node("atom", "V", (0,), 2)
        aux = b.add_node("aux", "f0", (0, 1), 8)
        theta = np.arange(16.0).reshape(8, 2)
        zero = theta % 3 == 0
        b.add_node_theta(atom, [0.25, 0.5])
        b.add_node_theta(atom, (0.25, 0.5))
        b.add_edge_theta(aux, atom, theta, structural_zero=zero)
        b.add_edge_theta(atom, aux, theta.T)
        g = b.build()
        np.testing.assert_array_equal(g.theta_node[atom], [0.5, 1.0])
        assert g.edges[0].tolist() == [atom, aux]
        np.testing.assert_array_equal(g.theta_edge[0], 2 * theta.T)
        np.testing.assert_array_equal(g.structural_zero[0], zero.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_thetas_rejected(self, bad):
        """A NaN potential passed ``compute_orbits`` (its tie test is False
        for NaN) and failed only in the first LP; both methods refuse it
        and leave the model as it was."""
        b = lt.GroundModelBuilder(range(2))
        u, v = (b.add_node("atom", "V", (i,), 2) for i in range(2))
        with pytest.raises(ModelError, match="non-finite"):
            b.add_node_theta(u, [0.0, bad])
        with pytest.raises(ModelError, match="non-finite"):
            b.add_edge_theta(u, v, [[0.0, 1.0], [bad, 0.0]])
        with pytest.raises(ModelError, match="non-finite"):
            b.add_edge_theta(v, u, [[0.0, 1.0], [bad, 0.0]], structural_zero=np.eye(2, dtype=bool))
        g = b.build()
        assert g.edges.shape == (0, 2) and all(not th.any() for th in g.theta_node)

    def test_self_loop_rejected(self):
        """No edge joins a node to itself (as in ``ground``); cluster
        detection counts an orbit's edges as its member pairs."""
        b = lt.GroundModelBuilder(range(2))
        atom = b.add_node("atom", "V", (0,), 2)
        with pytest.raises(ModelError, match="itself"):
            b.add_edge_theta(atom, atom, np.zeros((2, 2)))
        assert b.build().edges.shape == (0, 2)

    def test_readding_a_node_must_match(self):
        b = lt.GroundModelBuilder(range(2))
        node = b.add_node("atom", "V", (0,), 2)
        assert b.add_node("atom", "V", (0,), 2) == node
        with pytest.raises(ModelError, match="values"):
            b.add_node("atom", "V", (0,), 8, tag="x")
        with pytest.raises(ModelError, match="tag"):
            b.add_node("atom", "V", (0,), 2, tag="x")
        with pytest.raises(ModelError, match="values"):
            b.add_node("atom", "V", (0,), 8)
        g = b.build()
        assert len(g.nodes) == 1 and (g.nodes[0].n_values, g.nodes[0].tag) == (2, None)

    def test_readding_an_edge_must_match(self):
        b = lt.GroundModelBuilder(range(2))
        u, v = (b.add_node("atom", "V", (i,), 2) for i in range(2))
        b.add_edge_theta(u, v, np.ones((2, 2)), tag="ring")
        with pytest.raises(ModelError, match="tag"):
            b.add_edge_theta(u, v, np.ones((2, 2)), tag="chord")
        with pytest.raises(ModelError, match="tag"):
            b.add_edge_theta(v, u, np.ones((2, 2)))
        b.add_edge_theta(v, u, np.ones((2, 2)), tag="ring")
        g = b.build()
        assert g.edges.tolist() == [[u, v]] and g.edge_tags == ("ring",)
        np.testing.assert_array_equal(g.theta_edge[0], np.full((2, 2), 2.0))

    def test_build_copies_what_later_calls_change(self):
        b = lt.GroundModelBuilder(range(3))
        u, v = (b.add_node("atom", "V", (i,), 2) for i in range(2))
        b.add_node_theta(u, [0.0, 1.0])
        b.add_edge_theta(u, v, np.ones((2, 2)), structural_zero=np.eye(2, dtype=bool))
        g = b.build()
        b.add_node_theta(u, [0.0, 1.0])
        b.add_edge_theta(u, v, np.ones((2, 2)), structural_zero=~np.eye(2, dtype=bool))
        w = b.add_node("atom", "V", (2,), 2)
        b.add_edge_theta(v, w, np.ones((2, 2)))
        b.aux_atoms[w] = (u, v, w)
        np.testing.assert_array_equal(g.theta_node[u], [0.0, 1.0])
        np.testing.assert_array_equal(g.theta_edge[0], np.ones((2, 2)))
        np.testing.assert_array_equal(g.structural_zero[0], np.eye(2, dtype=bool))
        assert len(g.nodes) == g.n_nodes == 2 and len(g.theta_node) == 2
        assert len(g.edges) == len(g.theta_edge) == len(g.structural_zero) == 1
        assert g.aux_atoms == {}

    @pytest.mark.parametrize("make", [lambda: build("friends_smokers", 3, 0.5),
                                      lambda: lt.zoo.ring_pendant_model()],
                             ids=["ground", "builder"])
    def test_arrays_are_read_only(self, make):
        g = make()
        with pytest.raises(ValueError, match="read-only"):
            g.theta_edge[0][0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            g.theta_node[0][0] = 1.0
        table = g.node_table
        for arr in (*g.theta_node.blocks, *g.theta_edge.blocks, *g.structural_zero.table,
                    g.structural_zero.code, table.desc, table.consts, table.valid,
                    table.n_values):
            assert not arr.flags.writeable


class TestEdgeTable:
    """Edges are one ``(E, 2)`` endpoint array, lower node id first, with
    their tags in a parallel tuple; the pair dict is built only on demand."""

    @staticmethod
    def _assert_edge_table(g):
        n_edges = len(g.theta_edge)
        assert g.edges.dtype == np.int64 and g.edges.shape == (n_edges, 2)
        assert (g.edges[:, 0] < g.edges[:, 1]).all()
        assert len(g.edge_tags) == n_edges

    @pytest.mark.parametrize("name", ["complete_graph", "friends_smokers", "clique_cycle"])
    def test_ground_returns_an_endpoint_array(self, name):
        g = build(name, 3, 0.5)
        self._assert_edge_table(g)
        assert len(g.edges) > 0 and set(g.edge_tags) == {None}

    def test_build_returns_an_endpoint_array(self, ring_model):
        self._assert_edge_table(ring_model)
        assert len(ring_model.edges) == 15
        assert sorted(set(ring_model.edge_tags)) == ["chord", "ring", "stem"]

    @pytest.mark.parametrize("name", ["friends_smokers", "clique_cycle"])
    def test_no_stage_builds_the_pair_dict(self, name):
        """Set-up and solves at every outer read the endpoint array only."""
        g = build(name, 3, 0.5)
        lg = lt.compute_orbits(g)
        rho = lt.init_rho_uniform(lg)
        for outer in lt.OUTER_CHOICES:
            lt.frank_wolfe(lg, outer=outer, rho=rho, tol=1e-4, max_iters=20)
        assert "edge_index" not in g.__dict__
        assert "node_index" not in g.__dict__
        assert g.edge_index[tuple(g.edges[-1].tolist())] == len(g.edges) - 1
        nd = g.nodes[-1]
        assert g.node_index[(nd.kind, nd.label, nd.consts)] == len(g.nodes) - 1


class TestNodeTable:
    """Grounding writes the nodes as arrays; set-up and solves read those."""

    @pytest.mark.parametrize("name", ["complete_graph", "friends_smokers", "clique_cycle"])
    def test_no_stage_builds_the_node_objects(self, name, monkeypatch):
        def refuse(*args):
            raise AssertionError("a GroundNode was built")

        monkeypatch.setattr(lt.model, "GroundNode", refuse)
        g = build(name, 4, 0.5)
        lg = lt.compute_orbits(g)
        rho = lt.init_rho_uniform(lg)
        for outer in lt.OUTER_CHOICES:
            lt.frank_wolfe(lg, outer=outer, rho=rho, tol=1e-4, max_iters=20)
        assert "nodes" not in g.__dict__

    @pytest.mark.parametrize("name", ["complete_graph", "friends_smokers", "clique_cycle"])
    def test_table_describes_the_nodes(self, name):
        g = build(name, 3, 0.5)
        table = g.node_table
        for i, nd in enumerate(g.nodes):
            assert table.types[table.desc[i]] == (nd.kind, nd.label, "", nd.n_values)
            assert table.consts_of(i) == nd.consts and g.n_values[i] == nd.n_values
        assert list(table.types) == sorted(set(table.types))


class TestScoreState:
    def test_complete_graph_all_zeros(self):
        g = build("complete_graph", 3, -1.0)
        assert abs(g.score_state([0, 0, 0]) - (-0.6)) < 1e-12

    def test_empty_model_scores_zero(self):
        g = lt.ground(lt.parse_model(""), 2)
        assert g.score_state([]) == 0.0

    def test_single_grounding(self):
        g = lt.ground(lt.parse_model("W V(x)").bind_weight(0.7), 1)
        assert abs(g.score_state([1]) - 0.7) < 1e-12
        assert g.score_state([0]) == 0.0

    def test_inconsistent_auxiliary_is_minus_infinity(self):
        g = build("friends_smokers", 2, 1.0)
        aux_id = next(iter(g.aux_atoms))
        state = complete_state(g, [0] * len(g.nodes))
        good = g.score_state(state)
        assert np.isfinite(good)
        state[aux_id] = (state[aux_id] + 1) % 8
        assert g.score_state(state) == float("-inf")


class TestMlnEquivalence:
    """Max over auxiliary completions must match direct formula counting."""

    @pytest.mark.parametrize("name,n", [
        ("complete_graph", 3), ("friends_smokers", 2), ("clique_cycle", 2),
    ])
    def test_all_states(self, name, n):
        w = -1.0 if name != "clique_cycle" else 1.3
        tm = lt.parse_model(lt.zoo.model_text(name))
        if tm.has_symbolic_weight:
            tm = tm.bind_weight(w)
        g = lt.ground(tm, n)
        atoms = g.atom_node_ids
        for idx in range(1 << len(atoms)):
            state = [0] * len(g.nodes)
            for pos, i in enumerate(atoms):
                state[i] = (idx >> pos) & 1
            state = complete_state(g, state)
            direct = formula_score(tm, n, atom_assignment(g, state))
            assert abs(g.score_state(state) - direct) < 1e-9

    @given(st.integers(min_value=0, max_value=2 ** 12 - 1))
    @settings(max_examples=40, deadline=None)
    def test_friends_smokers_n2_random_states(self, idx):
        tm = lt.parse_model(lt.zoo.FRIENDS_SMOKERS).bind_weight(0.8)
        g = lt.ground(tm, 2)
        atoms = g.atom_node_ids
        idx &= (1 << len(atoms)) - 1
        state = [0] * len(g.nodes)
        for pos, i in enumerate(atoms):
            state[i] = (idx >> pos) & 1
        state = complete_state(g, state)
        direct = formula_score(tm, 2, atom_assignment(g, state))
        assert abs(g.score_state(state) - direct) < 1e-9



def _edge_groundings(model, n, g):
    """The groundings ``(formula index, combo)`` behind each edge of ``g``,
    found by walking the template: a grounding with two distinct atoms makes
    the edge between them, one with three makes an auxiliary node and its
    three edges to the atoms."""
    out = [[] for _ in range(len(g.edges))]
    for f_idx, f in enumerate(model.formulas):
        for combo in itertools.product(range(n), repeat=len(f.variables)):
            binding = dict(zip(f.variables, combo))
            if any(binding[a] == binding[b] for a, b in (tuple(p) for p in f.guards)):
                continue
            atoms = dict.fromkeys((a.pred, tuple(binding[v] for v in a.args)) for a in f.atoms)
            ids = [g.node_index[("atom", pred, args)] for pred, args in atoms]
            if len(ids) == 2:
                pairs = [ids]
            elif len(ids) == 3:
                aux = g.node_index[("aux", f"f{f_idx}", combo)]
                pairs = [(aux, i) for i in ids]
            else:
                pairs = []
            for u, v in pairs:
                out[g.edge_index[(min(u, v), max(u, v))]].append((f_idx, combo))
    return out


class TestTying:
    @pytest.mark.parametrize("name,n", [
        ("complete_graph", 4), ("friends_smokers", 3), ("clique_cycle", 3),
    ])
    def test_theta_tied_by_provenance_pattern(self, name, n):
        g = build(name, n, -1.1)
        tm = lt.parse_model(lt.zoo.model_text(name))
        if tm.has_symbolic_weight:
            tm = tm.bind_weight(-1.1)
        provenance = _edge_groundings(tm, n, g)
        assert all(provenance)
        groups = {}
        for k in range(len(g.edges)):
            for f_idx, combo in provenance[k]:
                pattern = tuple(np.unique(combo, return_inverse=True)[1])
                groups.setdefault((f_idx, pattern), []).append(g.theta_edge[k])
        for key, thetas in groups.items():
            base = thetas[0]
            for th in thetas[1:]:
                assert (np.allclose(th, base, atol=1e-12)
                        or np.allclose(th, base.T, atol=1e-12)), key

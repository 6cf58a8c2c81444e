"""Templated model language, grounding, and the pairwise overcomplete factor graph.

A model file declares predicates of arity 1 or 2 and a list of weighted
boolean formulas over atoms with logical variables.  Grounding a model for a
domain of ``n`` constants produces a :class:`PairwiseGroundModel`: a binary
pairwise Markov random field in the overcomplete parametrization, where a
formula grounding touching three distinct atoms is converted exactly into an
auxiliary node of domain size 8 tied to its atoms by hard consistency edges.

Grammar (UTF-8, line oriented)::

    // comment
    predicate Name/arity          # optional; inferred from use when absent
    <weight> <formula>

``weight`` is a decimal literal or ``W`` (optionally signed), bound later via
:meth:`TemplatedModel.bind_weight`.  Formulas use ``^`` (and), ``v`` (or),
``!`` (not), ``->``, ``<->``, parentheses, atoms ``Name(x,y)`` and distinctness
guards ``x != y``.  Guards must appear as top-level conjuncts; an optional pair
of square brackets may enclose the whole formula body.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

NEG_INF = float("-inf")


class ModelError(Exception):
    """Raised on malformed model text or impossible grounding requests."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Weight:
    """A formula weight: a numeric literal or a multiple of the symbol W."""

    coeff: float
    symbolic: bool = False

    def resolve(self, w_value=None):
        if not self.symbolic:
            return self.coeff
        if w_value is None:
            raise ModelError("model uses the symbolic weight W but no value was bound")
        return self.coeff * w_value


@dataclass(frozen=True)
class AtomTemplate:
    pred: str
    args: tuple[str, ...]

    def __str__(self):
        return f"{self.pred}({','.join(self.args)})"


@dataclass(frozen=True)
class Formula:
    """One weighted formula, normalized to a canonical atom order.

    ``table[idx]`` is the truth value of the formula under the atom assignment
    with bit ``i`` of ``idx`` giving the value of ``atoms[i]``.
    """

    weight: Weight
    atoms: tuple[AtomTemplate, ...]
    guards: frozenset[frozenset[str]]
    table: tuple[bool, ...]
    variables: tuple[str, ...]
    line: int = 0


@dataclass(frozen=True)
class TemplatedModel:
    predicates: tuple[tuple[str, int], ...]
    formulas: tuple[Formula, ...]

    def bind_weight(self, w_value):
        """Return a copy with every symbolic weight resolved to a number."""
        bound = tuple(
            Formula(Weight(f.weight.resolve(w_value)), f.atoms, f.guards, f.table,
                    f.variables, f.line)
            for f in self.formulas
        )
        return TemplatedModel(self.predicates, bound)

    @property
    def has_symbolic_weight(self):
        return any(f.weight.symbolic for f in self.formulas)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<iff><->)|(?P<imp>->)|(?P<ne>!=)"
    r"|(?P<not>!)|(?P<and>\^)|(?P<comma>,)|(?P<name>[A-Za-z_][A-Za-z0-9_]*))"
)

_PRED_DECL_RE = re.compile(r"^predicate\s+([A-Za-z_][A-Za-z0-9_]*)\s*/\s*(\d+)\s*$")
_WEIGHT_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-]?W)\s+(.*)$")


def _tokenize(text, line):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ModelError(f"unexpected character {text[pos:].strip()[0]!r}", line)
        pos = m.end()
        kind = m.lastgroup
        val = m.group(kind)
        tokens.append((kind, val))
    return tokens


class _FormulaParser:
    """Recursive descent over tokens.  Precedence: ! > ^ > v > -> > <->."""

    def __init__(self, tokens, line):
        self.tokens = tokens
        self.line = line
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self, kind=None):
        tok = self.peek()
        if tok[0] is None:
            raise ModelError("unexpected end of formula", self.line)
        if kind is not None and tok[0] != kind:
            raise ModelError(f"expected {kind}, found {tok[1]!r}", self.line)
        self.pos += 1
        return tok

    def parse(self):
        expr = self.parse_iff()
        if self.peek()[0] is not None:
            raise ModelError(f"trailing tokens near {self.peek()[1]!r}", self.line)
        return expr

    def parse_iff(self):
        left = self.parse_imp()
        while self.peek()[0] == "iff":
            self.take()
            right = self.parse_imp()
            left = ("iff", left, right)
        return left

    def parse_imp(self):
        left = self.parse_or()
        if self.peek()[0] == "imp":
            self.take()
            right = self.parse_imp()  # right associative
            return ("imp", left, right)
        return left

    def parse_or(self):
        left = self.parse_and()
        while self.peek() == ("name", "v"):
            self.take()
            right = self.parse_and()
            left = ("or", left, right)
        return left

    def parse_and(self):
        left = self.parse_not()
        while self.peek()[0] == "and":
            self.take()
            right = self.parse_not()
            left = ("and", left, right)
        return left

    def parse_not(self):
        if self.peek()[0] == "not":
            self.take()
            return ("not", self.parse_not())
        return self.parse_primary()

    def parse_primary(self):
        kind, val = self.peek()
        if kind == "lpar":
            self.take()
            expr = self.parse_iff()
            self.take("rpar")
            return expr
        if kind != "name":
            raise ModelError(f"expected atom or variable, found {val!r}", self.line)
        self.take()
        nxt = self.peek()
        if nxt[0] == "lpar":  # atom
            self.take()
            args = [self.take("name")[1]]
            while self.peek()[0] == "comma":
                self.take()
                args.append(self.take("name")[1])
            self.take("rpar")
            return ("atom", val, tuple(args))
        if nxt[0] == "ne":  # distinctness guard: var != var
            self.take()
            other = self.take("name")[1]
            return ("ne", val, other)
        raise ModelError(f"bare identifier {val!r} (expected atom or guard)", self.line)


def _split_guards(expr, line):
    """Split top-level conjuncts into guard pairs and the residual formula."""
    conjuncts = []
    stack = [expr]
    while stack:
        e = stack.pop()
        if e[0] == "and":
            stack.append(e[1])
            stack.append(e[2])
        else:
            conjuncts.append(e)
    guards = []
    rest = []
    for c in conjuncts:
        if c[0] == "ne":
            guards.append(frozenset((c[1], c[2])))
        else:
            _check_no_guard(c, line)
            rest.append(c)
    if not rest:
        raise ModelError("formula reduces to guards only (no atoms)", line)
    body = rest[0]
    for c in rest[1:]:
        body = ("and", body, c)
    return frozenset(guards), body


def _check_no_guard(expr, line):
    if expr[0] == "ne":
        raise ModelError("distinctness guards must be top-level conjuncts", line)
    if expr[0] == "atom":
        return
    for sub in expr[1:]:
        if isinstance(sub, tuple):
            _check_no_guard(sub, line)


def _collect_atoms(expr, out):
    if expr[0] == "atom":
        out.append(AtomTemplate(expr[1], expr[2]))
        return
    for sub in expr[1:]:
        if isinstance(sub, tuple):
            _collect_atoms(sub, out)


def _eval_expr(expr, assignment):
    op = expr[0]
    if op == "atom":
        return assignment[AtomTemplate(expr[1], expr[2])]
    if op == "not":
        return not _eval_expr(expr[1], assignment)
    if op == "and":
        return _eval_expr(expr[1], assignment) and _eval_expr(expr[2], assignment)
    if op == "or":
        return _eval_expr(expr[1], assignment) or _eval_expr(expr[2], assignment)
    if op == "imp":
        return (not _eval_expr(expr[1], assignment)) or _eval_expr(expr[2], assignment)
    if op == "iff":
        return _eval_expr(expr[1], assignment) == _eval_expr(expr[2], assignment)
    raise AssertionError(op)


def _parse_weight(token, line):
    if token.endswith("W"):
        sign = -1.0 if token.startswith("-") else 1.0
        return Weight(sign, symbolic=True)
    value = float(token)
    if not math.isfinite(value):
        raise ModelError("weights must be finite (hard constraints unsupported)", line)
    return Weight(value)


def parse_model(text):
    """Parse model text into a :class:`TemplatedModel`.

    Predicates may be declared with ``predicate Name/arity`` lines; when at
    least one declaration is present every atom must use a declared predicate.
    Without declarations, predicates are inferred from first use and checked
    for consistent arity.
    """
    declared = {}
    inferred = {}
    strict = False
    formulas = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        decl = _PRED_DECL_RE.match(line)
        if decl:
            name, arity = decl.group(1), int(decl.group(2))
            if arity not in (1, 2):
                raise ModelError(f"predicate {name} has arity {arity}, only 1 or 2 supported", lineno)
            if name in declared and declared[name] != arity:
                raise ModelError(f"predicate {name} redeclared with different arity", lineno)
            declared[name] = arity
            strict = True
            continue
        m = _WEIGHT_RE.match(line)
        if m is None:
            raise ModelError("expected 'predicate Name/arity' or '<weight> <formula>'", lineno)
        weight = _parse_weight(m.group(1), lineno)
        body_text = m.group(2).strip()
        if body_text.startswith("[") and body_text.endswith("]"):
            body_text = body_text[1:-1]
        expr = _FormulaParser(_tokenize(body_text, lineno), lineno).parse()
        guards, body = _split_guards(expr, lineno)

        raw_atoms = []
        _collect_atoms(body, raw_atoms)
        atoms = tuple(sorted(set(raw_atoms), key=lambda a: (a.pred, a.args)))
        if len(atoms) > 3:
            raise ModelError(f"formula has {len(atoms)} distinct atoms, at most 3 supported", lineno)

        for atom in atoms:
            if strict:
                if atom.pred not in declared:
                    raise ModelError(f"undeclared predicate {atom.pred}", lineno)
                if declared[atom.pred] != len(atom.args):
                    raise ModelError(
                        f"predicate {atom.pred} used with arity {len(atom.args)}, "
                        f"declared {declared[atom.pred]}", lineno)
            else:
                if len(atom.args) not in (1, 2):
                    raise ModelError(f"predicate {atom.pred} has arity {len(atom.args)}, "
                                     "only 1 or 2 supported", lineno)
                if inferred.setdefault(atom.pred, len(atom.args)) != len(atom.args):
                    raise ModelError(f"predicate {atom.pred} used with inconsistent arity", lineno)

        variables = []
        for atom in atoms:
            for v in atom.args:
                if v not in variables:
                    variables.append(v)
        for g in guards:
            for v in g:
                if v not in variables:
                    raise ModelError(f"guard variable {v} appears in no atom", lineno)

        table = []
        for idx in range(2 ** len(atoms)):
            assignment = {atoms[i]: bool((idx >> i) & 1) for i in range(len(atoms))}
            table.append(_eval_expr(body, assignment))
        formulas.append(Formula(weight, atoms, guards, tuple(table), tuple(variables), lineno))

    preds = declared if strict else inferred
    return TemplatedModel(tuple(sorted(preds.items())), tuple(formulas))


# ---------------------------------------------------------------------------
# Ground model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundNode:
    """A node of the ground factor graph.

    ``kind`` is ``'atom'`` (binary) or ``'aux'`` (domain ``2**3`` for the
    three-atom factor conversion).  ``label`` is the predicate name for atoms
    and an opaque per-formula identifier for auxiliary nodes; ``consts`` are
    the domain constants the node mentions.  ``tag`` carries an extra symmetry
    color for hand-built models.
    """

    kind: str
    label: str
    consts: tuple[int, ...]
    n_values: int
    tag: str | None = None

    @property
    def name(self):
        args = ",".join(str(c) for c in self.consts)
        return f"{self.label}({args})" if self.consts else self.label


@dataclass
class PairwiseGroundModel:
    """Binary-or-auxiliary pairwise MRF in the overcomplete parametrization.

    Immutable after construction (arrays are not written to); safe to share.
    ``edges`` is an ``(E, 2)`` int64 array of endpoint pairs, lower node id
    first, with each edge's tag in ``edge_tags``.  ``_provenance`` holds the
    lists behind :attr:`node_provenance` and :attr:`edge_provenance`, or a
    function that builds them on first access.
    """

    constants: tuple[int, ...]
    nodes: list[GroundNode]
    edges: np.ndarray
    edge_tags: tuple[str | None, ...]
    theta_node: list[np.ndarray]
    theta_edge: list[np.ndarray]
    structural_zero: list[np.ndarray | None]
    _provenance: tuple | Callable = field(repr=False)
    aux_atoms: dict[int, tuple[int, int, int]] = field(default_factory=dict)

    @cached_property
    def node_index(self):
        """Node id of each ``(kind, label, consts)``; built on first use."""
        return {(nd.kind, nd.label, nd.consts): i for i, nd in enumerate(self.nodes)}

    @cached_property
    def edge_index(self):
        """Edge id of each endpoint pair, lower node id first; built on first use."""
        return {(u, v): k for k, (u, v) in enumerate(self.edges.tolist())}

    @property
    def node_provenance(self):
        """Per node, the ``(formula index, binding)`` of each grounding that added it."""
        return self._provenance_lists()[0]

    @property
    def edge_provenance(self):
        """Per edge, the ``(formula index, binding)`` of each potential added to it."""
        return self._provenance_lists()[1]

    def _provenance_lists(self):
        if callable(self._provenance):
            self._provenance = self._provenance()
        return self._provenance

    # -- overcomplete feature layout -------------------------------------
    def feature_layout(self):
        """Offsets of per-node and per-edge feature blocks (cached)."""
        if not hasattr(self, "_feat"):
            n_values = np.array([nd.n_values for nd in self.nodes], dtype=np.int64)
            sizes = np.concatenate([n_values, n_values[self.edges].prod(axis=1)])
            start = (np.cumsum(sizes) - sizes).tolist()
            n = len(self.nodes)
            self._feat = (start[:n], start[n:], int(sizes.sum()))
        return self._feat

    @property
    def n_features(self):
        return self.feature_layout()[2]

    def node_feature(self, i, t):
        return self.feature_layout()[0][i] + t

    def edge_feature(self, k, t, h):
        nv = self.nodes[self.edges[k, 1]].n_values
        return self.feature_layout()[1][k] + t * nv + h

    def theta_vector(self):
        """The full overcomplete parameter vector."""
        out = np.zeros(self.n_features)
        for i, th in enumerate(self.theta_node):
            s = self.feature_layout()[0][i]
            out[s:s + th.size] = th
        for k, th in enumerate(self.theta_edge):
            s = self.feature_layout()[1][k]
            out[s:s + th.size] = th.ravel()
        return out

    # -- scoring ----------------------------------------------------------
    def score_state(self, x):
        """Return the overcomplete log score of a full assignment.

        Returns ``-inf`` when an auxiliary node disagrees with its atoms (a
        structural zero is selected).
        """
        total = 0.0
        for i, t in enumerate(x):
            total += self.theta_node[i][t]
        for k, (u, v) in enumerate(self.edges.tolist()):
            t, h = x[u], x[v]
            mask = self.structural_zero[k]
            if mask is not None and mask[t, h]:
                return NEG_INF
            total += self.theta_edge[k][t, h]
        return total

    @property
    def atom_node_ids(self):
        return [i for i, nd in enumerate(self.nodes) if nd.kind == "atom"]

    def consistent_aux_value(self, aux_id, values):
        """The unique consistent value of an auxiliary node given ``values`` per node id."""
        a0, a1, a2 = self.aux_atoms[aux_id]
        return values[a0] | (values[a1] << 1) | (values[a2] << 2)

    def complete_state(self, atom_values):
        """Extend a per-atom-node assignment dict/array to all nodes."""
        x = [0] * len(self.nodes)
        for i, nd in enumerate(self.nodes):
            if nd.kind == "atom":
                x[i] = atom_values[i]
        for aux_id in self.aux_atoms:
            x[aux_id] = self.consistent_aux_value(aux_id, x)
        return x


class GroundModelBuilder:
    """Incremental constructor used by grounding and by hand-built models."""

    def __init__(self, constants):
        self.constants = tuple(constants)
        self.nodes = []
        self.node_index = {}
        self.edges = []  # endpoint pairs, lower node id first
        self.edge_tags = []
        self.edge_index = {}
        self.theta_node = []
        self.theta_edge = []
        self.structural_zero = []
        self.node_provenance = []
        self.edge_provenance = []
        self.aux_atoms = {}

    def add_node(self, kind, label, consts, n_values, tag=None, provenance=None):
        key = (kind, label, tuple(consts))
        if key in self.node_index:
            i = self.node_index[key]
            nd = self.nodes[i]
            if nd.n_values != n_values or nd.tag != tag:
                raise ModelError(f"node {key} exists with {nd.n_values} values, tag {nd.tag!r}")
        else:
            i = len(self.nodes)
            self.node_index[key] = i
            self.nodes.append(GroundNode(kind, label, tuple(consts), n_values, tag))
            self.theta_node.append(np.zeros(n_values))
            self.node_provenance.append([])
        if provenance is not None:
            self.node_provenance[i].append(provenance)
        return i

    def add_node_theta(self, i, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != self.theta_node[i].shape:
            raise ModelError(f"node theta has shape {theta.shape}, "
                             f"expected {self.theta_node[i].shape}")
        self.theta_node[i] += theta

    def add_edge_theta(self, u, v, theta, tag=None, structural_zero=None, provenance=None):
        """Accumulate a pairwise potential; parallel potentials are summed.

        ``theta`` and ``structural_zero`` are indexed by the values of ``u``
        then ``v``, so both must have shape ``(n_values(u), n_values(v))``.
        An edge from a node to itself is refused, as ``ground`` makes none,
        and so is re-adding an edge with another ``tag``.
        """
        if u == v:
            raise ModelError(f"edge ({u}, {v}) joins a node to itself")
        theta = np.asarray(theta, dtype=float)
        shape = (self.nodes[u].n_values, self.nodes[v].n_values)
        for what, arr in (("theta", theta), ("structural zero", structural_zero)):
            if arr is not None and np.shape(arr) != shape:
                raise ModelError(f"edge {what} has shape {np.shape(arr)}, expected {shape}")
        key = (u, v) if u <= v else (v, u)
        k = self.edge_index.get(key)
        if k is None:
            k = len(self.edges)
            self.edge_index[key] = k
            self.edges.append(key)
            self.edge_tags.append(tag)
            nu = self.nodes[key[0]].n_values
            nv = self.nodes[key[1]].n_values
            self.theta_edge.append(np.zeros((nu, nv)))
            self.structural_zero.append(None)
            self.edge_provenance.append([])
        elif self.edge_tags[k] != tag:
            raise ModelError(f"edge {key} exists with tag {self.edge_tags[k]!r}")
        if u > v:
            theta = theta.T
            structural_zero = None if structural_zero is None else structural_zero.T
        self.theta_edge[k] += theta
        if structural_zero is not None:
            old = self.structural_zero[k]
            self.structural_zero[k] = structural_zero if old is None else (old | structural_zero)
        if provenance is not None:
            self.edge_provenance[k].append(provenance)
        return k

    def build(self):
        return PairwiseGroundModel(
            constants=self.constants,
            nodes=self.nodes,
            edges=np.array(self.edges, dtype=np.int64).reshape(-1, 2),
            edge_tags=tuple(self.edge_tags),
            theta_node=self.theta_node,
            theta_edge=self.theta_edge,
            structural_zero=self.structural_zero,
            _provenance=(self.node_provenance, self.edge_provenance),
            aux_atoms=self.aux_atoms,
        )


# Entry [t, h] is set where auxiliary value h disagrees with value t of its
# bit-th atom: an auxiliary edge is stored atom first, since an auxiliary
# node is always added after its atoms.  Read-only because every auxiliary
# edge shares them.
_AUX_ZERO = tuple(np.arange(2)[:, None] != ((np.arange(8) >> bit) & 1)[None, :]
                  for bit in range(3))
for _arr in _AUX_ZERO:
    _arr.flags.writeable = False

_NO_INTS = np.zeros(0, dtype=np.int64)


def _pattern_theta(table, pos, w):
    """Potential of a grounding whose template atom ``i`` is distinct atom ``pos[i]``.

    Returns ``(k, theta)`` with ``k`` distinct atoms: ``theta`` has ``2**k``
    entries indexed by the distinct atoms' bits, shaped ``(2, 2)`` (first atom
    first) when ``k == 2``.
    """
    k = max(pos) + 1
    theta = np.zeros(2 ** k)
    for idx in range(2 ** k):
        t_idx = sum(((idx >> p) & 1) << i for i, p in enumerate(pos))
        theta[idx] = w if table[t_idx] else 0.0
    if k == 2:
        theta = theta.reshape(2, 2, order="F")
    theta.flags.writeable = False
    return k, theta


def _first_seen(codes):
    """Number ``codes`` in order of first appearance.

    Returns ``(ids, first)``: the number of every code, and the position of
    each number's first appearance.  A stable argsort groups equal codes with
    their earliest position first.
    """
    order = np.argsort(codes, kind="stable")
    ranked = codes[order]
    new = np.ones(ranked.size, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    first = order[new]  # one per distinct code, in code order
    by_position = np.argsort(first, kind="stable")
    rank = np.empty(first.size, dtype=np.int64)
    rank[by_position] = np.arange(first.size)
    ids = np.empty(codes.size, dtype=np.int64)
    ids[order] = rank[np.cumsum(new) - 1]
    return ids, first[by_position]


def _zeroed_blocks(is_aux, shape, aux_shape):
    """Zeroed storage for one array per id, shaped ``aux_shape`` where
    ``is_aux`` and ``shape`` elsewhere: two blocks, and each id's row in its block.
    """
    slot = np.where(is_aux, np.cumsum(is_aux), np.cumsum(~is_aux)) - 1
    n_aux = int(is_aux.sum())
    return (np.zeros((is_aux.size - n_aux,) + shape), np.zeros((n_aux,) + aux_shape), slot)


def _row_views(is_aux, slot, plain, aux):
    """Each id's row of the blocks of :func:`_zeroed_blocks`, in id order."""
    rows = (list(plain), list(aux))
    return [rows[a][s] for a, s in zip(is_aux.tolist(), slot.tolist())]


def _add_rows(block, rows, values):
    """``block[r] += v`` for each row ``r`` and value ``v``, in order."""
    if len(rows):
        width = block[0].size
        np.add.at(block.reshape(-1), rows[:, None] * width + np.arange(width),
                  values.reshape(len(rows), width))


@dataclass
class _Bindings:
    """The bindings of one formula that its guards admit.

    ``combos`` holds each binding's constants, in ``itertools.product`` order.
    ``k`` counts its distinct ground atoms and ``pattern`` codes which
    template atoms coincide as ``sum(pos[i] * 3**i)``, where ``pos[i]`` is
    the distinct-atom index of template atom ``i``; ``tables[k][pattern]``
    is the binding's potential.
    """

    f_idx: int
    combos: np.ndarray
    k: np.ndarray
    pattern: np.ndarray
    tables: dict

    def values(self, k):
        """The bindings with ``k`` distinct atoms, and their potentials."""
        sel = self.k == k
        if k not in self.tables:
            return sel, np.zeros((0, 2, 2) if k == 2 else (0, 2 ** k))
        return sel, self.tables[k][self.pattern[sel]]

    def node_counts(self):
        """Nodes each binding adds: its distinct atoms, and an auxiliary one if k == 3."""
        return self.k + (self.k == 3)

    def edge_counts(self):
        """Edges each binding adds: one if k == 2, three auxiliary ones if k == 3."""
        return (self.k == 2) + 3 * (self.k == 3)


def _bind_formula(f_idx, formula, n, offsets, aux_base):
    """The bindings of ``formula`` and their node events, in order.

    A ground atom is coded as its predicate's offset plus its arguments in
    base ``n``, and a binding's auxiliary node as ``aux_base`` plus the
    binding's index; a binding's events are its distinct atoms in template
    order, then its auxiliary node.
    """
    var_at = {v: i for i, v in enumerate(formula.variables)}
    n_vars = len(formula.variables)
    index = np.arange(n ** n_vars)
    combos = np.stack([index // n ** (n_vars - 1 - j) % n for j in range(n_vars)], axis=1)
    keep = np.ones(index.size, dtype=bool)
    for g in formula.guards:
        ids = sorted(var_at[v] for v in g)  # one id: the guard is x != x
        keep &= combos[:, ids[0]] != combos[:, ids[-1]]
    combos = combos[keep]
    atoms = np.stack([
        offsets[a.pred] + sum(combos[:, var_at[v]] * n ** (len(a.args) - 1 - i)
                              for i, v in enumerate(a.args))
        for a in formula.atoms], axis=1)

    n_atoms = atoms.shape[1]
    new = np.ones(atoms.shape, dtype=bool)  # first template atom of its ground atom
    pos = np.zeros(atoms.shape, dtype=np.int64)
    k = np.ones(len(atoms), dtype=np.int64)
    for i in range(1, n_atoms):
        pos[:, i] = k
        for j in range(i):
            same = atoms[:, i] == atoms[:, j]
            new[:, i] &= ~same
            pos[same, i] = pos[same, j]
        k += new[:, i]
    pattern = sum(pos[:, i] * 3 ** i for i in range(n_atoms))
    w = formula.weight.resolve()
    tables = {}
    for code in np.flatnonzero(np.bincount(pattern)).tolist():
        pos_i = tuple(code // 3 ** i % 3 for i in range(n_atoms))
        kk, theta = _pattern_theta(formula.table, pos_i, w)
        tables.setdefault(kk, np.zeros((3 ** n_atoms,) + theta.shape))[code] = theta

    aux = (aux_base + np.arange(len(atoms)))[:, None]
    mask = np.concatenate([new, (k == 3)[:, None]], axis=1)
    return (_Bindings(f_idx, combos, k, pattern, tables),
            np.concatenate([atoms, aux], axis=1)[mask])


def _provenance(forms, node_of, edge_of):
    """The provenance lists of a grounding, from the ids of its node and edge events."""
    prov = [(fb.f_idx, tuple(c)) for fb in forms for c in fb.combos.tolist()]
    binding = np.arange(len(prov))
    out = []
    for ids, counts in ((node_of, [fb.node_counts() for fb in forms]),
                        (edge_of, [fb.edge_counts() for fb in forms])):
        lists = [[] for _ in range(int(ids.max()) + 1 if ids.size else 0)]
        event_binding = np.repeat(binding, np.concatenate(counts + [_NO_INTS]))
        for i, b in zip(ids.tolist(), event_binding.tolist()):
            lists[i].append(prov[b])
        out.append(lists)
    return tuple(out)


def _add_groundings(forms, node_of, node_slot, atom_theta, aux_theta):
    """Add the node potentials of every binding; list its edges and auxiliary nodes.

    Returns ``(edge_u, edge_v, edge_bit, flips, aux_of)``.  The edge events
    (lower node id, higher one, and for an auxiliary edge the bit of its
    atom, else -1) run in the order the bindings add them.  ``flips[f]``
    marks the pairwise bindings of formula ``f`` whose first distinct atom
    has the higher node id; ``aux_of[f]`` holds the auxiliary node and
    the three atom nodes of its bindings with k == 3.
    """
    padded = np.concatenate([node_of, np.zeros(3, dtype=np.int64)])
    start = 0
    edge_u, edge_v, edge_bit, flips, aux_of = [_NO_INTS], [_NO_INTS], [_NO_INTS], [], []
    for fb in forms:
        counts = fb.node_counts()
        first_event = start + np.cumsum(counts) - counts
        start += int(counts.sum())
        a0, a1, a2, a3 = (padded[first_event + d] for d in range(4))
        sel, vals = fb.values(1)
        _add_rows(atom_theta, node_slot[a0[sel]], vals)
        sel, vals = fb.values(3)
        _add_rows(aux_theta, node_slot[a3[sel]], vals)
        aux_of.append((a3[sel], a0[sel], a1[sel], a2[sel]))
        pair, triple = fb.k == 2, fb.k == 3
        flips.append(a0[pair] > a1[pair])
        valid = np.stack([pair | triple, triple, triple], axis=1)
        edge_u.append(np.stack([np.where(pair, np.minimum(a0, a1), a0), a1, a2], axis=1)[valid])
        edge_v.append(np.stack([np.where(pair, np.maximum(a0, a1), a3), a3, a3], axis=1)[valid])
        bit = np.tile(np.arange(3), (len(pair), 1))
        bit[pair, 0] = -1
        edge_bit.append(bit[valid])
    return (*(np.concatenate(x) for x in (edge_u, edge_v, edge_bit)), flips, aux_of)


def _add_pair_potentials(forms, flips, rows, pair_theta):
    """Add the potential of every pairwise binding to its edge's row, in order."""
    start = 0
    for fb, flip in zip(forms, flips):
        _, vals = fb.values(2)
        _add_rows(pair_theta, rows[start:start + len(vals)],
                  np.where(flip[:, None, None], vals.transpose(0, 2, 1), vals))
        start += len(vals)


def ground(model, n):
    """Ground ``model`` over constants ``0..n-1``.

    Every formula grounding with ``k`` distinct ground atoms becomes a unary
    potential (k=1), a pairwise potential (k=2), or an auxiliary node with
    three hard consistency edges (k=3).  Formulas whose guards admit no
    binding (``x != x`` admits none) simply contribute nothing.

    Each formula is grounded by array operations over all its bindings,
    taken in the order of ``itertools.product`` over its variables.  A
    grounding adds its distinct atoms in template order, then its auxiliary
    node, then its edges; node and edge ids count first additions across
    the formulas in order, and parallel potentials are summed in the order
    they are added, as a loop over the groundings would.  A grounding's
    potential depends only on which template atoms coincide, so it is built
    once per coincidence pattern.  Provenance is built on first access.
    """
    if n < 1:
        raise ModelError(f"domain size must be >= 1, got {n}")
    if model.has_symbolic_weight:
        raise ModelError("symbolic weight W is unbound; call bind_weight first")

    offsets = {}
    n_atom_codes = 0
    for pred, arity in model.predicates:
        offsets[pred] = n_atom_codes
        n_atom_codes += n ** arity
    forms, node_events = [], [_NO_INTS]
    n_bindings = 0
    for f_idx, formula in enumerate(model.formulas):
        fb, events = _bind_formula(f_idx, formula, n, offsets, n_atom_codes + n_bindings)
        forms.append(fb)
        node_events.append(events)
        n_bindings += len(fb.k)
    node_events = np.concatenate(node_events)
    node_of, first = _first_seen(node_events)
    node_codes = node_events[first]
    del node_events
    is_aux = node_codes >= n_atom_codes
    atom_theta, aux_theta, node_slot = _zeroed_blocks(is_aux, (2,), (8,))
    edge_u, edge_v, edge_bit, flips, aux_of = _add_groundings(
        forms, node_of, node_slot, atom_theta, aux_theta)

    edge_of, first = _first_seen(edge_u * len(node_codes) + edge_v)
    edges, bits = np.stack([edge_u[first], edge_v[first]], axis=1), edge_bit[first]
    pair_theta, aux_edge_theta, edge_slot = _zeroed_blocks(bits >= 0, (2, 2), (2, 8))
    _add_pair_potentials(forms, flips, edge_slot[edge_of[edge_bit < 0]], pair_theta)
    del edge_u, edge_v, edge_bit, flips  # the event arrays go before the node objects come

    nodes = [None] * len(node_codes)
    atom_ids = np.flatnonzero(~is_aux)
    starts = np.array([offsets[p] for p, _ in model.predicates], dtype=np.int64)
    pred_of = (node_codes[atom_ids, None] >= starts).sum(axis=1) - 1
    for i, p, r in zip(atom_ids.tolist(), pred_of.tolist(),
                       (node_codes[atom_ids] - starts[pred_of]).tolist()):
        name, arity = model.predicates[p]
        nodes[i] = GroundNode("atom", name, (r,) if arity == 1 else divmod(r, n), 2)
    aux_atoms = {}
    for fb, (aux_ids, *atom_cols) in zip(forms, aux_of):
        label = f"f{fb.f_idx}"
        aux_ids = aux_ids.tolist()
        for i, combo in zip(aux_ids, fb.combos[fb.k == 3].tolist()):
            nodes[i] = GroundNode("aux", label, tuple(combo), 8)
        aux_atoms.update(zip(aux_ids, zip(*(c.tolist() for c in atom_cols))))

    return PairwiseGroundModel(
        constants=tuple(range(n)),
        nodes=nodes,
        edges=edges,
        edge_tags=(None,) * len(edges),
        theta_node=_row_views(is_aux, node_slot, atom_theta, aux_theta),
        theta_edge=_row_views(bits >= 0, edge_slot, pair_theta, aux_edge_theta),
        structural_zero=[None if b < 0 else _AUX_ZERO[b] for b in bits.tolist()],
        _provenance=partial(_provenance, forms, node_of, edge_of),
        aux_atoms=aux_atoms,
    )

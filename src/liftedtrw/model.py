"""Grounding, and the pairwise overcomplete factor graph it produces.

Grounding a templated model (see :mod:`liftedtrw.language`, whose parser
this module re-exports) for a domain of ``n`` constants produces a
:class:`PairwiseGroundModel`: a binary pairwise Markov random field in the
overcomplete parametrization, where a formula grounding touching three
distinct atoms is converted exactly into an auxiliary node of domain size 8
tied to its atoms by hard consistency edges.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .language import ModelError, TemplatedModel, parse_model  # noqa: F401 - re-exported

NEG_INF = float("-inf")


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


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False


class BlockRows(Sequence):
    """One array per id, held as rows of a few blocks, one block per shape.

    Id ``i`` is row ``slot[i]`` of ``blocks[block[i]]``; indexing returns
    that row, a read-only view.
    """

    __slots__ = ("blocks", "block", "slot")

    def __init__(self, blocks, block, slot):
        _read_only(*blocks, block, slot)
        self.blocks, self.block, self.slot = tuple(blocks), block, slot

    @classmethod
    def stacked(cls, arrays):
        """Copies of ``arrays`` stacked by shape, in order of first appearance."""
        by_shape = {}  # shape -> (block, rows)
        block = np.empty(len(arrays), dtype=np.int64)
        slot = np.empty(len(arrays), dtype=np.int64)
        for i, arr in enumerate(arrays):
            block[i], rows = by_shape.setdefault(arr.shape, (len(by_shape), []))
            slot[i] = len(rows)
            rows.append(arr)
        return cls([np.array(rows, dtype=float) for _, rows in by_shape.values()], block, slot)

    def __len__(self):
        return len(self.slot)

    def __getitem__(self, i):
        return self.blocks[self.block[i]][self.slot[i]]

    def stack(self, ids, turned=None):
        """Rows ``ids`` stacked along a new first axis, each transposed where
        ``turned`` is set; all of them must then have one shape.  Rows are
        copied by ``np.take``, which moves a row at a time, not an entry."""
        code = 2 * self.block[ids] + (0 if turned is None else turned)  # block, turned
        kinds = np.flatnonzero(np.bincount(code)).tolist()
        if len(kinds) == 1:
            part = np.take(self.blocks[kinds[0] // 2], self.slot[ids], axis=0)
            return part.transpose(0, 2, 1) if kinds[0] % 2 else part
        parts = []
        for kind in kinds:
            sel = code == kind
            part = np.take(self.blocks[kind // 2], self.slot[ids[sel]], axis=0)
            parts.append((sel, part.transpose(0, 2, 1) if kind % 2 else part))
        out = np.empty((len(ids),) + parts[0][1].shape[1:])
        for sel, part in parts:
            out[sel] = part
        return out


class MaskCodes(Sequence):
    """Per edge, a structural-zero mask or ``None``, as codes into a table.

    ``code[k]`` indexes the read-only ``table`` of distinct masks, or is -1
    when edge ``k`` has none; indexing returns the mask or ``None``.
    """

    __slots__ = ("code", "table")

    def __init__(self, code, table):
        _read_only(code, *table)
        self.code, self.table = code, tuple(table)

    def __len__(self):
        return len(self.code)

    def __getitem__(self, k):
        c = self.code[k]
        return None if c < 0 else self.table[c]

    def oriented(self, shape):
        """Two blanks, then each mask and its transpose, as one bool array
        ``(2 * len(table) + 2,) + shape``: entry ``2 * (c + 1) + turned`` is
        mask ``c``, transposed where ``turned`` is set, and all False where
        there is none or it has another shape."""
        blank = np.zeros(shape, dtype=bool)
        oriented = [blank, blank]
        for mask in self.table:
            oriented += [mask if mask.shape == shape else blank,
                         mask.T if mask.T.shape == shape else blank]
        return np.array(oriented)


@dataclass(frozen=True, eq=False)
class NodeTable:
    """The ground nodes as arrays.

    ``types`` lists the distinct ``(kind, label, tag or "", n_values)`` in
    sorted order and ``desc[i]`` is node ``i``'s position there, which ranks
    the nodes' descriptions.  ``consts`` holds each node's constants in a
    padded ``(N, W)`` matrix, whose ``valid`` mask marks the first
    ``len(consts)`` entries of each row; ``n_values`` counts each node's
    values.  Every array is read-only.
    """

    types: tuple
    desc: np.ndarray
    consts: np.ndarray
    valid: np.ndarray
    n_values: np.ndarray

    def __post_init__(self):
        _read_only(self.desc, self.consts, self.valid, self.n_values)

    @classmethod
    def of(cls, types, desc, consts, valid):
        n_values = np.array([t[3] for t in types], dtype=np.int64)[desc]
        return cls(tuple(types), desc, consts, valid, n_values)

    def consts_of(self, i):
        return tuple(self.consts[i][self.valid[i]].tolist())

    def is_kind(self, kind):
        """Per node, whether its kind is ``kind``."""
        return np.array([t[0] == kind for t in self.types], dtype=bool)[self.desc]

    def nodes(self):
        """The :class:`GroundNode` of every node; a tag of "" comes back as None."""
        return [GroundNode(kind, label, tuple(row[:length]), nv, tag or None)
                for (kind, label, tag, nv), row, length in zip(
                    map(self.types.__getitem__, self.desc.tolist()), self.consts.tolist(),
                    self.valid.sum(axis=1).tolist())]


def _node_table_of(nodes):
    """The :class:`NodeTable` of a list of :class:`GroundNode`."""
    keys = [(nd.kind, nd.label, nd.tag or "", nd.n_values) for nd in nodes]
    types = sorted(set(keys))
    rank = {key: r for r, key in enumerate(types)}
    desc = np.fromiter(map(rank.__getitem__, keys), dtype=np.int64, count=len(keys))
    lengths = np.array([len(nd.consts) for nd in nodes], dtype=np.int64)
    valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
    consts = np.zeros(valid.shape, dtype=np.int64)
    consts[valid] = [c for nd in nodes for c in nd.consts]
    return NodeTable.of(types, desc, consts, valid)


@dataclass
class PairwiseGroundModel:
    """Binary-or-auxiliary pairwise MRF in the overcomplete parametrization.

    Immutable after construction; its arrays are read-only and it is safe to
    share.  The nodes are the arrays of ``node_table``; the
    :class:`GroundNode` objects of :attr:`nodes` are built on first access,
    and no inference stage asks for them.  ``edges`` is an ``(E, 2)`` int64
    array of endpoint pairs, lower node id first, with each edge's tag in
    ``edge_tags``.  ``theta_node`` and ``theta_edge`` hold each node's and
    edge's potential as a row of a block of equal shapes (:class:`BlockRows`:
    a block, and a slot in it, per id); ``structural_zero`` codes each
    edge's mask into a small table, -1 for none (:class:`MaskCodes`).
    ``_provenance`` holds the lists behind :attr:`node_provenance` and
    :attr:`edge_provenance`, or a function that builds them on first access.
    """

    constants: tuple[int, ...]
    node_table: NodeTable
    edges: np.ndarray
    edge_tags: tuple[str | None, ...]
    theta_node: BlockRows
    theta_edge: BlockRows
    structural_zero: MaskCodes
    _provenance: tuple | Callable = field(repr=False)
    _aux_atoms: dict | Callable = field(default_factory=dict, repr=False)

    @cached_property
    def nodes(self):
        """The :class:`GroundNode` of every node id, from ``node_table``."""
        return self.node_table.nodes()

    @property
    def n_nodes(self):
        return len(self.node_table.desc)

    @property
    def n_values(self):
        """Value count of every node, as an int64 array."""
        return self.node_table.n_values

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

    @property
    def aux_atoms(self):
        """Per auxiliary node id, the ids of its three atoms; built on first access."""
        if callable(self._aux_atoms):
            self._aux_atoms = self._aux_atoms()
        return self._aux_atoms

    # -- overcomplete feature layout -------------------------------------
    def feature_layout(self):
        """Offsets of per-node and per-edge feature blocks, as read-only int64
        arrays, and the feature count (cached)."""
        if not hasattr(self, "_feat"):
            n_values = self.n_values
            sizes = np.concatenate([n_values, n_values[self.edges].prod(axis=1)])
            start = np.cumsum(sizes) - sizes
            _read_only(start)
            self._feat = (start[:self.n_nodes], start[self.n_nodes:], int(sizes.sum()))
        return self._feat

    @property
    def n_features(self):
        return self.feature_layout()[2]

    def node_feature(self, i, t):
        return self.feature_layout()[0][i] + t

    def edge_feature(self, k, t, h):
        nv = int(self.n_values[self.edges[k, 1]])
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
        return np.flatnonzero(self.node_table.is_kind("atom")).tolist()

    def consistent_aux_value(self, aux_id, values):
        """The unique consistent value of an auxiliary node given ``values`` per node id."""
        a0, a1, a2 = self.aux_atoms[aux_id]
        return values[a0] | (values[a1] << 1) | (values[a2] << 2)

    def complete_state(self, atom_values):
        """Extend a per-atom-node assignment dict/array to all nodes."""
        x = [0] * self.n_nodes
        for i in self.atom_node_ids:
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
        if not np.isfinite(theta).all():
            raise ModelError(f"node {i} theta has a non-finite entry")
        self.theta_node[i] += theta

    def add_edge_theta(self, u, v, theta, tag=None, structural_zero=None, provenance=None):
        """Accumulate a pairwise potential; parallel potentials are summed.

        ``theta`` and ``structural_zero`` are indexed by the values of ``u``
        then ``v``, so both must have shape ``(n_values(u), n_values(v))``.
        An edge from a node to itself is refused, as ``ground`` makes none,
        and so are re-adding an edge with another ``tag`` and a ``theta``
        with a non-finite entry.
        """
        if u == v:
            raise ModelError(f"edge ({u}, {v}) joins a node to itself")
        theta = np.asarray(theta, dtype=float)
        shape = (self.nodes[u].n_values, self.nodes[v].n_values)
        for what, arr in (("theta", theta), ("structural zero", structural_zero)):
            if arr is not None and np.shape(arr) != shape:
                raise ModelError(f"edge {what} has shape {np.shape(arr)}, expected {shape}")
        if not np.isfinite(theta).all():
            raise ModelError(f"edge ({u}, {v}) theta has a non-finite entry")
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
        """The model of the calls so far; later calls leave it unchanged."""
        masks, codes = {}, []  # one table entry per distinct mask
        for z in self.structural_zero:
            if z is None:
                codes.append(-1)
                continue
            z = np.array(z, dtype=bool)
            codes.append(masks.setdefault((z.shape, z.tobytes()), (len(masks), z))[0])
        return PairwiseGroundModel(
            constants=self.constants,
            node_table=_node_table_of(self.nodes),
            edges=np.array(self.edges, dtype=np.int64).reshape(-1, 2),
            edge_tags=tuple(self.edge_tags),
            theta_node=BlockRows.stacked(self.theta_node),
            theta_edge=BlockRows.stacked(self.theta_edge),
            structural_zero=MaskCodes(np.array(codes, dtype=np.int64),
                                      [z for _, z in masks.values()]),
            _provenance=tuple([list(p) for p in lists]
                              for lists in (self.node_provenance, self.edge_provenance)),
            _aux_atoms=dict(self.aux_atoms),
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


def _first_seen(codes, bound=None):
    """Number ``codes`` in order of first appearance.

    Returns ``(ids, first)``: the number of every code, and the position of
    each number's first appearance.  With ``bound``, every code lies in
    ``0..bound-1`` and one linear pass takes each code's first position
    (``np.minimum.at`` over a table of ``bound`` slots); the distinct first
    positions, ranked, are the numbers.  Without it, a stable argsort groups
    equal codes with their earliest position first.  Both give the same
    numbers; the pass over the table is the faster while ``bound`` is at
    most ``_TABLE_SPAN`` times the code count.
    """
    if bound is not None:
        first_at = np.full(bound, codes.size, dtype=np.int64)
        np.minimum.at(first_at, codes, np.arange(codes.size))
        is_first = np.zeros(codes.size, dtype=bool)
        is_first[first_at[first_at < codes.size]] = True
        first = np.flatnonzero(is_first)
        number = np.empty(codes.size, dtype=np.int64)  # of the code first seen there
        number[first] = np.arange(first.size)
        return number[first_at[codes]], first
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


# The table pass of ``_first_seen`` beats the sort up to a bound of about 32
# (a few hundred random codes) to 100 (twenty thousand and more) times the
# code count; above it the table's cache misses cost more than the sort.
_TABLE_SPAN = 32


def _slots(is_aux):
    """Each id's row in its block: auxiliary ids and the others are counted apart."""
    n_aux = np.cumsum(is_aux, dtype=np.int64)  # auxiliary ids up to each id
    return np.where(is_aux, n_aux, np.arange(1, len(is_aux) + 1) - n_aux) - 1


def _summed(n_rows, shape, parts):
    """A ``(n_rows,) + shape`` block whose row ``r`` sums the values of ``r``
    in the ``(rows, table, codes)`` parts, in order; a part's values are
    ``table[codes]``.

    One ``np.bincount`` per entry adds the values from 0.0 in input order,
    exactly as ``np.add.at`` into a zeroed block would; the weights of entry
    ``j`` are one gather from column ``j`` of the parts' (small) tables,
    stacked.  An entry that is zero in every table sums to 0.0 without one.
    """
    width = int(np.prod(shape))
    rows = np.concatenate([r for r, _, _ in parts] + [_NO_INTS])
    tables = [t.reshape(len(t), width) for _, t, _ in parts] + [np.zeros((0, width))]
    offsets = np.cumsum([0] + [len(t) for t in tables])
    codes = np.concatenate([c + offset for (_, _, c), offset in zip(parts, offsets)]
                           + [_NO_INTS])
    columns = np.concatenate(tables).T.copy()
    out = np.zeros((n_rows, width))
    for j in range(width):
        if columns[j].any():
            out[:, j] = np.bincount(rows, weights=columns[j][codes], minlength=n_rows)
    return out.reshape((n_rows,) + shape)


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

    def potentials(self, k, turned=None):
        """The bindings with ``k`` distinct atoms, and their potentials as
        ``(sel, table, codes)``: binding ``sel[i]``'s is ``table[codes[i]]``,
        the ``(2, 2)`` ones of the bindings where ``turned`` is set
        transposed."""
        sel = self.k == k
        if k not in self.tables:
            return sel, np.zeros((0, 2 ** k)), _NO_INTS
        table, pattern = self.tables[k], self.pattern[sel]
        if turned is not None:
            pattern = pattern + len(table) * turned
            table = np.concatenate([table, table.transpose(0, 2, 1)])
        return sel, table, pattern

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
    order, then its auxiliary node.  The variables' constants, the atom
    codes and which template atoms coincide are held as one 1-D column per
    variable or template atom; only ``combos`` and the events are stacked,
    and the auxiliary column only when some binding has three distinct atoms.
    """
    var_at = {v: i for i, v in enumerate(formula.variables)}
    n_vars = len(formula.variables)
    digits = np.arange(n)  # variable j's digit of binding index b is b // n**(n_vars-1-j) % n
    cols = [np.tile(np.repeat(digits, n ** (n_vars - 1 - j)), n ** j) for j in range(n_vars)]
    keep = None
    for g in formula.guards:
        ids = sorted(var_at[v] for v in g)  # one id: the guard is x != x
        differ = cols[ids[0]] != cols[ids[-1]]
        keep = differ if keep is None else keep & differ
    if keep is not None:
        cols = [c[keep] for c in cols]
    m = len(cols[0])
    atoms = []
    for a in formula.atoms:
        code = np.full(m, offsets[a.pred], dtype=np.int64)
        for i, v in enumerate(a.args):
            place = n ** (len(a.args) - 1 - i)
            code += cols[var_at[v]] if place == 1 else cols[var_at[v]] * place
        atoms.append(code)

    n_atoms = len(atoms)
    new = [np.ones(m, dtype=bool)]  # first template atom of its ground atom
    pos = [np.zeros(m, dtype=np.int64)]
    k = np.ones(m, dtype=np.int64)
    pattern = np.zeros(m, dtype=np.int64)
    for i in range(1, n_atoms):
        pos_i, new_i = k.copy(), new[0].copy()
        for j in range(i):
            same = atoms[i] == atoms[j]
            new_i &= ~same
            np.copyto(pos_i, pos[j], where=same)
        pos.append(pos_i)
        new.append(new_i)
        k += new_i
        pattern += pos_i * 3 ** i
    w = formula.weight.resolve()
    tables = {}
    for code in np.flatnonzero(np.bincount(pattern)).tolist():
        pos_i = tuple(code // 3 ** i % 3 for i in range(n_atoms))
        kk, theta = _pattern_theta(formula.table, pos_i, w)
        tables.setdefault(kk, np.zeros((3 ** n_atoms,) + theta.shape))[code] = theta

    triple = k == 3
    if triple.any():
        atoms.append(aux_base + np.arange(len(k)))
        new.append(triple)
    events = np.stack(atoms, axis=1)[np.stack(new, axis=1)]
    return _Bindings(f_idx, np.stack(cols, axis=1), k, pattern, tables), events


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


def _collect_groundings(forms, node_of, node_slot):
    """The node potentials of every binding, and its edges and auxiliary nodes.

    Returns ``(atom_parts, aux_parts, edge_u, edge_v, edge_bit, flips,
    aux_of)``.  The parts list ``(rows, table, codes)`` of the potentials
    added to the atom and the auxiliary block, in order.  The edge events
    (lower node id, higher one, and for an auxiliary edge the bit of its
    atom, else -1) run in the order the bindings add them.  ``flips[f]``
    marks the pairwise bindings of formula ``f`` whose first distinct atom
    has the higher node id; ``aux_of[f]`` holds the auxiliary node and the
    three atom nodes of its bindings with k == 3.  Each node is gathered by
    a 1-D index from the bindings that have it: a formula without k == 3
    bindings takes two gathers for its pairwise ones and its edge events
    straight from them, and one with k == 3 places each binding's edges at
    its offset among the formula's edge events.
    """
    start = 0
    atom_parts, aux_parts, edge_events, flips, aux_of = [], [], [], [], []
    for fb in forms:
        counts = fb.node_counts()
        first_event = start + np.cumsum(counts) - counts
        start += int(counts.sum())
        sel, table, codes = fb.potentials(1)
        atom_parts.append((node_slot[node_of[first_event[sel]]], table, codes))
        pair, triple = fb.k == 2, fb.k == 3
        at = first_event[pair]
        a0, a1 = node_of[at], node_of[at + 1]
        flips.append(a0 > a1)
        u, v, bit = np.minimum(a0, a1), np.maximum(a0, a1), np.full(at.size, -1, dtype=np.int64)
        if not triple.any():
            aux_of.append((_NO_INTS,) * 4)
            edge_events.append((u, v, bit))
            continue
        at = first_event[triple]
        aux, atoms = node_of[at + 3], [node_of[at + d] for d in range(3)]
        _, table, codes = fb.potentials(3)
        aux_parts.append((node_slot[aux], table, codes))
        aux_of.append((aux, *atoms))
        n_edges = fb.edge_counts()
        first_edge = np.cumsum(n_edges) - n_edges
        out = np.empty((3, int(n_edges.sum())), dtype=np.int64)  # u, v, bit per edge event
        out[:, first_edge[pair]] = u, v, bit
        for d, atom in enumerate(atoms):
            at = first_edge[triple] + d
            out[0, at], out[1, at], out[2, at] = atom, aux, d
        edge_events.append(tuple(out))
    return (atom_parts, aux_parts, *map(np.concatenate, zip(*edge_events, (_NO_INTS,) * 3)),
            flips, aux_of)


def _pair_parts(forms, flips, rows):
    """The ``(rows, table, codes)`` of every pairwise binding's potential, in order."""
    parts = []
    start = 0
    for fb, flip in zip(forms, flips):
        _, table, codes = fb.potentials(2, flip)
        parts.append((rows[start:start + len(codes)], table, codes))
        start += len(codes)
    return parts


def _aux_atoms(aux_of):
    """Per auxiliary node, its three atom nodes, from ``_collect_groundings``' ``aux_of``."""
    aux_atoms = {}
    for aux_ids, *atom_cols in aux_of:
        aux_atoms.update(zip(aux_ids.tolist(), zip(*(c.tolist() for c in atom_cols))))
    return aux_atoms


def _ground_node_table(model, n, node_codes, is_aux, forms, aux_of):
    """The :class:`NodeTable` of a grounding, from its nodes' codes.

    An atom's code is its predicate's offset plus its arguments in base
    ``n``; an auxiliary node's constants are its binding's, and ``aux_of``
    lists the auxiliary nodes of each formula in binding order.
    """
    arity = np.array([a for _, a in model.predicates], dtype=np.int64)
    starts = np.cumsum(n ** arity) - n ** arity
    atom_ids = np.flatnonzero(~is_aux)
    pred = np.searchsorted(starts, node_codes[atom_ids], side="right") - 1
    rest = node_codes[atom_ids] - starts[pred]
    type_of = np.empty(len(node_codes), dtype=np.int64)  # predicate, or formula after them
    lengths = np.empty(len(node_codes), dtype=np.int64)
    type_of[atom_ids], lengths[atom_ids] = pred, arity[pred]
    for fb, (aux_ids, *_) in zip(forms, aux_of):
        type_of[aux_ids], lengths[aux_ids] = len(arity) + fb.f_idx, fb.combos.shape[1]
    valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
    consts = np.zeros(valid.shape, dtype=np.int64)
    pair = arity[pred] == 2
    if atom_ids.size:
        consts[atom_ids, 0] = np.where(pair, rest // n, rest)
    if pair.any():
        consts[atom_ids[pair], 1] = rest[pair] % n
    for fb, (aux_ids, *_) in zip(forms, aux_of):
        if aux_ids.size:
            consts[aux_ids, :fb.combos.shape[1]] = fb.combos[fb.k == 3]
    raw = ([("atom", name, "", 2) for name, _ in model.predicates]
           + [("aux", f"f{f}", "", 8) for f in range(len(model.formulas))])
    present = sorted(np.flatnonzero(np.bincount(type_of, minlength=len(raw))).tolist(),
                     key=raw.__getitem__)
    rank = np.zeros(len(raw), dtype=np.int64)
    rank[present] = np.arange(len(present))
    return NodeTable.of([raw[t] for t in present], rank[type_of], consts, valid)


def ground(model, n):
    """Ground ``model`` over constants ``0..n-1``.

    Every formula grounding with ``k`` distinct ground atoms becomes a unary
    potential (k=1), a pairwise potential (k=2), or an auxiliary node with
    three hard consistency edges (k=3).  Formulas whose guards admit no
    binding (``x != x`` admits none) simply contribute nothing.

    Each formula is grounded by array operations over all its bindings,
    taken in the order of ``itertools.product`` over its variables, each
    pass reading and writing 1-D columns (one per variable, template atom or
    node of a binding).  A grounding adds its distinct atoms in template
    order, then its auxiliary node, then its edges; node and edge ids count
    first additions across the formulas in order, and parallel potentials
    are summed in the order they are added, as a loop over the groundings
    would.  Node ids come from one pass over the bounded range of node
    codes, without a sort.  Edge ids come from the same pass over the range
    of edge codes, the node count squared, while that is at most
    ``_TABLE_SPAN`` times the edge events, and from a stable sort otherwise
    (as where auxiliary nodes make the node count large); both number the
    edges alike.  Each block's potentials, of all formulas, are summed by
    one ``np.bincount`` per entry in the order they are added.  A
    grounding's potential depends only on which template atoms coincide, so
    it is built once per coincidence pattern.  The potentials stay in the
    blocks they are summed in, and the nodes in the arrays of their codes;
    the node objects, provenance and ``aux_atoms`` are built on first
    access.
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
    node_of, first = _first_seen(node_events, n_atom_codes + n_bindings)
    node_codes = node_events[first]
    del node_events
    is_aux = node_codes >= n_atom_codes
    node_slot = _slots(is_aux)
    atom_parts, aux_parts, edge_u, edge_v, edge_bit, flips, aux_of = _collect_groundings(
        forms, node_of, node_slot)
    n_aux = int(is_aux.sum())
    atom_theta = _summed(len(is_aux) - n_aux, (2,), atom_parts)
    aux_theta = _summed(n_aux, (8,), aux_parts)
    del atom_parts, aux_parts

    n_nodes = len(node_codes)
    edge_codes = edge_u * n_nodes + edge_v
    edge_of, first = _first_seen(
        edge_codes, n_nodes ** 2 if n_nodes ** 2 <= _TABLE_SPAN * edge_codes.size else None)
    edges, bits = np.stack([edge_u[first], edge_v[first]], axis=1), edge_bit[first]
    is_aux_edge = bits >= 0
    edge_slot = _slots(is_aux_edge)
    n_aux_edges = int(is_aux_edge.sum())
    pair_theta = _summed(len(bits) - n_aux_edges, (2, 2),
                         _pair_parts(forms, flips, edge_slot[edge_of[edge_bit < 0]]))
    aux_edge_theta = np.zeros((n_aux_edges, 2, 8))
    del edge_u, edge_v, edge_bit, edge_codes, flips

    table = _ground_node_table(model, n, node_codes, is_aux, forms, aux_of)
    return PairwiseGroundModel(
        constants=tuple(range(n)),
        node_table=table,
        edges=edges,
        edge_tags=(None,) * len(edges),
        theta_node=BlockRows((atom_theta, aux_theta), is_aux.astype(np.int64), node_slot),
        theta_edge=BlockRows((pair_theta, aux_edge_theta), is_aux_edge.astype(np.int64),
                             edge_slot),
        structural_zero=MaskCodes(bits, _AUX_ZERO),
        _provenance=partial(_provenance, forms, node_of, edge_of),
        _aux_atoms=partial(_aux_atoms, aux_of),
    )

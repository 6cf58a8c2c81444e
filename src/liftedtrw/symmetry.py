"""Orbit computation for ground models under the constant renaming group.

Nodes, edges, and overcomplete feature assignments are grouped into orbits by
int codes: the constants mentioned by a node (or an edge's endpoint pair) are
relabeled by first occurrence, so two elements share a code exactly when some
renaming of constants maps one to the other.  For models produced by
:func:`liftedtrw.model.ground` every renaming is an automorphism and the codes
give the true orbit partition; hand-built models can carry extra ``tag``
colors on nodes and edges to express their symmetry, and
:func:`verify_orbits` checks the code partition against explicit enumeration
of all structure-preserving renamings.

:func:`compute_orbits` computes the codes with array operations over all
nodes and edges at once, and numbers the orbits in the order of their codes.

:func:`count_components` counts the ground connected components of a
sub-lifted-graph without touching the ground union-find: within a connected
sub-lifted-graph all ground components are isomorphic, so one component's
size is read off the orbit structure after pinning a single representative
node, and the count is total nodes over component size.  Lifted Kruskal
(:mod:`liftedtrw.spanning`) and the forest test of cycle separation
(:mod:`liftedtrw.polytope`) both read it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import _TABLE_SPAN, PairwiseGroundModel


class TyingViolation(Exception):
    """Two ground elements in one orbit carry different parameters."""


_THETA_TOL = 1e-9


@dataclass
class NodeOrbit:
    id: int
    size: int
    rep: int   # lowest member id
    n_values: int


@dataclass
class EdgeOrbit:
    id: int
    size: int
    rep: tuple[int, int]  # lowest-id member, oriented by the orbit's code
    u_orbit: int
    v_orbit: int
    flip: bool

    def d(self, node_orbit_id):
        """Incidence degree of a node orbit on this edge orbit (0, 1 or 2)."""
        if self.u_orbit == self.v_orbit:
            return 2 if node_orbit_id == self.u_orbit else 0
        return int(node_orbit_id == self.u_orbit) + int(node_orbit_id == self.v_orbit)


@dataclass
class LiftedGraph:
    """Node, edge, and assignment orbits of a ground model.

    One lifted variable exists per assignment orbit: per node orbit one
    variable per value, and per edge orbit one variable per ordered value pair
    of the canonical representative, with the two off-diagonal pairs merged
    into a single variable when the orbit is flip-symmetric.  Membership is
    held once, as the orbit id of every ground node and edge in
    ``node_orbit_of`` and ``edge_orbit_of``; an orbit carries its size and
    one representative.  The node variables come first in ``var_orbit``.
    ``edge_backward`` flags the ground edges whose orbit lists them as
    ``(v, u)`` of their stored ``(u, v)``.  The ground feature map
    :attr:`feat_to_var` and :attr:`var_ground_count` are built on first
    read; no lifted solve reads them.
    """

    model: PairwiseGroundModel
    node_orbits: list[NodeOrbit]
    edge_orbits: list[EdgeOrbit]
    node_orbit_of: np.ndarray
    edge_orbit_of: np.ndarray
    node_var_start: list[int]
    edge_var_map: list[np.ndarray]  # per edge orbit: (nu, nv) -> var id
    n_vars: int
    lifted_theta: np.ndarray
    var_mult: np.ndarray        # entries of the representative mapping to the var
    var_orbit: np.ndarray       # orbit id of each var, node or edge by position
    structural_zero_var: np.ndarray
    edge_backward: np.ndarray

    @functools.cached_property
    def feat_to_var(self):
        """Ground feature index -> var id: node features first, then edge
        features, each edge's read off its orbit's variable map in its
        orientation."""
        model = self.model
        node_start, edge_start, n_features = model.feature_layout()
        n_values = model.n_values
        n_node_feats = int(n_values.sum())
        out = np.empty(n_features, dtype=int)
        first_var = np.array(self.node_var_start, dtype=int)[self.node_orbit_of]
        out[:n_node_feats] = np.repeat(first_var - node_start, n_values) + np.arange(n_node_feats)
        groups = {}  # variable map shape -> its edge orbits
        for oid, vmap in enumerate(self.edge_var_map):
            groups.setdefault(vmap.shape, []).append(oid)
        for (nu, nv), ids in groups.items():
            maps = np.array([self.edge_var_map[o] for o in ids])
            place = np.full(len(self.edge_var_map), -1)  # each orbit's index in ids
            place[ids] = np.arange(len(ids))
            ks = np.flatnonzero(place[self.edge_orbit_of] >= 0)
            at = place[self.edge_orbit_of[ks]]
            out[edge_start[ks, None] + np.arange(nu * nv)] = np.where(
                self.edge_backward[ks, None], maps.transpose(0, 2, 1).reshape(-1, nu * nv)[at],
                maps.reshape(-1, nu * nv)[at])
        return out

    @functools.cached_property
    def var_ground_count(self):
        """Ground features per variable; built on first read."""
        return np.bincount(self.feat_to_var, minlength=self.n_vars)

    # -- variable accessors ------------------------------------------------
    @property
    def n_node_vars(self):
        """Count of the node variables, which precede the edge ones."""
        return sum(o.n_values for o in self.node_orbits)

    def node_var(self, orbit_id, t):
        return self.node_var_start[orbit_id] + t

    def edge_var(self, orbit_id, t, h):
        return int(self.edge_var_map[orbit_id][t, h])

    # -- ground <-> lifted -------------------------------------------------
    def project(self, mu):
        """Orbit averages of a ground overcomplete vector."""
        mu = np.asarray(mu, dtype=float)
        out = np.zeros(self.n_vars)
        np.add.at(out, self.feat_to_var, mu)
        return out / self.var_ground_count

    def node_marginals(self, tau):
        out = {}
        for orb in self.node_orbits:
            s = self.node_var_start[orb.id]
            out[orb.id] = np.asarray(tau)[s:s + orb.n_values].copy()
        return out

    def orbit_name(self, orbit_id):
        table, rep = self.model.node_table, self.node_orbits[orbit_id].rep
        label = table.types[table.desc[rep]][1]
        args = ",".join(f"x{i}" for i in range(len(table.consts_of(rep))))
        return f"{label}({args})" if args else label


def _ranks(items, key):
    """Rank of ``key(item)`` among the distinct keys, per item, in key order,
    and the number of distinct keys."""
    if items and items.count(items[0]) == len(items):  # all equal, as a grounding's tags are
        return np.zeros(len(items), dtype=np.int64), 1
    distinct = set(items)
    rank = {k: r for r, k in enumerate(sorted({key(x) for x in distinct}))}
    if len(rank) <= 1:
        return np.zeros(len(items), dtype=np.int64), len(rank)
    of = {x: rank[key(x)] for x in distinct}
    return np.fromiter(map(of.__getitem__, items), dtype=np.int64, count=len(items)), len(rank)


def _lex_codes(columns, radices=None):
    """One int64 code per row of the equal-length 1-D int ``columns``.

    Codes follow the lexicographic order of the rows: equal rows share a
    code and a smaller row has a smaller one.  Each column is appended as a
    mixed-radix digit: column ``j`` must lie in ``0..radices[j]-1`` when
    ``radices`` is given, and is shifted to start at 0 otherwise (one min
    and one max pass per column, which a caller that knows its ranges
    saves).  Before a digit would take the codes to 2**63 or beyond, they
    are re-ranked to ``0..G-1``.
    """
    columns = [np.asarray(c, dtype=np.int64) for c in columns]
    if not columns[0].size:
        return np.zeros(0, dtype=np.int64)
    if radices is None:
        lows = [int(c.min()) for c in columns]
        radices = [int(c.max()) - low + 1 for c, low in zip(columns, lows)]
        columns = [c - low for c, low in zip(columns, lows)]
    code, bound = None, 1  # every code lies in 0..bound-1
    for digit, radix in zip(columns, radices):
        if radix == 1:  # a digit that is always 0
            continue
        if code is None:
            code, bound = digit, radix
            continue
        if bound * radix > 2 ** 63:
            uniq, code = np.unique(code, return_inverse=True)
            bound = len(uniq)
        code = code * radix + digit
        bound *= radix
    return np.zeros(columns[0].size, dtype=np.int64) if code is None else code


def _fixed_ranks(cols, valid, distinguished):
    """Per constant column, each distinguished constant's rank among
    ``distinguished`` plus 1, and 0 elsewhere; ``valid`` marks each column's
    constants."""
    order = np.array(sorted(distinguished), dtype=np.int64)
    if not order.size:
        return [np.zeros(col.size, dtype=np.int64) for col in cols]
    out = []
    for col, ok in zip(cols, valid):
        pos = np.minimum(np.searchsorted(order, col), order.size - 1)
        out.append(np.where(ok & (order[pos] == col), pos + 1, 0))
    return out


def _distinct(codes, bound):
    """The distinct ``codes`` in increasing order, the index of each code
    among them, and how often each occurs.

    Every code lies in ``0..bound-1``.  While ``bound`` is at most
    ``_TABLE_SPAN`` times the code count, one ``np.bincount`` over the range
    gives them; otherwise a sort does.
    """
    if bound <= _TABLE_SPAN * codes.size:
        counts = np.bincount(codes, minlength=bound)
        distinct = np.flatnonzero(counts)
        index = np.zeros(bound, dtype=np.int64)
        index[distinct] = np.arange(distinct.size)
        return distinct, index[codes], counts[distinct]
    return np.unique(codes, return_inverse=True, return_counts=True)


def _pinned_tables(lg, distinguished):
    """Pinned node classes of ``lg`` and the orbit tables over them.

    A node's class is its orbit in ``lg`` together with which
    ``distinguished`` constant, if any, sits at each of its argument
    positions: two nodes share one exactly when a renaming that fixes every
    ``distinguished`` constant maps one to the other (the stabilizer orbits,
    for models whose symmetry is the renaming group).  Returns the class
    count, the class of every ground node, per node orbit its ``(class, node
    count)`` pairs and per edge orbit its distinct ``(class_u, class_v)``
    pairs in increasing order.  Classes are numbered in the order of their
    codes, the orbit and then the ranks of the pinned constants, taken over
    the node table's constant columns.  Built once per constant set and
    cached on ``lg``.
    """
    cache = lg.__dict__.setdefault("_pinned_tables", {})
    if distinguished not in cache:
        model = lg.model
        table = model.node_table
        width, n_orbits = table.consts.shape[1], len(lg.node_orbits)
        fixed = _fixed_ranks(table.consts.T.copy(), table.valid.T.copy(), distinguished)
        radix = len(distinguished) + 1
        code = _lex_codes([lg.node_orbit_of, *fixed], [n_orbits] + [radix] * width)
        classes, class_of, counts = _distinct(code, n_orbits * radix ** width)
        n_classes = len(classes)
        orbit_of_class = np.empty(n_classes, dtype=np.int64)
        orbit_of_class[class_of] = lg.node_orbit_of
        node_table = [[] for _ in lg.node_orbits]
        for ci, (oid, count) in enumerate(zip(orbit_of_class.tolist(), counts.tolist())):
            node_table[oid].append((ci, count))
        cu, cv = class_of[model.edges[:, 0]], class_of[model.edges[:, 1]]
        radices = [len(lg.edge_orbits), n_classes, n_classes]
        pairs, pair_of, _ = _distinct(_lex_codes([lg.edge_orbit_of, cu, cv], radices),
                                      math.prod(radices))
        edge = np.empty(len(pairs), dtype=np.int64)  # an edge of each (orbit, cu, cv)
        edge[pair_of] = np.arange(len(pair_of))
        edge_table = [[] for _ in lg.edge_orbits]
        for eid, u, v in zip(lg.edge_orbit_of[edge].tolist(), cu[edge].tolist(),
                             cv[edge].tolist()):
            edge_table[eid].append((u, v))
        cache[distinguished] = (n_classes, class_of, node_table, edge_table)
    return cache[distinguished]


class _UnionFind:
    """Disjoint sets over ``0..n-1``; ``union`` returns the merged root."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra
        return ra

    def partition(self):
        groups = {}
        for i in range(len(self.parent)):
            groups.setdefault(self.find(i), []).append(i)
        return sorted(tuple(sorted(g)) for g in groups.values())


def _pinned_component_size(lg, node_orbit_ids, edge_orbit_ids, u0):
    """Ground size of the component containing ``u0`` in the pinned subgraph.

    Nodes are grouped by :func:`_pinned_tables` with the constants of ``u0``
    fixed, and the groups are connected by the subgraph's edges; ``u0`` sits
    in a singleton group.  Each distinct pair of groups in an edge orbit is
    joined once.
    """
    n_classes, class_of, node_table, edge_table = _pinned_tables(
        lg, frozenset(lg.model.node_table.consts_of(u0)))
    sizes = {}
    for oid in node_orbit_ids:
        for ci, count in node_table[oid]:
            sizes[ci] = sizes.get(ci, 0) + count
    uf = _UnionFind(n_classes)
    for eid in edge_orbit_ids:
        for cu, cv in edge_table[eid]:
            uf.union(cu, cv)
    root = uf.find(int(class_of[u0]))
    return sum(size for ci, size in sizes.items() if uf.find(ci) == root)


def _ground_components_of(lg, node_orbit_ids, edge_orbit_ids):
    """Ground component count for a connected set of node orbits.

    Memoized on ``lg`` by the two orbit sets.  Orbits of one node each are
    their own ground subgraph, which is then connected: no pinning needed
    (the identity lifting has one such set per ground component).
    """
    key = (frozenset(node_orbit_ids), frozenset(edge_orbit_ids))
    memo = lg.__dict__.setdefault("_component_counts", {})
    if key not in memo:
        total = sum(lg.node_orbits[oid].size for oid in key[0])
        comp = total
        if total > len(key[0]):
            comp = _pinned_component_size(lg, key[0], key[1], lg.node_orbits[min(key[0])].rep)
        assert total % comp == 0, "component sizes must divide the ground node count"
        memo[key] = total // comp
    return memo[key]


def count_components(lg, node_orbit_ids=None, edge_orbit_ids=None):
    """Number of ground connected components of a sub-lifted-graph.

    Defaults to the whole graph.  Edge orbits with an endpoint outside the
    node orbit set are ignored.  Exact for models whose symmetry is the
    renaming group; for hand-built models the pinned node classes may merge
    stabilizer orbits, which requires the classes not to straddle ground
    components (true for the bundled hand-built models).
    """
    nodes = set(range(len(lg.node_orbits)) if node_orbit_ids is None else node_orbit_ids)
    if edge_orbit_ids is None:
        edge_orbit_ids = range(len(lg.edge_orbits))
    edges = [eo for eo in map(lg.edge_orbits.__getitem__, edge_orbit_ids)
             if eo.u_orbit in nodes and eo.v_orbit in nodes]
    uf = _UnionFind(len(lg.node_orbits))
    for eo in edges:
        uf.union(eo.u_orbit, eo.v_orbit)
    comps = {}  # root -> node orbits, edge orbits
    for oid in nodes:
        comps.setdefault(uf.find(oid), ([], []))[0].append(oid)
    for eo in edges:
        comps[uf.find(eo.u_orbit)][1].append(eo.id)
    return sum(_ground_components_of(lg, nodes, edges) for nodes, edges in comps.values())


def _relabel_codes(cols, valid):
    """The constants of a padded table relabeled ``1, 2, ...`` by first
    occurrence along each row, as sortable ints; padding becomes 0, so a row
    sorts before its extensions as a shorter tuple does.

    ``cols`` holds the table's columns and ``valid`` marks, per column, the
    rows where it holds a constant; both are lists of 1-D arrays, and so is
    the result, one column each.
    """
    codes = []
    n_seen = np.zeros(len(cols[0]) if cols else 0, dtype=np.int64)
    for j, (col, ok) in enumerate(zip(cols, valid)):
        label = n_seen + 1
        new = ok.copy()
        for k in range(j):
            same = new & valid[k] & (cols[k] == col)
            np.copyto(label, codes[k], where=same)
            new ^= same
        codes.append(np.where(ok, label, 0))
        n_seen += new
    return codes


def _members(orbit_of, n_orbits):
    """Element ids orbit by orbit, each orbit's in increasing order: the
    stable argsort of ``orbit_of``, by numpy's radix sort where the ids fit
    in 16 bits (a stable sort has one result, whatever the algorithm)."""
    if n_orbits <= np.iinfo(np.int16).max:
        orbit_of = orbit_of.astype(np.int16)
    return np.argsort(orbit_of, kind="stable")


def compute_orbits(model):
    """Build the :class:`LiftedGraph` of a ground model.

    Elements are compared as int rows: a node's row is its ranked
    description followed by its relabeled constants, and each orientation of
    an edge gives the row ``(tag, orbit of the first node, description of the
    second, the second's constants relabeled after the first's)``.  An edge
    takes its smaller row, and is flip-symmetric when both are equal.  Orbit
    ids follow the order of the rows.  The rows are held as 1-D columns:
    the node table's constant columns, gathered by endpoint for the edges,
    and each digit's range is known, so the codes need no min/max pass and
    are counted by :func:`_distinct` over their range.
    """
    table = model.node_table
    desc, width, n_types = table.desc, table.consts.shape[1], len(table.types)
    cols, valid = list(table.consts.T.copy()), list(table.valid.T.copy())
    radices = [n_types] + [width + 1] * width
    _, node_orbit_of, sizes = _distinct(_lex_codes([desc, *_relabel_codes(cols, valid)], radices),
                                        math.prod(radices))
    node_order = _members(node_orbit_of, len(sizes))
    reps = node_order[np.cumsum(sizes) - sizes]
    node_orbits = [NodeOrbit(oid, size, i, nv) for oid, (size, i, nv) in enumerate(zip(
        sizes.tolist(), reps.tolist(), table.n_values[reps].tolist()))]

    n_edges = len(model.edges)
    ends = model.edges.T.copy()
    # the first and the second endpoint of every edge in both orientations
    first, second = np.concatenate([ends[0], ends[1]]), np.concatenate([ends[1], ends[0]])
    joint = _relabel_codes([c[first] for c in cols] + [c[second] for c in cols],
                           [v[first] for v in valid] + [v[second] for v in valid])
    tag, n_tags = _ranks(model.edge_tags, key=lambda t: t or "")
    radices = [n_tags, len(node_orbits), n_types] + [2 * width + 1] * width
    codes = _lex_codes([np.tile(tag, 2), node_orbit_of[first], desc[second], *joint[width:]],
                       radices)
    fwd, bwd = codes[:n_edges], codes[n_edges:]
    backward = bwd < fwd
    flip = fwd == bwd
    _, orbit_of, sizes = _distinct(np.minimum(fwd, bwd), math.prod(radices))
    edge_order = _members(orbit_of, len(sizes))
    reps = edge_order[np.cumsum(sizes) - sizes]  # each orbit's lowest-id edge
    if (flip != flip[reps][orbit_of]).any():  # pragma: no cover - codes pin the orientation pair
        raise TyingViolation("inconsistent flip flags in an edge orbit")
    # lead endpoint first
    lead = np.where(backward[reps], ends[1, reps], ends[0, reps])
    other = np.where(backward[reps], ends[0, reps], ends[1, reps])
    edge_orbits = []
    for oid, (k, size, u, v, u_orb, v_orb) in enumerate(zip(
            reps.tolist(), sizes.tolist(), lead.tolist(), other.tolist(),
            node_orbit_of[lead].tolist(), node_orbit_of[other].tolist())):
        if flip[k] and u_orb != v_orb:  # pragma: no cover - flip forces one orbit
            raise TyingViolation(f"flip-symmetric edge orbit {oid} across two node orbits")
        edge_orbits.append(EdgeOrbit(oid, size, (u, v), u_orb, v_orb, bool(flip[k])))

    return _assemble(model, node_orbits, edge_orbits, node_orbit_of, orbit_of,
                     node_order, edge_order, backward)


def _by_shape(shapes, sizes, order):
    """The members of the orbits of each shape, and each orbit's place among them.

    ``shapes`` and ``sizes`` hold one non-negative shape code and the member
    count per orbit, and ``order`` lists the members orbit by orbit.
    Returns, per distinct shape, the members of its orbits in order, and
    per orbit the position of its first member among those of its shape.
    """
    at = np.empty(len(shapes), dtype=np.int64)
    distinct = np.flatnonzero(np.bincount(shapes)).tolist()
    if len(distinct) == 1:
        at[:] = np.cumsum(sizes) - sizes
        return {distinct[0]: order}, at
    of_member = np.repeat(shapes, sizes)
    groups = {}
    for shape in distinct:
        ids = shapes == shape
        at[ids] = np.cumsum(sizes[ids]) - sizes[ids]
        groups[shape] = order[of_member == shape]
    return groups, at


@functools.cache
def _var_grid(nu, nv, flip):
    """The variables of a ``(nu, nv)`` value grid, numbered from 0 in row-major
    order of their first entry; with ``flip``, ``(t, h)`` and ``(h, t)``
    share one.  Returns the grid of variable ids and, per variable, the
    flat index of its first entry and of its second, or -1 for none."""
    grid = np.arange(nu * nv).reshape(nu, nv)
    first = grid.ravel()
    second = np.full(first.size, -1)
    if flip:
        upper = np.triu(np.ones((nu, nv), dtype=bool)).ravel()
        first = first[upper]
        second = np.where(first // nv == first % nv, -1, grid.T.ravel()[first])
        grid = np.empty(nu * nv, dtype=np.int64)
        grid[first] = np.arange(first.size)
        grid[second[second >= 0]] = np.flatnonzero(second >= 0)
        grid = grid.reshape(nu, nv)
    for arr in (grid, first, second):
        arr.flags.writeable = False  # shared by every call
    return grid, first, second


def _tied_sum(members, kind, oid, flip=False):
    """Sum of an orbit's potentials, stacked along the first axis.

    Raises unless each entry is within ``_THETA_TOL * max(1, max |entry|)``
    of its first member's; with ``flip`` the members of ``[h, t]`` count as
    members of ``[t, h]`` for ``t < h``.  The members go to the last axis, so
    the reductions run along contiguous memory.  One member without
    ``flip`` is its own sum.
    """
    if len(members) == 1 and not flip:
        return members[0]
    x = np.ascontiguousarray(members.transpose((*range(1, members.ndim), 0)))
    ref = x[..., 0]
    # the largest |x - ref| and |x| come from the largest and smallest member
    hi, lo = x.max(axis=-1), x.min(axis=-1)
    scale = _THETA_TOL * np.maximum(1.0, np.maximum(hi, -lo))
    dev = np.maximum(hi - ref, ref - lo)
    bad = dev > scale
    if flip:
        dev = np.maximum(dev, np.maximum(hi.T - ref, ref - lo.T))
        bad |= np.triu(dev > np.maximum(scale, scale.T))
    if bad.any():
        where = tuple(np.argwhere(bad)[0].tolist())
        raise TyingViolation(f"parameters differ within {kind} orbit {oid}, value {where}")
    return x.sum(axis=-1)


def _tied_zeros(members, oid, flip):
    """The structural zeros of an edge orbit whose members' masks, or the
    distinct ones among them, are stacked along the first axis; raises
    unless every member has the same ones."""
    x = members.transpose(1, 2, 0)
    if flip:
        x = np.concatenate([x, x.transpose(1, 0, 2)], axis=-1)
    zero = x.all(axis=-1)
    if (x.any(axis=-1) != zero).any():
        raise TyingViolation(f"structural zeros differ within edge orbit {oid}")
    return zero


def _assemble(model, node_orbits, edge_orbits, node_orbit_of, edge_orbit_of,
              node_order, edge_order, backward):
    """The lifted arrays of the given orbits.

    ``node_order`` and ``edge_order`` list the node and edge ids orbit by
    orbit, each orbit's members in id order, and ``backward`` flags the
    edges whose orbit lists them as ``(v, u)`` of their stored ``(u, v)``.
    The members of all orbits of one shape are stacked in orbit order by one
    gather from the model's blocks, members listed ``(v, u)`` transposed,
    and each orbit checks and sums its slice of that stack.  An edge orbit's
    structural zeros are checked over the distinct oriented masks of its
    members, found by one ``np.bincount`` over all edges.  The variables
    of all edge orbits with one value grid are then numbered at once.  The
    lifted graph keeps ``backward``, from which it builds the ground feature
    map when that is first read.
    """
    orbit_nv = np.array([orb.n_values for orb in node_orbits], dtype=np.int64)
    sizes = np.array([orb.size for orb in node_orbits], dtype=np.int64)
    groups, at = _by_shape(orbit_nv, sizes, node_order)
    stacks = {nv: model.theta_node.stack(members) for nv, members in groups.items()}
    node_sums = [np.zeros(0)]
    for orb, i in zip(node_orbits, at.tolist()):
        node_sums.append(_tied_sum(stacks[orb.n_values][i:i + orb.size], "node", orb.id))
    node_var_start = (np.cumsum(orbit_nv) - orbit_nv).tolist()

    radix = int(orbit_nv.max(initial=0)) + 1
    sizes = np.array([orb.size for orb in edge_orbits], dtype=np.int64)
    shapes = np.array([orbit_nv[orb.u_orbit] * radix + orbit_nv[orb.v_orbit]
                       for orb in edge_orbits], dtype=np.int64)
    groups, at = _by_shape(shapes, sizes, edge_order)
    stacks = {code: model.theta_edge.stack(members, backward[members])
              for code, members in groups.items()}
    # per edge orbit, which masks it has as kind 2 * (code + 1) + turned
    n_kinds = 2 * len(model.structural_zero.table) + 2
    code_of = model.structural_zero.code[edge_order]
    kinds = None
    if (code_of >= 0).any():
        kinds = np.bincount(edge_orbit_of[edge_order] * n_kinds + 2 * code_of + 2
                            + backward[edge_order],
                            minlength=len(edge_orbits) * n_kinds).reshape(-1, n_kinds) > 0
    oriented = {}  # value grid -> model.structural_zero.oriented(grid)
    by_grid = {}  # (nu, nv, flip) -> ids, theta sums and structural zeros of its orbits
    for orb, code, i in zip(edge_orbits, shapes.tolist(), at.tolist()):
        theta = _tied_sum(stacks[code][i:i + orb.size], "edge", orb.id, orb.flip)
        zero = np.zeros(theta.shape, dtype=bool)
        if kinds is not None and kinds[orb.id, 2:].any():
            if theta.shape not in oriented:
                oriented[theta.shape] = model.structural_zero.oriented(theta.shape)
            zero = _tied_zeros(oriented[theta.shape][kinds[orb.id]], orb.id, orb.flip)
        ids, thetas, zeros = by_grid.setdefault((*theta.shape, orb.flip), ([], [], []))
        ids.append(orb.id)
        thetas.append(theta)
        zeros.append(zero)

    # edge variables follow the node ones, orbit by orbit in grid order
    grids = {key: _var_grid(*key) for key in by_grid}
    n_grid_vars = np.zeros(len(edge_orbits), dtype=np.int64)
    for key, (ids, _, _) in by_grid.items():
        n_grid_vars[ids] = grids[key][1].size
    n_node_vars = int(orbit_nv.sum())
    edge_var_start = n_node_vars + np.cumsum(n_grid_vars) - n_grid_vars
    n_vars = n_node_vars + int(n_grid_vars.sum())
    lifted_theta = np.empty(n_vars)
    lifted_theta[:n_node_vars] = np.concatenate(node_sums)
    var_mult = np.ones(n_vars, dtype=int)
    structural_zero_var = np.zeros(n_vars, dtype=bool)
    edge_var_map = [None] * len(edge_orbits)
    for key, (ids, thetas, zeros) in by_grid.items():
        grid, first, second = grids[key]
        thetas = np.array(thetas).reshape(len(ids), grid.size)
        paired = second >= 0
        var_ids = edge_var_start[ids][:, None] + np.arange(first.size)
        lifted_theta[var_ids] = thetas[:, first]
        lifted_theta[var_ids[:, paired]] += thetas[:, second[paired]]
        var_mult[var_ids] += paired
        structural_zero_var[var_ids] = np.array(zeros).reshape(len(ids), grid.size)[:, first]
        for oid, vmap in zip(ids, edge_var_start[ids][:, None, None] + grid):
            edge_var_map[oid] = vmap
    var_orbit = np.concatenate([np.repeat(np.arange(len(node_orbits)), orbit_nv),
                                np.repeat(np.arange(len(edge_orbits)), n_grid_vars)])

    lg = LiftedGraph(
        model=model,
        node_orbits=node_orbits,
        edge_orbits=edge_orbits,
        node_orbit_of=node_orbit_of,
        edge_orbit_of=edge_orbit_of,
        node_var_start=node_var_start,
        edge_var_map=edge_var_map,
        n_vars=n_vars,
        lifted_theta=lifted_theta,
        var_mult=var_mult,
        var_orbit=var_orbit,
        structural_zero_var=structural_zero_var,
        edge_backward=backward,
    )
    _check_invariants(lg)
    return lg


def _check_invariants(lg):
    """Orbit sizes add up to the ground node and edge counts, and every edge
    orbit has incidence sum 2 over the node orbits.

    By :meth:`EdgeOrbit.d`, an edge orbit's sum over the node orbits counts
    its endpoints ``u_orbit`` and ``v_orbit`` that are node orbit ids, so
    one array pass over the endpoints checks every edge orbit.
    """
    assert sum(o.size for o in lg.node_orbits) == lg.model.n_nodes
    assert sum(o.size for o in lg.edge_orbits) == len(lg.model.edges)
    ends = np.array([(e.u_orbit, e.v_orbit) for e in lg.edge_orbits]).reshape(-1, 2)
    total = np.isin(ends, np.arange(len(lg.node_orbits))).sum(axis=1)
    bad = np.flatnonzero(total != 2)
    assert not bad.size, (f"edge orbit {lg.edge_orbits[bad[0]].id} has incidence sum "
                          f"{total[bad[0]]}")


def trivial_lifting(model):
    """The identity lifting: every node and edge is its own orbit.

    Running the lifted machinery on this graph reproduces the ground problem.
    """
    node_orbits = [NodeOrbit(i, 1, i, nv) for i, nv in enumerate(model.n_values.tolist())]
    node_orbit_of = np.arange(model.n_nodes)
    edge_orbits = [EdgeOrbit(k, 1, (u, v), u, v, False)
                   for k, (u, v) in enumerate(model.edges.tolist())]
    edge_orbit_of = np.arange(len(model.edges))
    return _assemble(model, node_orbits, edge_orbits, node_orbit_of, edge_orbit_of,
                     node_orbit_of, edge_orbit_of, np.zeros(len(model.edges), dtype=bool))


# ---------------------------------------------------------------------------
# Verification against explicit group enumeration
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    ok: bool
    group_size: int
    mismatches: list[str] = field(default_factory=list)


def _renaming_node_map(model, perm):
    """Node permutation induced by a constant renaming, or None if not an automorphism."""
    mapping = np.zeros(len(model.nodes), dtype=int)
    for i, nd in enumerate(model.nodes):
        key = (nd.kind, nd.label, tuple(perm[c] for c in nd.consts))
        j = model.node_index.get(key)
        if j is None:
            return None
        other = model.nodes[j]
        if other.tag != nd.tag or other.n_values != nd.n_values:
            return None
        if not np.allclose(model.theta_node[i], model.theta_node[j], atol=_THETA_TOL):
            return None
        mapping[i] = j
    for k, (u, v) in enumerate(model.edges.tolist()):
        a, b = mapping[u], mapping[v]
        k2 = model.edge_index.get((min(a, b), max(a, b)))
        if k2 is None:
            return None
        if model.edge_tags[k2] != model.edge_tags[k]:
            return None
        th = model.theta_edge[k]
        th2 = model.theta_edge[k2]
        z = model.structural_zero[k]
        z2 = model.structural_zero[k2]
        if a > b:  # edge k2 is stored as (b, a)
            th2 = th2.T
            z2 = None if z2 is None else z2.T
        if not np.allclose(th, th2, atol=_THETA_TOL):
            return None
        za = np.zeros(th.shape, dtype=bool) if z is None else z
        zb = np.zeros(th.shape, dtype=bool) if z2 is None else z2
        if (za != zb).any():
            return None
    return mapping


def verify_orbits(lg, model):
    """Compare the orbits of ``lg`` with explicit renaming-group enumeration.

    Enumerates all permutations of the model constants, keeps those inducing
    model automorphisms, and checks that the resulting node, edge, and
    assignment-orbit partitions equal ``lg``'s.
    Feasible for roughly n <= 6.
    """
    consts = model.constants
    nodes_uf = _UnionFind(len(model.nodes))
    edges_uf = _UnionFind(len(model.edges))
    feats_uf = _UnionFind(model.n_features)
    node_start, edge_start, _ = model.feature_layout()
    group_size = 0

    for perm_tuple in itertools.permutations(range(len(consts))):
        perm = {consts[i]: consts[perm_tuple[i]] for i in range(len(consts))}
        mapping = _renaming_node_map(model, perm)
        if mapping is None:
            continue
        group_size += 1
        for i, j in enumerate(mapping):
            nodes_uf.union(i, j)
            nv = model.nodes[i].n_values
            for t in range(nv):
                feats_uf.union(node_start[i] + t, node_start[int(j)] + t)
        for k, (u, v) in enumerate(model.edges.tolist()):
            a, b = mapping[u], mapping[v]
            k2 = model.edge_index[(min(a, b), max(a, b))]
            edges_uf.union(k, k2)
            nu = model.nodes[u].n_values
            nv = model.nodes[v].n_values
            for t in range(nu):
                for h in range(nv):
                    if a < b:  # edge k2 is stored as (a, b)
                        f2 = model.edge_feature(k2, t, h)
                    else:
                        f2 = model.edge_feature(k2, h, t)
                    feats_uf.union(model.edge_feature(k, t, h), f2)

    mismatches = []
    for what, orbit_of, uf in (("node", lg.node_orbit_of, nodes_uf),
                               ("edge", lg.edge_orbit_of, edges_uf),
                               ("assignment", lg.feat_to_var, feats_uf)):
        groups = {}
        for i, oid in enumerate(orbit_of.tolist()):
            groups.setdefault(oid, []).append(i)
        if sorted(map(tuple, groups.values())) != uf.partition():
            mismatches.append(f"{what} orbits differ from enumerated partition")

    return VerifyReport(ok=not mismatches, group_size=group_size, mismatches=mismatches)

"""Orbit computation for ground models under the constant renaming group.

Nodes, edges, and overcomplete feature assignments are grouped into orbits by
canonical keys: the constants mentioned by a node (or an edge's endpoint pair)
are relabeled by first occurrence, so two elements share a key exactly when
some renaming of constants maps one to the other.  For models produced by
:func:`liftedtrw.model.ground` every renaming is an automorphism and the keys
give the true orbit partition; hand-built models can carry extra ``tag``
colors on nodes and edges to express their symmetry, and
:func:`verify_orbits` checks the key partition against explicit enumeration of
all structure-preserving renamings.

:func:`compute_orbits` groups elements by int codes of their keys, computed
with array operations over all nodes and edges at once; the tuple keys are
built for one representative per orbit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter, is_not

import numpy as np

from .model import PairwiseGroundModel


class TyingViolation(Exception):
    """Two ground elements in one orbit carry different parameters."""


_THETA_TOL = 1e-9


def _ordered_key(descs, distinguished=frozenset()):
    """Key of descriptors in the given order, constants relabeled jointly.

    A constant becomes ``("v", label)`` with labels given by first occurrence
    across all the descriptors; a distinguished one stays ``("k", c)``.
    """
    seen = {}
    key = []
    for kind, label, tag, n_values, consts in descs:
        key.append((kind, label, tag or "", n_values,
                    tuple([("k", c) if c in distinguished else ("v", seen.setdefault(c, len(seen)))
                           for c in consts])))
    return tuple(key)


def canonical_pattern(descs, distinguished=frozenset()):
    """Canonical key of a tuple of ground element descriptors.

    Each descriptor is ``(kind, label, tag, n_values, consts)``.  Constants
    are relabeled jointly by first occurrence; for pairs the key is the
    lexicographic minimum over both orderings and the returned flip flag
    records whether both orderings produce the same key.
    """
    forward = _ordered_key(descs, distinguished)
    if len(descs) != 2:
        return forward, False
    backward = _ordered_key(tuple(reversed(descs)), distinguished)
    return min(forward, backward), forward == backward


_descriptor = attrgetter("kind", "label", "tag", "n_values", "consts")


def node_pattern(model, i, distinguished=frozenset()):
    """Canonical key of a single ground node."""
    return canonical_pattern((_descriptor(model.nodes[i]),), distinguished)[0]


def edge_pattern(model, k, distinguished=frozenset()):
    """Canonical key, flip flag and canonical orientation of a ground edge.

    The key is ``(tag, canonical_pattern((du, dv)))`` for the endpoint
    descriptors; the orientation lists first the endpoint the key lists first.
    """
    u, v = model.edges[k].tolist()
    du, dv = _descriptor(model.nodes[u]), _descriptor(model.nodes[v])
    forward = _ordered_key((du, dv), distinguished)
    backward = _ordered_key((dv, du), distinguished)
    tag = model.edge_tags[k] or ""
    if forward <= backward:
        return (tag, forward), forward == backward, (u, v)
    return (tag, backward), False, (v, u)


@dataclass
class NodeOrbit:
    id: int
    key: tuple
    members: list[int]
    n_values: int

    @property
    def size(self):
        return len(self.members)

    @property
    def rep(self):
        return self.members[0]


@dataclass
class EdgeOrbit:
    id: int
    key: tuple
    members: list[tuple[int, int]]  # oriented to match the canonical key
    u_orbit: int
    v_orbit: int
    flip: bool

    @property
    def size(self):
        return len(self.members)

    @property
    def rep(self):
        return self.members[0]

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
    into a single variable when the orbit is flip-symmetric.
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
    var_orbit: list[tuple]      # ("node"|"edge", orbit id)
    feat_to_var: np.ndarray     # ground feature index -> var id
    var_ground_count: np.ndarray
    structural_zero_var: np.ndarray

    # -- variable accessors ------------------------------------------------
    def node_var(self, orbit_id, t):
        return self.node_var_start[orbit_id] + t

    def edge_var(self, orbit_id, t, h):
        return int(self.edge_var_map[orbit_id][t, h])

    def edge_orbit_vars(self, orbit_id):
        """Distinct variable ids of an edge orbit with their multiplicities."""
        vmap = self.edge_var_map[orbit_id]
        vids, counts = np.unique(vmap, return_counts=True)
        return [(int(v), int(c)) for v, c in zip(vids, counts)]

    # -- ground <-> lifted -------------------------------------------------
    def expand(self, tau):
        """Ground overcomplete vector with every feature set to its orbit value."""
        return np.asarray(tau)[self.feat_to_var]

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
        orb = self.node_orbits[orbit_id]
        nd = self.model.nodes[orb.rep]
        args = ",".join(f"x{i}" for i in range(len(nd.consts)))
        return f"{nd.label}({args})" if nd.consts else nd.label


def _ranks(items, key):
    """Rank of ``key(item)`` among the distinct keys, per item, in key order."""
    distinct = set(items)
    rank = {k: r for r, k in enumerate(sorted({key(x) for x in distinct}))}
    of = {x: rank[key(x)] for x in distinct}
    return np.fromiter(map(of.__getitem__, items), dtype=np.int64, count=len(items))


def _lex_codes(columns):
    """One int64 code per row of the equal-length int ``columns``.

    Codes follow the lexicographic order of the rows: equal rows share a
    code and a smaller row has a smaller one.  Each column is shifted to
    start at 0 and appended as a mixed-radix digit; before a digit would take
    the codes to 2**63 or beyond, they are re-ranked to ``0..G-1``.
    """
    digits = np.array(columns, dtype=np.int64)
    if not digits.shape[1]:
        return np.zeros(0, dtype=np.int64)
    low = digits.min(axis=1)
    radices = (digits.max(axis=1) - low + 1).tolist()
    digits -= low[:, None]
    code = digits[0]
    bound = radices[0]  # every code lies in 0..bound-1
    for digit, radix in zip(digits[1:], radices[1:]):
        if bound * radix > 2 ** 63:
            uniq, code = np.unique(code, return_inverse=True)
            bound = len(uniq)
        code = code * radix + digit
        bound *= radix
    return code


def _node_table(model):
    """Per-node arrays behind the keys, cached on the model.

    ``desc`` ranks each node's ``(kind, label, tag or "", n_values)``;
    ``consts`` holds its constants in a padded ``(N, W)`` matrix, whose
    ``valid`` mask marks the first ``len(consts)`` entries of each row.
    """
    table = model.__dict__.get("_node_table")
    if table is None:
        nodes = model.nodes
        desc = _ranks(list(map(attrgetter("kind", "label", "tag", "n_values"), nodes)),
                      key=lambda d: (d[0], d[1], d[2] or "", d[3]))
        consts = list(map(attrgetter("consts"), nodes))
        lengths = np.fromiter(map(len, consts), dtype=np.int64, count=len(nodes))
        valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
        matrix = np.zeros(valid.shape, dtype=np.int64)
        matrix[valid] = np.fromiter(itertools.chain.from_iterable(consts), dtype=np.int64,
                                    count=int(lengths.sum()))
        table = model.__dict__["_node_table"] = (desc, matrix, valid)
    return table


def _fixed_ranks(consts, valid, distinguished):
    """Rank of each distinguished constant among ``distinguished``; -1 elsewhere."""
    fixed = np.full(consts.shape, -1, dtype=np.int64)
    if distinguished:
        order = np.array(sorted(distinguished), dtype=np.int64)
        pos = np.minimum(np.searchsorted(order, consts), len(order) - 1)
        hit = valid & (order[pos] == consts)
        fixed[hit] = pos[hit]
    return fixed


def _relabel_codes(consts, valid, distinguished):
    """``_ordered_key``'s relabeling of each row of ``consts`` as sortable ints.

    A distinguished constant, ``("k", c)``, becomes its rank among
    ``distinguished``; any other, ``("v", label)``, becomes
    ``len(distinguished) + label`` with labels given by first occurrence
    along the row; padding becomes -1, so a row sorts before its extensions
    as a shorter tuple does.
    """
    codes = _fixed_ranks(consts, valid, distinguished)
    free = valid & (codes < 0)
    n_seen = np.zeros(len(consts), dtype=np.int64)
    for j in range(consts.shape[1]):
        label = n_seen + len(distinguished)
        new = free[:, j].copy()
        for k in range(j):
            same = new & free[:, k] & (consts[:, k] == consts[:, j])
            label[same] = codes[same, k]
            new &= ~same
        codes[free[:, j], j] = label[free[:, j]]
        n_seen += new
    return codes


def compute_orbits(model, distinguished=frozenset()):
    """Build the :class:`LiftedGraph` of a ground model.

    ``distinguished`` constants are excluded from renaming, which yields the
    orbit structure under the stabilizer of the nodes mentioning them.

    Keys are compared as int rows: a node's row is its ranked description
    followed by its relabeled constants, and each orientation of an edge
    gives the row ``(tag, class of the first node, description of the
    second, the second's constants relabeled after the first's)``.  An edge
    takes its smaller row, and is flip-symmetric when both are equal.  The
    tuple key of each orbit is computed from its representative only.
    """
    desc, consts, valid = _node_table(model)
    node_codes = _relabel_codes(consts, valid, distinguished)
    node_orbit_of = np.unique(_lex_codes([desc, *node_codes.T]), return_inverse=True)[1]
    node_order = np.argsort(node_orbit_of, kind="stable").tolist()
    node_orbits = []
    end = 0
    for oid, size in enumerate(np.bincount(node_orbit_of).tolist()):
        members = node_order[end:end + size]
        end += size
        node_orbits.append(NodeOrbit(oid, node_pattern(model, members[0], distinguished),
                                     members, model.nodes[members[0]].n_values))

    n_edges = len(model.edges)
    rows = np.concatenate([model.edges, model.edges[:, ::-1]])  # both orientations
    shape = (len(rows), 2 * consts.shape[1])
    joint = _relabel_codes(consts[rows].reshape(shape), valid[rows].reshape(shape),
                           distinguished)
    tag = _ranks(model.edge_tags, key=lambda t: t or "")
    codes = _lex_codes([np.tile(tag, 2), node_orbit_of[rows[:, 0]], desc[rows[:, 1]],
                        *joint[:, consts.shape[1]:].T])
    fwd, bwd = codes[:n_edges], codes[n_edges:]
    backward = bwd < fwd
    flip = fwd == bwd
    _, reps, orbit_of = np.unique(np.minimum(fwd, bwd), return_index=True, return_inverse=True)
    if (flip != flip[reps][orbit_of]).any():  # pragma: no cover - keys pin the orientation pair
        raise TyingViolation("inconsistent flip flags in an edge orbit")
    edge_orbit_of = np.zeros(max(n_edges, 1), dtype=int)
    edge_orbit_of[:n_edges] = orbit_of
    lead = np.where(backward, model.edges[:, 1], model.edges[:, 0])
    other = np.where(backward, model.edges[:, 0], model.edges[:, 1])
    order = np.argsort(orbit_of, kind="stable")
    oriented = list(zip(lead[order].tolist(), other[order].tolist()))
    edge_orbits = []
    end = 0
    for oid, (k, size) in enumerate(zip(reps.tolist(), np.bincount(orbit_of).tolist())):
        members = oriented[end:end + size]
        end += size
        u_orb, v_orb = (int(node_orbit_of[i]) for i in members[0])
        key = edge_pattern(model, k, distinguished)[0]
        if flip[k] and u_orb != v_orb:  # pragma: no cover - flip forces one orbit
            raise TyingViolation(f"flip-symmetric edge orbit {key} across two node orbits")
        edge_orbits.append(EdgeOrbit(oid, key, members, u_orb, v_orb, bool(flip[k])))

    return _assemble(model, node_orbits, edge_orbits, node_orbit_of, edge_orbit_of, backward)


def _check_tied(x, what, flip=False):
    """Raise unless each entry of ``x`` is within ``_THETA_TOL * max(1, max
    |entry|)`` of its first member; with ``flip`` the members of ``x[h, t]``
    count as members of ``x[t, h]`` for ``t < h``.  Members lie along the last
    axis, so the reductions run along contiguous memory."""
    ref = x[..., :1]
    scale = _THETA_TOL * np.maximum(1.0, np.abs(x).max(axis=-1))
    dev = np.abs(x - ref).max(axis=-1)
    bad = dev > scale
    if flip:
        dev = np.maximum(dev, np.abs(x.transpose(1, 0, 2) - ref).max(axis=-1))
        bad |= np.triu(dev > np.maximum(scale, scale.T))
    if bad.any():
        where = tuple(np.argwhere(bad)[0].tolist())
        raise TyingViolation(f"parameters differ within {what}, value {where}")


def _oriented_stack(blocks, flips, shape, dtype):
    """Member blocks stacked along a last axis in the orbit's orientation.

    ``blocks`` are in their stored orientation; those of members with
    ``flips`` set go in transposed, all by one fancy-index assignment.
    """
    if any(flips):
        turned = np.flatnonzero(flips)
        kept = np.flatnonzero(np.logical_not(flips))
        out = np.empty((len(blocks),) + shape, dtype=dtype)
        out[turned] = np.array([blocks[i] for i in turned.tolist()],
                               dtype=dtype).transpose(0, 2, 1)
        if kept.size:
            out[kept] = np.array([blocks[i] for i in kept.tolist()], dtype=dtype)
    else:
        out = np.array(blocks, dtype=dtype)
    return np.ascontiguousarray(out.transpose(1, 2, 0))


def _assemble(model, node_orbits, edge_orbits, node_orbit_of, edge_orbit_of, backward):
    """The lifted arrays of the given orbits; ``backward`` flags the edges
    whose orbit lists them as ``(v, u)`` of their stored ``(u, v)``."""
    n_vars = 0
    node_var_start = []
    var_orbit = []
    var_mult = []
    lifted_theta = []
    structural_zero_var = []

    for orb in node_orbits:
        node_var_start.append(n_vars)
        thetas = np.ascontiguousarray(np.array([model.theta_node[i] for i in orb.members]).T)
        _check_tied(thetas, f"node orbit {orb.key}")
        for total in thetas.sum(axis=-1).tolist():
            lifted_theta.append(total)
            var_orbit.append(("node", orb.id))
            var_mult.append(1)
            structural_zero_var.append(False)
        n_vars += orb.n_values

    edge_var_map = []
    var_blocks = []  # per orbit: var ids of a forward, then a backward member's features
    n_edges = len(model.edges)
    # orbits list their members in edge-id order, as a stable argsort does
    by_orbit = np.argsort(edge_orbit_of[:n_edges], kind="stable")
    member_ids = by_orbit.tolist()
    member_flips = backward[by_orbit].tolist()
    member_zeroed = np.fromiter(map(is_not, model.structural_zero, itertools.repeat(None)),
                                dtype=bool, count=n_edges)[by_orbit].tolist()
    end = 0
    for orb in edge_orbits:
        members = slice(end, end + orb.size)
        end += orb.size
        ids, flips = member_ids[members], member_flips[members]
        nu, nv = (model.nodes[i].n_values for i in orb.members[0])
        theta_stack = _oriented_stack([model.theta_edge[k] for k in ids], flips, (nu, nv), float)
        _check_tied(theta_stack, f"edge orbit {orb.key}", orb.flip)
        theta_sum = theta_stack.sum(axis=-1)
        zero_var = np.zeros((nu, nv), dtype=bool)
        if any(member_zeroed[members]):
            blank = (zero_var, zero_var.T)
            zero_stack = _oriented_stack([blank[f] if model.structural_zero[k] is None
                                          else model.structural_zero[k]
                                          for k, f in zip(ids, flips)], flips, (nu, nv), bool)
            if orb.flip:
                zero_stack = np.concatenate([zero_stack, zero_stack.transpose(1, 0, 2)],
                                            axis=-1)
            zero_var = zero_stack.all(axis=-1)
            if (zero_stack.any(axis=-1) != zero_var).any():
                raise TyingViolation(f"structural zeros differ within edge orbit {orb.key}")

        vmap = -np.ones((nu, nv), dtype=int)
        for t in range(nu):
            for h in range(nv):
                if vmap[t, h] >= 0:
                    continue
                entries = [(t, h)]
                if orb.flip and t != h:
                    entries.append((h, t))
                vid = n_vars
                n_vars += 1
                for tt, hh in entries:
                    vmap[tt, hh] = vid
                lifted_theta.append(float(sum(theta_sum[tt, hh] for tt, hh in entries)))
                var_orbit.append(("edge", orb.id))
                var_mult.append(len(entries))
                structural_zero_var.append(bool(zero_var[t, h]))
        edge_var_map.append(vmap)
        var_blocks += [vmap.ravel(), vmap.T.ravel()]

    # ground feature -> variable map: node features first, then edge features,
    # each edge's copied from its orbit's block for its orientation
    n_values = np.array([nd.n_values for nd in model.nodes], dtype=int)
    node_start, edge_start, n_features = model.feature_layout()
    first_var = np.array(node_var_start, dtype=int)[node_orbit_of]
    n_node_feats = int(n_values.sum())
    feat_to_var = np.empty(n_features, dtype=int)
    feat_to_var[:n_node_feats] = (np.repeat(first_var - np.array(node_start, dtype=int), n_values)
                                  + np.arange(n_node_feats))
    block_size = np.array([b.size for b in var_blocks], dtype=int)
    block = 2 * edge_orbit_of[:n_edges] + backward
    start = (np.cumsum(block_size) - block_size)[block] - np.array(edge_start, dtype=int)
    feat_to_var[n_node_feats:] = np.concatenate([np.zeros(0, dtype=int)] + var_blocks)[
        np.repeat(start, block_size[block]) + np.arange(n_node_feats, n_features)]

    var_ground_count = np.bincount(feat_to_var, minlength=n_vars)

    lg = LiftedGraph(
        model=model,
        node_orbits=node_orbits,
        edge_orbits=edge_orbits,
        node_orbit_of=node_orbit_of,
        edge_orbit_of=edge_orbit_of,
        node_var_start=node_var_start,
        edge_var_map=edge_var_map,
        n_vars=n_vars,
        lifted_theta=np.array(lifted_theta),
        var_mult=np.array(var_mult, dtype=int),
        var_orbit=var_orbit,
        feat_to_var=feat_to_var,
        var_ground_count=var_ground_count,
        structural_zero_var=np.array(structural_zero_var, dtype=bool),
    )
    _check_invariants(lg)
    return lg


def _check_invariants(lg):
    assert sum(o.size for o in lg.node_orbits) == len(lg.model.nodes)
    assert sum(o.size for o in lg.edge_orbits) == len(lg.model.edges)
    for e in lg.edge_orbits:
        total = sum(e.d(v.id) for v in lg.node_orbits)
        assert total == 2, f"edge orbit {e.key} has incidence sum {total}"


def trivial_lifting(model):
    """The identity lifting: every node and edge is its own orbit.

    Running the lifted machinery on this graph reproduces the ground problem.
    """
    node_orbits = [NodeOrbit(i, ("ground-node", i), [i], nd.n_values)
                   for i, nd in enumerate(model.nodes)]
    node_orbit_of = np.arange(len(model.nodes))
    edge_orbits = [EdgeOrbit(k, ("ground-edge", k), [(u, v)], u, v, False)
                   for k, (u, v) in enumerate(model.edges.tolist())]
    edge_orbit_of = np.arange(max(len(model.edges), 1))
    return _assemble(model, node_orbits, edge_orbits, node_orbit_of, edge_orbit_of,
                     np.zeros(len(model.edges), dtype=bool))


def fix_node(model, u):
    """Orbits under the stabilizer of node ``u``.

    Computed by excluding the constants mentioned by ``u`` from renaming;
    ``u`` ends up in a singleton orbit.  For models whose symmetry is exactly
    the renaming group this gives the true stabilizer orbits; for hand-built
    models with extra tags the classes may merge several stabilizer orbits
    (never split one), which is sufficient for component counting.
    """
    return compute_orbits(model, distinguished=frozenset(model.nodes[u].consts))


# ---------------------------------------------------------------------------
# Verification against explicit group enumeration
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    ok: bool
    group_size: int
    mismatches: list[str] = field(default_factory=list)


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
    """Compare canonical-key orbits with explicit renaming-group enumeration.

    Enumerates all permutations of the model constants, keeps those inducing
    model automorphisms, and checks that the resulting node, edge, and
    assignment-orbit partitions equal the canonical-key partitions.
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
    key_nodes = sorted(tuple(sorted(o.members)) for o in lg.node_orbits)
    if key_nodes != nodes_uf.partition():
        mismatches.append("node orbits differ from enumerated partition")
    key_edges = sorted(
        tuple(sorted(model.edge_index[(min(u, v), max(u, v))] for u, v in o.members))
        for o in lg.edge_orbits)
    enum_edges = edges_uf.partition() if len(model.edges) else []
    if key_edges != enum_edges:
        mismatches.append("edge orbits differ from enumerated partition")
    key_feats = {}
    for f, v in enumerate(lg.feat_to_var):
        key_feats.setdefault(int(v), []).append(f)
    if sorted(tuple(sorted(g)) for g in key_feats.values()) != feats_uf.partition():
        mismatches.append("assignment orbits differ from enumerated partition")

    return VerifyReport(ok=not mismatches, group_size=group_size, mismatches=mismatches)

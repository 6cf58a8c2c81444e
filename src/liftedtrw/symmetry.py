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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .model import PairwiseGroundModel


class TyingViolation(Exception):
    """Two ground elements in one orbit carry different parameters."""


_THETA_TOL = 1e-9


def _relabel(consts, distinguished, seen):
    """Constants relabeled by first occurrence, continuing ``seen``.

    ``seen`` maps each constant relabeled earlier to its label and is extended
    in place; distinguished constants keep their identity.
    """
    out = []
    for c in consts:
        if c in distinguished:
            out.append(("k", c))
        else:
            out.append(("v", seen.setdefault(c, len(seen))))
    return tuple(out)


def _ordered_key(descs, distinguished=frozenset()):
    """Key of descriptors in the given order, constants relabeled jointly."""
    seen = {}
    return tuple((d[0], d[1], d[2] or "", d[3], _relabel(d[4], distinguished, seen))
                 for d in descs)


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


def _node_info(node, distinguished):
    """A node's key entry and the labels of its constants.

    The entry is ``(kind, label, tag, n_values, relabeled consts)``, the one
    element of the node's key and the first element of the key of any pair
    the node leads.
    """
    seen = {}
    entry = (node.kind, node.label, node.tag or "", node.n_values,
             _relabel(node.consts, distinguished, seen))
    return entry, seen, node.consts


def _edge_key(tag, info_u, info_v, distinguished):
    """``(key, flip, forward)`` of an edge from its endpoints' ``_node_info``.

    Equals ``(tag, canonical_pattern((du, dv)))`` for the endpoint descriptors
    ``du``, ``dv``; ``forward`` says the key lists ``u`` first.  Only the
    second endpoint's constants are relabeled again, once per ordering whose
    first entry can be the minimum.
    """
    (eu, su, cu), (ev, sv, cv) = info_u, info_v
    if eu < ev:
        return (tag, (eu, ev[:4] + (_relabel(cv, distinguished, dict(su)),))), False, True
    if ev < eu:
        return (tag, (ev, eu[:4] + (_relabel(cu, distinguished, dict(sv)),))), False, False
    fwd = _relabel(cv, distinguished, dict(su))
    bwd = _relabel(cu, distinguished, dict(sv))
    if fwd <= bwd:
        return (tag, (eu, ev[:4] + (fwd,))), fwd == bwd, True
    return (tag, (ev, eu[:4] + (bwd,))), False, False


def node_pattern(model, i, distinguished=frozenset()):
    """Canonical key of a single ground node."""
    return (_node_info(model.nodes[i], distinguished)[0],)


def edge_pattern(model, k, distinguished=frozenset()):
    """Canonical key, flip flag and canonical orientation of a ground edge."""
    e = model.edges[k]
    key, flip, forward = _edge_key(e.tag or "", _node_info(model.nodes[e.u], distinguished),
                                   _node_info(model.nodes[e.v], distinguished),
                                   distinguished)
    return key, flip, ((e.u, e.v) if forward else (e.v, e.u))


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


def compute_orbits(model, distinguished=frozenset()):
    """Build the :class:`LiftedGraph` of a ground model.

    ``distinguished`` constants are excluded from renaming, which yields the
    orbit structure under the stabilizer of the nodes mentioning them.
    """
    info = [_node_info(nd, distinguished) for nd in model.nodes]
    node_groups = {}
    for i, (entry, _seen, _consts) in enumerate(info):
        node_groups.setdefault(entry, []).append(i)
    node_orbits = []
    node_orbit_of = np.zeros(len(model.nodes), dtype=int)
    for oid, entry in enumerate(sorted(node_groups)):
        members = node_groups[entry]
        node_orbits.append(NodeOrbit(oid, (entry,), members, model.nodes[members[0]].n_values))
        node_orbit_of[members] = oid

    edge_groups = {}  # key -> (edge ids, oriented members, flip flags)
    for k, e in enumerate(model.edges):
        key, flip, forward = _edge_key(e.tag or "", info[e.u], info[e.v], distinguished)
        group = edge_groups.get(key)
        if group is None:
            group = edge_groups[key] = ([], [], set())
        group[0].append(k)
        group[1].append((e.u, e.v) if forward else (e.v, e.u))
        group[2].add(flip)
    edge_orbits = []
    edge_orbit_of = np.zeros(max(len(model.edges), 1), dtype=int)
    for oid, key in enumerate(sorted(edge_groups)):
        e_ids, members, flips = edge_groups[key]
        if len(flips) != 1:  # pragma: no cover - keys pin the orientation pair
            raise TyingViolation(f"inconsistent flip flags in edge orbit {key}")
        u_orb = node_orbit_of[members[0][0]]
        v_orb = node_orbit_of[members[0][1]]
        flip = flips.pop()
        if flip and u_orb != v_orb:  # pragma: no cover - flip forces one orbit
            raise TyingViolation(f"flip-symmetric edge orbit {key} across two node orbits")
        edge_orbits.append(EdgeOrbit(oid, key, members, int(u_orb), int(v_orb), flip))
        edge_orbit_of[e_ids] = oid

    return _assemble(model, node_orbits, edge_orbits, node_orbit_of, edge_orbit_of)


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


def _assemble(model, node_orbits, edge_orbits, node_orbit_of, edge_orbit_of):
    n_vars = 0
    node_var_start = []
    var_orbit = []
    var_mult = []
    lifted_theta = []
    structural_zero_var = []

    for orb in node_orbits:
        node_var_start.append(n_vars)
        thetas = np.stack([model.theta_node[i] for i in orb.members], axis=-1)
        _check_tied(thetas, f"node orbit {orb.key}")
        for t in range(orb.n_values):
            lifted_theta.append(float(np.sum(thetas[t])))
            var_orbit.append(("node", orb.id))
            var_mult.append(1)
            structural_zero_var.append(False)
        n_vars += orb.n_values

    edge_var_map = []
    edge_block = [None] * len(model.edges)  # edge id -> its features' var ids
    for orb in edge_orbits:
        e_ids = [model.edge_index[(u, v) if u < v else (v, u)] for u, v in orb.members]
        flipped = [u > v for u, v in orb.members]  # stored as (v, u)
        theta_stack = np.stack([model.theta_edge[k].T if f else model.theta_edge[k]
                                for k, f in zip(e_ids, flipped)], axis=-1)
        nu, nv = theta_stack.shape[:2]
        _check_tied(theta_stack, f"edge orbit {orb.key}", orb.flip)
        zero_var = np.zeros((nu, nv), dtype=bool)
        stored_zero = [model.structural_zero[k] for k in e_ids]
        if any(z is not None for z in stored_zero):
            zero_stack = np.stack([zero_var if z is None else (z.T if f else z)
                                   for z, f in zip(stored_zero, flipped)], axis=-1)
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
                lifted_theta.append(float(sum(np.sum(theta_stack[tt, hh])
                                              for tt, hh in entries)))
                var_orbit.append(("edge", orb.id))
                var_mult.append(len(entries))
                structural_zero_var.append(bool(zero_var[t, h]))
        edge_var_map.append(vmap)
        blocks = (vmap.ravel(), vmap.T.ravel())
        for k, f in zip(e_ids, flipped):
            edge_block[k] = blocks[f]

    # ground feature -> variable map: node features first, then edge features
    n_values = np.array([nd.n_values for nd in model.nodes], dtype=int)
    node_start = model.feature_layout()[0]
    first_var = np.array(node_var_start, dtype=int)[node_orbit_of]
    node_feats = (np.repeat(first_var - np.array(node_start, dtype=int), n_values)
                  + np.arange(int(n_values.sum())))
    feat_to_var = np.concatenate([node_feats] + edge_block)

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
    edge_orbits = [EdgeOrbit(k, ("ground-edge", k), [(e.u, e.v)], e.u, e.v, False)
                   for k, e in enumerate(model.edges)]
    edge_orbit_of = np.arange(max(len(model.edges), 1))
    return _assemble(model, node_orbits, edge_orbits, node_orbit_of, edge_orbit_of)


def fix_node(lg, model, u):
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
    for k, e in enumerate(model.edges):
        a, b = mapping[e.u], mapping[e.v]
        k2 = model.edge_index.get((min(a, b), max(a, b)))
        if k2 is None:
            return None
        e2 = model.edges[k2]
        if e2.tag != e.tag:
            return None
        th = model.theta_edge[k]
        th2 = model.theta_edge[k2]
        z = model.structural_zero[k]
        z2 = model.structural_zero[k2]
        if (a, b) != (e2.u, e2.v):
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
        for k, e in enumerate(model.edges):
            a, b = mapping[e.u], mapping[e.v]
            k2 = model.edge_index[(min(a, b), max(a, b))]
            edges_uf.union(k, k2)
            e2 = model.edges[k2]
            nu = model.nodes[e.u].n_values
            nv = model.nodes[e.v].n_values
            for t in range(nu):
                for h in range(nv):
                    if (a, b) == (e2.u, e2.v):
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
    enum_edges = edges_uf.partition() if model.edges else []
    if key_edges != enum_edges:
        mismatches.append("edge orbits differ from enumerated partition")
    key_feats = {}
    for f, v in enumerate(lg.feat_to_var):
        key_feats.setdefault(int(v), []).append(f)
    if sorted(tuple(sorted(g)) for g in key_feats.values()) != feats_uf.partition():
        mismatches.append("assignment orbits differ from enumerated partition")

    return VerifyReport(ok=not mismatches, group_size=group_size, mismatches=mismatches)

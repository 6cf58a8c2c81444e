"""Outer bounds of the lifted marginal polytope.

Three families of linear constraints over the lifted variables:

* local: per-orbit normalization and edge-to-node marginalization rows,
* cycle: valid inequalities separated on the ground graph via shortest paths
  in a two-layer mirror graph and re-expressed in lifted variables,
* exchangeable: count-distribution consistency rows for clusters of mutually
  interchangeable binary nodes, using auxiliary variables ``c_0..c_n`` that
  approximate the probability of seeing exactly ``k`` ones in the cluster.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .lpsolve import Row
from .symmetry import _UnionFind

CYCLE_VIOLATION_TOL = 1e-6
CUT_BATCH = 20  # most violated cycle rows returned per separation call


class NotExchangeable(Exception):
    """The node orbit lacks the single flip-symmetric internal edge orbit."""


@dataclass
class ConstraintSystem:
    """Sparse rows over the lifted variables, deduplicated by canonical key."""

    rows: list[Row] = field(default_factory=list)
    _keys: set = field(default_factory=set)

    def add(self, row):
        key = row.canonical_key()
        if key not in self._keys:
            self._keys.add(key)
            self.rows.append(row)

    def __contains__(self, row):
        return row.canonical_key() in self._keys


def lifted_local(lg):
    """Lifted local-polytope constraints.

    Per node orbit one normalization row; per edge orbit, marginalization rows
    obtained by projecting the representative ground edge's rows onto orbit
    variables (one redundant side row is dropped, and rows that coincide after
    flip merging are deduplicated).
    """
    cs = ConstraintSystem()
    for orb in lg.node_orbits:
        coeffs = {lg.node_var(orb.id, t): 1.0 for t in range(orb.n_values)}
        cs.add(Row.make(coeffs, "=", 1.0, tag="local"))
    for eo in lg.edge_orbits:
        u0, v0 = eo.rep
        nu = lg.model.nodes[u0].n_values
        nv = lg.model.nodes[v0].n_values
        for t in range(nu):
            coeffs = {}
            for h in range(nv):
                v = lg.edge_var(eo.id, t, h)
                coeffs[v] = coeffs.get(v, 0.0) + 1.0
            nvar = lg.node_var(eo.u_orbit, t)
            coeffs[nvar] = coeffs.get(nvar, 0.0) - 1.0
            cs.add(Row.make(coeffs, "=", 0.0, tag="local"))
        for h in range(nv - 1):
            coeffs = {}
            for t in range(nu):
                v = lg.edge_var(eo.id, t, h)
                coeffs[v] = coeffs.get(v, 0.0) + 1.0
            nvar = lg.node_var(eo.v_orbit, h)
            coeffs[nvar] = coeffs.get(nvar, 0.0) - 1.0
            cs.add(Row.make(coeffs, "=", 0.0, tag="local"))
    return cs


# ---------------------------------------------------------------------------
# Exchangeable clusters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cluster:
    node_orbit: int
    edge_orbit: int
    size: int
    c_offset: int = -1  # variable offset assigned when embedded in a system


def _cluster_structure(lg, node_orbit_id):
    """Return the internal edge orbit of a cluster or raise NotExchangeable.

    The orbit is the flip-symmetric edge orbit inside the node orbit whose
    size is the number of member pairs.  Ground edges join two distinct nodes
    and no pair twice, so such an orbit holds an edge on every member pair.
    """
    model = lg.model
    orb = lg.node_orbits[node_orbit_id]
    nd = model.nodes[orb.rep]
    if nd.kind != "atom" or nd.n_values != 2 or len(nd.consts) != 1:
        raise NotExchangeable(f"orbit {orb.key} is not a unary binary-atom orbit")
    if orb.size < 2:
        raise NotExchangeable("cluster needs at least two nodes")
    n_pairs = orb.size * (orb.size - 1) // 2
    for eo in lg.edge_orbits:
        if (eo.u_orbit == eo.v_orbit == node_orbit_id and eo.flip
                and eo.size == n_pairs):
            return eo
    raise NotExchangeable("no flip-symmetric edge orbit covers every cluster pair")


def detect_exchangeable_clusters(lg):
    """Node orbits of unary-predicate groundings that pass the structure check."""
    out = []
    for orb in lg.node_orbits:
        try:
            eo = _cluster_structure(lg, orb.id)
        except NotExchangeable:
            continue
        out.append(Cluster(orb.id, eo.id, orb.size))
    return out


def exchangeable_constraints(lg, node_orbit_id, c_offset):
    """Count-distribution consistency rows for one exchangeable cluster.

    Introduces variables ``c_0..c_n`` at ``c_offset`` and links their pairwise
    expectations to the cluster's edge-orbit variables.  ``sum_k c_k = 1`` is
    no row: local normalization and these rows imply it, as ``(n-k)(n-k-1) +
    k(k-1) + 2k(n-k) = n(n-1)``, and the polish needs independent rows.
    """
    eo = _cluster_structure(lg, node_orbit_id)
    n = lg.node_orbits[node_orbit_id].size
    denom = n * (n - 1)
    v00 = lg.edge_var(eo.id, 0, 0)
    v11 = lg.edge_var(eo.id, 1, 1)
    v01 = lg.edge_var(eo.id, 0, 1)

    rows = []
    r00 = {c_offset + k: (n - k) * (n - k - 1) / denom for k in range(0, n - 1)}
    r00[v00] = -1.0
    rows.append(Row.make(r00, "=", 0.0, tag="exchangeable"))
    r11 = {c_offset + k: k * (k - 1) / denom for k in range(2, n + 1)}
    r11[v11] = -1.0
    rows.append(Row.make(r11, "=", 0.0, tag="exchangeable"))
    r01 = {c_offset + k: k * (n - k) / denom for k in range(1, n)}
    r01[v01] = -1.0
    rows.append(Row.make(r01, "=", 0.0, tag="exchangeable"))
    return rows, n


# ---------------------------------------------------------------------------
# Cycle inequality separation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _MirrorGraph:
    """The two-layer mirror graph of a model's binary subgraph, minus weights.

    Ground node ``a`` has copies ``2a`` (layer 0) and ``2a + 1`` (layer 1).
    ``adj`` lists ``(node, edge, crossing)`` per copy, where ``edge`` indexes
    the binary edges and ``crossing`` says the step switches layers;
    ``var01``/``var10`` are each binary edge's two disagreement variables;
    ``first`` maps every source to the first source of its node orbit.

    ``sources`` is empty when the binary subgraph is a forest.  There every
    closed walk with an odd number of crossings crosses some edge and also
    steps along it without crossing, at cost ``lam + (1 - lam) = 1``, so no
    cycle inequality can be violated.
    """

    adj: list
    var01: np.ndarray
    var10: np.ndarray
    sources: list
    first: dict


def _mirror_graph(lg):
    """The mirror graph of ``lg``, built on first use and cached on ``lg``."""
    mg = getattr(lg, "_mirror", None)
    if mg is not None:
        return mg
    model = lg.model
    adj = [[] for _ in range(2 * len(model.nodes))]
    var01, var10, sources = [], [], set()
    uf, forest = _UnionFind(len(model.nodes)), True
    for k, (u, v) in enumerate(model.edges.tolist()):
        nu, nv = model.nodes[u], model.nodes[v]
        if not (nu.kind == nv.kind == "atom" and nu.n_values == nv.n_values == 2):
            continue
        j = len(var01)
        var01.append(int(lg.feat_to_var[model.edge_feature(k, 0, 1)]))
        var10.append(int(lg.feat_to_var[model.edge_feature(k, 1, 0)]))
        sources.update((u, v))
        ru, rv = uf.find(u), uf.find(v)
        forest = forest and ru != rv  # an edge inside a component closes a cycle
        uf.union(ru, rv)
        for a, b in ((u, v), (v, u)):
            adj[2 * a].append((2 * b, j, False))
            adj[2 * a + 1].append((2 * b + 1, j, False))
            adj[2 * a].append((2 * b + 1, j, True))
            adj[2 * a + 1].append((2 * b, j, True))
    sources = [] if forest else sorted(sources)
    first, orbit_first = {}, {}
    for s in sources:
        first[s] = orbit_first.setdefault(int(lg.node_orbit_of[s]), s)
    lg._mirror = _MirrorGraph(adj, np.array(var01, dtype=int),
                              np.array(var10, dtype=int), sources, first)
    return lg._mirror


def separate_cycles(lg, tau, cs):
    """Find violated lifted cycle inequalities at ``tau`` and add them to ``cs``.

    Runs shortest-path separation on the ground graph: a two-layer mirror
    graph where staying in a layer costs the edge disagreement probability and
    switching layers costs one minus it.  A path from a node's copy in layer 0
    to its copy in layer 1 shorter than 1 yields a violated inequality, which
    is projected onto orbit variables and deduplicated against ``cs``.  The
    ``CUT_BATCH`` most violated new rows are added to ``cs`` and returned,
    the most violated first.

    Since ``tau`` is constant on orbits, an automorphism maps the shortest
    paths from one member of a node orbit onto paths of the same length from
    any other member.  So the search runs from the first source of each node
    orbit, and from the orbit's other members only when that search finds a
    violated cycle; the rows are those of a search from every source.
    """
    mg = _mirror_graph(lg)
    if not mg.sources:
        return []
    tau = np.asarray(tau)
    lam = np.clip(tau[mg.var01] + tau[mg.var10], 0.0, 1.0)
    weight = (lam.tolist(), (1.0 - lam).tolist())

    cutoff = 1.0 - CYCLE_VIOLATION_TOL
    violated = {}  # orbit-first source -> did its search find a path?
    found = []
    seen_keys = set()
    for s in mg.sources:
        if not violated.get(mg.first[s], True):
            continue
        dist, parent = _dijkstra(mg.adj, weight, 2 * s, 2 * s + 1, cutoff)
        if s == mg.first[s]:
            violated[s] = dist is not None
        if dist is None:
            continue
        steps = _walk(parent, 2 * s, 2 * s + 1)
        coeffs = {}
        n_cross = 0
        for j, crossing in steps:
            sign = 1.0 if crossing else -1.0
            n_cross += int(crossing)
            for var in (mg.var01[j], mg.var10[j]):
                coeffs[var] = coeffs.get(var, 0.0) + sign
        row = Row.make(coeffs, "<=", n_cross - 1, tag="cycle")
        key = row.canonical_key()
        if key in seen_keys or row in cs:
            continue
        violation = sum(c * tau[j] for j, c in row.coeffs) - row.rhs
        if violation <= CYCLE_VIOLATION_TOL:
            continue
        seen_keys.add(key)
        found.append((violation, row))

    found.sort(key=lambda t: -t[0])
    rows = [row for _violation, row in found[:CUT_BATCH]]
    for row in rows:
        cs.add(row)
    return rows


def _dijkstra(adj, weight, src, dst, cutoff):
    """Shortest ``src``-``dst`` path below ``cutoff`` as ``(length, parent)``.

    ``weight[crossing][edge]`` prices an ``adj`` step.  Labels at or above
    ``cutoff`` are recorded but never pushed: every label on a path shorter
    than the cutoff is itself shorter, so the search pops exactly the nodes it
    would pop without the cutoff, in the same order.  Returns ``(None, None)``
    when ``dst`` is not reached below the cutoff.
    """
    dist = [math.inf] * len(adj)
    dist[src] = 0.0
    parent = [None] * len(adj)
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u] + 1e-15:
            continue
        if u == dst:
            return d, parent
        for v, j, crossing in adj[u]:
            nd = d + weight[crossing][j]
            if nd < dist[v] - 1e-15:
                dist[v] = nd
                parent[v] = (u, j, crossing)
                if nd < cutoff:
                    heapq.heappush(heap, (nd, v))
    return None, None


def _walk(parent, src, dst):
    steps = []
    cur = dst
    while cur != src:
        prev, k, crossing = parent[cur]
        steps.append((k, crossing))
        cur = prev
    steps.reverse()
    return steps


# ---------------------------------------------------------------------------
# Assembled outer systems
# ---------------------------------------------------------------------------

OUTER_CHOICES = ("local", "cycle", "local+exch", "cycle+exch")


@dataclass
class OuterSystem:
    """A constraint system plus metadata for one outer-bound choice."""

    lg: object
    outer: str
    n_vars: int
    cs: ConstraintSystem
    fixed_zero: np.ndarray
    clusters: list[Cluster]
    use_cycles: bool
    start_basis: list | None = None

    def uniform_point(self):
        """The moment vector of the uniform distribution (always feasible)."""
        x = np.zeros(self.n_vars)
        lg = self.lg
        for orb in lg.node_orbits:
            s = lg.node_var_start[orb.id]
            x[s:s + orb.n_values] = 1.0 / orb.n_values
        for eo in lg.edge_orbits:
            u0, v0 = eo.rep
            size = lg.model.nodes[u0].n_values * lg.model.nodes[v0].n_values
            for var, _count in lg.edge_orbit_vars(eo.id):
                x[var] = 1.0 / size
        # hard consistency edges: mass uniform over the allowed diagonal
        for eo in lg.edge_orbits:
            vars_counts = lg.edge_orbit_vars(eo.id)
            zeros = [v for v, _ in vars_counts if lg.structural_zero_var[v]]
            if not zeros:
                continue
            u0, v0 = eo.rep
            mask = lg.model.structural_zero[int(np.argmax(lg.edge_orbit_of == eo.id))]
            th = mask if u0 < v0 else mask.T  # edges are stored lower node first
            allowed = (~th)
            nu, nv = th.shape
            # uniform over the larger endpoint's values, consistent pairs only
            for t in range(nu):
                for h in range(nv):
                    var = lg.edge_var(eo.id, t, h)
                    x[var] = (1.0 / max(nu, nv)) if allowed[t, h] else 0.0
        for cl in self.clusters:
            n = cl.size
            ks = np.arange(n + 1)
            x[cl.c_offset:cl.c_offset + n + 1] = (
                np.array([_comb(n, k) for k in ks]) / 2.0 ** n)
        return x


def _comb(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def crash_basis(lg, cs):
    """A feasible starting basis for a pure local system, or None.

    Encodes the vertex of the all-zeros assignment: per node orbit the
    value-0 variable, per edge orbit the first row and first column of the
    value grid.  Only valid before cuts or cluster rows are added and when no
    structural zeros are present (auxiliary-node systems fall back to the
    usual phase-1 start).
    """
    if lg.structural_zero_var.any():
        return None
    cols = []
    for orb in lg.node_orbits:
        cols.append(lg.node_var(orb.id, 0))
    for eo in lg.edge_orbits:
        u0, v0 = eo.rep
        nu = lg.model.nodes[u0].n_values
        nv = lg.model.nodes[v0].n_values
        block = {lg.edge_var(eo.id, 0, h) for h in range(nv)}
        block |= {lg.edge_var(eo.id, t, 0) for t in range(1, nu)}
        cols.extend(sorted(block))
    if len(cols) != len(cs.rows) or len(set(cols)) != len(cols):
        return None
    return cols


def build_outer_system(lg, outer):
    """Assemble the constraint system for one of the four outer bounds."""
    if outer not in OUTER_CHOICES:
        raise ValueError(f"outer must be one of {OUTER_CHOICES}, got {outer!r}")
    cs = lifted_local(lg)
    n_vars = lg.n_vars
    clusters = []
    if outer.endswith("+exch"):
        for cl in detect_exchangeable_clusters(lg):
            rows, n = exchangeable_constraints(lg, cl.node_orbit, n_vars)
            clusters.append(Cluster(cl.node_orbit, cl.edge_orbit, cl.size, n_vars))
            n_vars += n + 1
            for row in rows:
                cs.add(row)
    fixed_zero = np.concatenate(
        [lg.structural_zero_var, np.zeros(n_vars - lg.n_vars, dtype=bool)])
    return OuterSystem(
        lg=lg,
        outer=outer,
        n_vars=n_vars,
        cs=cs,
        fixed_zero=fixed_zero,
        clusters=clusters,
        use_cycles=outer.startswith("cycle"),
        start_basis=None if clusters else crash_basis(lg, cs),
    )

"""Outer bounds of the lifted marginal polytope.

Three families of linear constraints over the lifted variables:

* local: per-orbit normalization and edge-to-node marginalization rows,
* cycle: valid inequalities separated on the ground graph via shortest paths
  in a two-layer mirror graph and re-expressed in lifted variables; a ground
  search runs only where the same search on the mirror graph quotiented by
  the source's pinned classes, a lower bound on the ground distance that is
  exact for renaming-group models, finds a path short enough for a cut;
  separation returns the violated rows and keeps none,
* exchangeable: count-distribution consistency rows for clusters of mutually
  interchangeable binary nodes, using auxiliary variables ``c_0..c_n`` that
  approximate the probability of seeing exactly ``k`` ones in the cluster.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .lpsolve import Row
from .model import _group
from .symmetry import _pinned_tables, count_components

CYCLE_VIOLATION_TOL = 1e-6
CUT_BATCH = 20  # most violated cycle rows returned per separation call
QUOTIENT_MARGIN = 1e-9  # slack of the quotient pre-check's cutoff


class NotExchangeable(Exception):
    """The node orbit lacks the single flip-symmetric internal edge orbit."""


def lifted_local(lg):
    """Lifted local-polytope constraints, as a list of rows.

    Per node orbit one normalization row; per edge orbit, marginalization rows
    obtained by projecting the representative ground edge's rows onto orbit
    variables.  One redundant side row is dropped, and rows that coincide
    after flip merging (equal rows, see :class:`~liftedtrw.lpsolve.Row`) are
    kept once, where they first appear.
    """
    rows = []
    for orb in lg.node_orbits:
        coeffs = {lg.node_var(orb.id, t): 1.0 for t in range(orb.n_values)}
        rows.append(Row.make(coeffs, "=", 1.0))
    for eo in lg.edge_orbits:
        nu = lg.node_orbits[eo.u_orbit].n_values
        nv = lg.node_orbits[eo.v_orbit].n_values
        for t in range(nu):
            coeffs = {}
            for h in range(nv):
                v = lg.edge_var(eo.id, t, h)
                coeffs[v] = coeffs.get(v, 0.0) + 1.0
            nvar = lg.node_var(eo.u_orbit, t)
            coeffs[nvar] = coeffs.get(nvar, 0.0) - 1.0
            rows.append(Row.make(coeffs, "=", 0.0))
        for h in range(nv - 1):
            coeffs = {}
            for t in range(nu):
                v = lg.edge_var(eo.id, t, h)
                coeffs[v] = coeffs.get(v, 0.0) + 1.0
            nvar = lg.node_var(eo.v_orbit, h)
            coeffs[nvar] = coeffs.get(nvar, 0.0) - 1.0
            rows.append(Row.make(coeffs, "=", 0.0))
    return list(dict.fromkeys(rows))


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
    table = lg.model.node_table
    orb = lg.node_orbits[node_orbit_id]
    kind, _label, _tag, n_values = table.types[table.desc[orb.rep]]
    if kind != "atom" or n_values != 2 or table.valid[orb.rep].sum() != 1:
        raise NotExchangeable(f"orbit {orb.id} is not a unary binary-atom orbit")
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
    rows.append(Row.make(r00, "=", 0.0))
    r11 = {c_offset + k: k * (k - 1) / denom for k in range(2, n + 1)}
    r11[v11] = -1.0
    rows.append(Row.make(r11, "=", 0.0))
    r01 = {c_offset + k: k * (n - k) / denom for k in range(1, n)}
    r01[v01] = -1.0
    rows.append(Row.make(r01, "=", 0.0))
    return rows, n


# ---------------------------------------------------------------------------
# Cycle inequality separation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _MirrorGraph:
    """The two-layer mirror graph of a model's binary subgraph, minus weights.

    Ground node ``a`` has copies ``2a`` (layer 0) and ``2a + 1`` (layer 1).
    ``pairs`` holds the binary edges' ground endpoints and ``pair_orbit``
    each one's binary edge orbit, an index into ``edge_orbits`` (the edge
    orbit ids that hold a binary edge, ascending) and into ``orbit_vars``
    (per such orbit its two disagreement variables, the ``(0, 1)`` and
    ``(1, 0)`` entries of its variable map).  :attr:`adj` lists ``(node,
    orbit, crossing)`` per copy, where ``crossing`` says the step switches
    layers; it is built on the first ground search.

    ``sources`` holds one ground node per node orbit that touches a binary
    edge, the orbit's lowest id, in ascending order.  It is empty when the
    binary subgraph is a forest.  There every closed walk with an odd number
    of crossings crosses some edge and also steps along it without crossing,
    at cost ``lam + (1 - lam) = 1``, so no cycle inequality can be violated.
    The subgraph is a forest when its edges number its nodes minus its
    ground components, all three read off the orbits that touch a binary
    edge (:func:`~liftedtrw.symmetry.count_components`).
    ``quotients`` caches :func:`_quotient` per constant set.
    """

    pairs: np.ndarray
    pair_orbit: np.ndarray
    edge_orbits: list
    orbit_vars: np.ndarray
    sources: list
    quotients: dict = field(default_factory=dict)

    @functools.cached_property
    def adj(self):
        return _layered_adj(int(self.pairs.max()) + 1,
                            ((u, v, o) for (u, v), o in zip(self.pairs.tolist(),
                                                            self.pair_orbit.tolist())))


def _layered_adj(n, edges):
    """Two-layer adjacency over nodes ``0..n-1`` for ``(u, v, weight index)``
    edges: per copy its ``(copy, weight index, crossing)`` steps, each edge
    giving a step within each layer and one across, in both directions."""
    adj = [[] for _ in range(2 * n)]
    for u, v, j in edges:
        for a, b in ((u, v), (v, u)):
            adj[2 * a].append((2 * b, j, False))
            adj[2 * a + 1].append((2 * b + 1, j, False))
            adj[2 * a].append((2 * b + 1, j, True))
            adj[2 * a + 1].append((2 * b, j, True))
    return adj


def _mirror_graph(lg):
    """The mirror graph of ``lg``, built on first use and cached on ``lg``."""
    mg = getattr(lg, "_mirror", None)
    if mg is not None:
        return mg
    model = lg.model
    binary = model.node_table.is_kind("atom") & (model.n_values == 2)
    ks = np.flatnonzero(binary[model.edges].all(axis=1))
    pairs = model.edges[ks]
    ends = np.flatnonzero(np.bincount(pairs.ravel(), minlength=model.n_nodes))
    node_orbits, _, _, lowest = _group(lg.node_orbit_of[ends], len(lg.node_orbits))
    orbits, pair_orbit, _, _ = _group(lg.edge_orbit_of[ks], len(lg.edge_orbits))
    orbits = orbits.tolist()
    n_binary = sum(lg.node_orbits[o].size for o in node_orbits.tolist())
    forest = len(ks) == n_binary - count_components(lg, node_orbits.tolist(), orbits)
    orbit_vars = np.array([(lg.edge_var_map[o][0, 1], lg.edge_var_map[o][1, 0])
                           for o in orbits], dtype=np.int64).reshape(-1, 2)
    lg._mirror = _MirrorGraph(pairs, pair_orbit, orbits, orbit_vars,
                              [] if forest else np.sort(ends[lowest]).tolist())
    return lg._mirror


def _quotient(lg, mg, s):
    """The mirror graph quotiented by the pinned classes of source ``s``.

    The classes are :func:`~liftedtrw.symmetry._pinned_tables`' with the
    constants of ``s`` fixed; class ``c`` has copies ``2c`` and ``2c + 1``,
    joined as ground copies are for each distinct class pair of a binary
    edge orbit, with that orbit's index in ``edge_orbits`` as the weight
    index, as in the ground adjacency.
    Returns the adjacency and the class of ``s``, or None when every class
    is one ground node (the identity lifting): the quotient is then no
    smaller than the ground graph.
    """
    consts = frozenset(lg.model.node_table.consts_of(s))
    if consts not in mg.quotients:
        n_classes, class_of, _, edge_table = _pinned_tables(lg, consts)
        adj = None
        if n_classes < lg.model.n_nodes:
            adj = _layered_adj(n_classes, ((cu, cv, o) for o, eid in enumerate(mg.edge_orbits)
                                           for cu, cv in edge_table[eid]))
        mg.quotients[consts] = adj, class_of
    adj, class_of = mg.quotients[consts]
    return None if adj is None else (adj, int(class_of[s]))


def separate_cycles(lg, tau, stats=None):
    """The most violated lifted cycle inequalities at ``tau``.

    Runs shortest-path separation on the ground graph: a two-layer mirror
    graph where staying in a layer costs the edge disagreement probability and
    switching layers costs one minus it.  ``tau`` is constant on orbits, so
    the weights are computed once per binary edge orbit, and every step of
    a path is labelled by its edge orbit.  A path from a node's copy in
    layer 0 to its copy in layer 1 shorter than 1 yields a violated
    inequality in orbit variables, read off the search's parent chain by
    adding +1 (crossing) or -1 to its step's orbit pair.  The ``CUT_BATCH``
    most violated distinct rows are returned, the most violated first, each
    violated at ``tau`` by more than ``CYCLE_VIOLATION_TOL``, and added
    nowhere: the caller's LP is their only holder.  A ``tau`` that is not
    1-D with ``lg.n_vars`` or more entries, all finite, raises ``ValueError``.

    Since ``tau`` is constant on orbits, an automorphism maps a violated
    cycle through any member of a node orbit onto one of the same length
    through the orbit's source, and a row's projection onto orbit variables
    is invariant under it.  So one search per node orbit suffices: a call
    returns rows exactly when a search from every ground node would, so a
    call without rows certifies the same relaxation.  The rows themselves
    may differ where the other members' searches would break ties along
    other shortest paths.

    Before each ground search the same search runs on the :func:`_quotient`
    of the mirror graph for its source, and the ground search is skipped
    when that finds no path below the cutoff (plus ``QUOTIENT_MARGIN`` for
    the order of summation).  Every ground path maps step by step onto a
    quotient path of the same length, so the quotient distance is a lower
    bound for any node partition and the skip never loses a row.  For
    models whose symmetry is the renaming group the classes are the
    stabilizer orbits of the source, every quotient path lifts back to a
    ground path from the source, and the two distances are equal: every
    ground search that would find nothing is skipped.  The rows still come
    from the ground searches alone.  ``stats``, when given, counts the
    ground searches run (``cycle_searches``) and skipped (``cycle_pruned``).
    """
    tau = np.asarray(tau)
    if tau.ndim != 1 or tau.size < lg.n_vars or not np.isfinite(tau).all():
        raise ValueError(f"tau has shape {tau.shape}; need {lg.n_vars} or more "
                         "entries, all finite")
    mg = _mirror_graph(lg)
    if not mg.sources:
        return []
    lam = np.clip(tau[mg.orbit_vars[:, 0]] + tau[mg.orbit_vars[:, 1]], 0.0, 1.0)
    weight = (lam.tolist(), (1.0 - lam).tolist())
    orbit_vars = mg.orbit_vars.tolist()

    cutoff = 1.0 - CYCLE_VIOLATION_TOL
    found = []
    seen = set()
    searches = pruned = 0
    for s in mg.sources:
        quotient = _quotient(lg, mg, s)
        if quotient is not None:
            qadj, qs = quotient
            if _dijkstra(qadj, weight, 2 * qs, 2 * qs + 1, cutoff + QUOTIENT_MARGIN)[0] is None:
                pruned += 1
                continue
        searches += 1
        dist, parent = _dijkstra(mg.adj, weight, 2 * s, 2 * s + 1, cutoff)
        if dist is None:
            continue
        coeffs = {}
        n_cross = 0
        cur = 2 * s + 1
        while cur != 2 * s:
            cur, o, crossing = parent[cur]
            sign = 1.0 if crossing else -1.0
            n_cross += crossing
            for var in orbit_vars[o]:
                coeffs[var] = coeffs.get(var, 0.0) + sign
        row = Row.make(coeffs, "<=", n_cross - 1)
        if row in seen:
            continue
        violation = sum(c * tau[j] for j, c in row.coeffs) - row.rhs
        if violation <= CYCLE_VIOLATION_TOL:
            continue
        seen.add(row)
        found.append((violation, row))
    if stats is not None:
        stats["cycle_searches"] += searches
        stats["cycle_pruned"] += pruned

    found.sort(key=lambda t: -t[0])
    return [row for _violation, row in found[:CUT_BATCH]]


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


# ---------------------------------------------------------------------------
# Assembled outer systems
# ---------------------------------------------------------------------------

OUTER_CHOICES = ("local", "cycle", "local+exch", "cycle+exch")


@dataclass
class OuterSystem:
    """The starting rows of one outer bound, the local rows and for ``+exch``
    the cluster rows, plus metadata.  A solve adds cycle rows to its LP alone."""

    lg: object
    outer: str
    n_vars: int
    rows: list[Row]
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
        for vmap in lg.edge_var_map:
            zero = lg.structural_zero_var[vmap]
            if zero.any():  # hard consistency: uniform over the larger endpoint's values
                x[vmap] = np.where(zero, 0.0, 1.0 / max(vmap.shape))
            else:
                x[vmap] = 1.0 / vmap.size
        for cl in self.clusters:
            # an int / int quotient is correctly rounded and never overflows
            n = cl.size
            x[cl.c_offset:cl.c_offset + n + 1] = [math.comb(n, k) / (1 << n)
                                                  for k in range(n + 1)]
        return x


def crash_basis(lg, rows):
    """A feasible starting basis for a pure local system, or None.

    Encodes the vertex of the all-zeros assignment: per node orbit the
    value-0 variable, per edge orbit the first row and first column of the
    value grid.  The simplex takes it at construction and extends it with
    the start codes of rows added later, so it also serves a system that
    gains cuts before its first solve.  None when ``rows`` are more than the
    local rows or a structural zero is present (auxiliary-node systems start
    from phase 1).
    """
    if lg.structural_zero_var.any():
        return None
    cols = []
    for orb in lg.node_orbits:
        cols.append(lg.node_var(orb.id, 0))
    for eo in lg.edge_orbits:
        nu = lg.node_orbits[eo.u_orbit].n_values
        nv = lg.node_orbits[eo.v_orbit].n_values
        block = {lg.edge_var(eo.id, 0, h) for h in range(nv)}
        block |= {lg.edge_var(eo.id, t, 0) for t in range(1, nu)}
        cols.extend(sorted(block))
    if len(cols) != len(rows) or len(set(cols)) != len(cols):
        return None
    return cols


def build_outer_system(lg, outer):
    """Assemble the starting rows for one of the four outer bounds.

    The local rows are built on first use and cached on ``lg``; each system
    gets its own list of them, so a row appended to one never reaches another.
    """
    if outer not in OUTER_CHOICES:
        raise ValueError(f"outer must be one of {OUTER_CHOICES}, got {outer!r}")
    local = getattr(lg, "_local", None)
    if local is None:
        local = lg._local = lifted_local(lg)
    rows = list(local)
    n_vars = lg.n_vars
    clusters = []
    if outer.endswith("+exch"):
        for cl in detect_exchangeable_clusters(lg):
            cl_rows, n = exchangeable_constraints(lg, cl.node_orbit, n_vars)
            clusters.append(Cluster(cl.node_orbit, cl.edge_orbit, cl.size, n_vars))
            n_vars += n + 1
            rows += cl_rows
    fixed_zero = np.concatenate(
        [lg.structural_zero_var, np.zeros(n_vars - lg.n_vars, dtype=bool)])
    return OuterSystem(
        lg=lg,
        outer=outer,
        n_vars=n_vars,
        rows=rows,
        fixed_zero=fixed_zero,
        clusters=clusters,
        use_cycles=outer.startswith("cycle"),
        start_basis=None if clusters else crash_basis(lg, rows),
    )

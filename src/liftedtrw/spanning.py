"""Lifted maximum spanning tree and edge-appearance optimization.

Kruskal's algorithm is simulated at the orbit level: edge orbits are scanned
in decreasing weight order and the number of tree edges contributed by each
orbit is the change in ground node count minus the change in ground component
count, which :func:`count_components` gives for the orbits scanned so far.
Ground components are counted without touching the ground union-find: within
a connected sub-lifted-graph all ground components are isomorphic, so one
component's size is read off the orbit structure after pinning a single
representative node, and the count is total nodes over component size.
"""

from __future__ import annotations

import numpy as np

from .symmetry import _pinned_tables, _UnionFind
from .trw import _xlogx, frank_wolfe

UNIFORM_TOL = 1e-8       # duality gap at which init_rho_uniform stops
PROJECT_MAX_ITERS = 500  # conditional-gradient steps of one projection


class DisconnectedGraph(Exception):
    """The ground graph has no spanning tree."""


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

    Memoized on ``lg`` by the two orbit sets.
    """
    key = (frozenset(node_orbit_ids), frozenset(edge_orbit_ids))
    memo = lg.__dict__.setdefault("_component_counts", {})
    if key not in memo:
        u0 = lg.node_orbits[min(key[0])].rep
        comp = _pinned_component_size(lg, key[0], key[1], u0)
        total = sum(lg.node_orbits[oid].size for oid in key[0])
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


def _per_orbit(lg, values, name):
    """``values`` as floats; ``ValueError`` unless one finite entry per edge orbit."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(lg.edge_orbits),):
        raise ValueError(f"{name} has shape {values.shape}, need one entry per "
                         f"edge orbit ({len(lg.edge_orbits)})")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} has a non-finite entry")
    return values


def _sizes(lg):
    """Ground edge count ``|e|`` per edge orbit."""
    return np.array([eo.size for eo in lg.edge_orbits], dtype=float)


def lifted_kruskal(lg, weights):
    """Edge appearances of a maximum-weight spanning tree, per edge orbit.

    ``weights`` is one weight per edge orbit.  Returns ``rho`` with
    ``rho[e] = (tree edges taken from orbit e) / |e|``; the weighted size
    ``sum_e |e| rho_e w_e`` equals the ground maximum spanning tree weight.
    Raises :class:`DisconnectedGraph` when no spanning tree exists, and
    ``ValueError`` unless ``weights`` holds one finite weight per edge orbit.
    The tree depends on the weights only through their order, so it is
    memoized on ``lg`` by that order.
    """
    weights = _per_orbit(lg, weights, "weights")
    total_gv = lg.model.n_nodes
    rho = np.zeros(len(lg.edge_orbits))
    if len(lg.edge_orbits) == 0:
        if total_gv <= 1:
            return rho
        raise DisconnectedGraph("graph has nodes but no edges")

    order = tuple(sorted(range(len(lg.edge_orbits)), key=lambda e: (-weights[e], e)))
    memo = lg.__dict__.setdefault("_kruskal_trees", {})
    if order in memo:
        return memo[order].copy()
    nodes, edges = set(), []
    num_gv = 0
    num_gc = 0
    for eid in order:
        eo = lg.edge_orbits[eid]
        new_orbits = {eo.u_orbit, eo.v_orbit} - nodes
        delta_v = sum(lg.node_orbits[o].size for o in new_orbits)
        num_gv += delta_v
        nodes |= new_orbits
        edges.append(eid)
        n_comps = count_components(lg, nodes, edges)
        rho[eid] = (delta_v - (n_comps - num_gc)) / eo.size
        num_gc = n_comps
        if num_gv == total_gv and num_gc == 1:
            break

    if num_gv < total_gv or num_gc != 1:
        raise DisconnectedGraph(
            f"{total_gv - num_gv} ground nodes unreachable, "
            f"{num_gc} ground components remain")
    memo[order] = rho
    return rho.copy()


def lifted_mst_value(lg, weights, rho):
    """Spanning-tree weight in the lifted inner product; ``ValueError`` unless
    ``weights`` and ``rho`` each hold one finite entry per edge orbit."""
    return float(np.sum(_sizes(lg) * _per_orbit(lg, rho, "rho")
                        * _per_orbit(lg, weights, "weights")))


def tree_edge_total(lg, rho):
    """``sum_e |e| rho_e`` (equals |V| - 1 for spanning-tree points);
    ``ValueError`` unless ``rho`` holds one finite entry per edge orbit."""
    return float(np.sum(_sizes(lg) * _per_orbit(lg, rho, "rho")))


def _project(lg, target, rho, tol):
    """The ``|e|``-weighted nearest point of the spanning-tree polytope to ``target``.

    Minimizes ``sum_e |e| (rho_e - target_e)^2`` by conditional gradient
    started from the polytope point ``rho``: each step runs
    :func:`lifted_kruskal` with weights ``-2 (rho_e - target_e)``, stops once
    the duality gap is at most ``tol``, and takes the exact quadratic line
    search.  ``target`` holds one entry per edge orbit.
    """
    sizes = _sizes(lg)
    for _ in range(PROJECT_MAX_ITERS):
        d = lifted_kruskal(lg, -2.0 * (rho - target))
        gap = float(np.sum(sizes * 2.0 * (rho - target) * (rho - d)))
        if gap <= tol:
            break
        diff = d - rho
        denom = float(np.sum(sizes * diff * diff))
        if denom <= 0:
            break
        lam = min(max(-float(np.sum(sizes * (rho - target) * diff)) / denom, 0.0), 1.0)
        if lam == 0.0:
            break
        rho = rho + lam * diff
    return np.clip(rho, 0.0, 1.0)


def init_rho_uniform(lg):
    """Most-uniform point of the symmetrized spanning tree polytope.

    The :func:`_project` of the uniform vector ``(|V|-1)/|E|``, to a duality
    gap of ``UNIFORM_TOL``, from the spanning tree under unit weights.
    """
    ones = np.ones(len(lg.edge_orbits))
    rho = lifted_kruskal(lg, ones)   # raises DisconnectedGraph without a spanning tree
    # a graph without edges has one node at most and no orbit to aim at
    return _project(lg, ones * ((lg.model.n_nodes - 1) / max(len(lg.model.edges), 1)),
                    rho, UNIFORM_TOL)


def orbit_entropies(lg, tau):
    """Per node-orbit and per edge-orbit entropies of a lifted vector.

    An edge orbit's entropy is its representative pair's, so a merged
    off-diagonal variable counts ``var_mult`` times; entries at or below 0
    add nothing.
    """
    h = -lg.var_mult * _xlogx(np.maximum(np.asarray(tau, dtype=float)[:lg.n_vars], 0.0))
    k = lg.n_node_vars
    return (np.bincount(lg.var_orbit[:k], h[:k], minlength=len(lg.node_orbits)),
            np.bincount(lg.var_orbit[k:], h[k:], minlength=len(lg.edge_orbits)))


def optimize_rho(lg, outer, rho0, outer_iters=10, tol=1e-4, **fw_kwargs):
    """Improve the edge appearances by projected gradient steps on the bound.

    The bound is convex in rho with gradient ``-|e| I_e``, ``I_e`` the mutual
    information of edge orbit ``e`` at the solve's ``tau``.  A step tries the
    :func:`_project` of ``rho + s I`` (to a gap of ``tol``, from ``rho``),
    halves ``s`` until the bound does not rise, and doubles ``s`` once
    accepted.  It stops when the Kruskal tree ``d`` under ``I`` gains
    ``sum_e |e| I_e (d_e - rho_e)``, which bounds any further decrease, at
    most ``tol``, or when a step is too short to move ``rho``.  Returns ``rho``
    and the solve at it.
    """
    rho = np.asarray(rho0, dtype=float)
    sizes = _sizes(lg)
    ends = np.array([(eo.u_orbit, eo.v_orbit) for eo in lg.edge_orbits], dtype=int).reshape(-1, 2)
    res = frank_wolfe(lg, outer=outer, rho=rho, tol=tol, **fw_kwargs)
    step = 1.0
    for _ in range(outer_iters):
        node_h, edge_h = orbit_entropies(lg, res.tau)
        mi = node_h[ends[:, 0]] + node_h[ends[:, 1]] - edge_h
        if float(sizes @ (mi * (lifted_kruskal(lg, mi) - rho))) <= tol:
            break
        while True:
            cand = _project(lg, rho + step * mi, rho, tol)
            if np.array_equal(cand, rho):
                return rho, res
            cand_res = frank_wolfe(lg, outer=outer, rho=cand, tol=tol, **fw_kwargs)
            if cand_res.bound <= res.bound:
                break
            step /= 2.0
        rho, res = cand, cand_res
        step *= 2.0
    return rho, res

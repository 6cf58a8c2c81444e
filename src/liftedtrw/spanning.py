"""Lifted maximum spanning tree and edge-appearance optimization.

Kruskal's algorithm is simulated at the orbit level: edge orbits are scanned
in decreasing weight order and the number of tree edges contributed by each
orbit is the change in ground node count minus the change in ground component
count, which :func:`~liftedtrw.symmetry.count_components` gives for the
orbits scanned so far, without touching the ground union-find.
"""

from __future__ import annotations

import numpy as np

from .symmetry import count_components
from .trw import _xlogx, frank_wolfe

UNIFORM_TOL = 1e-8       # duality gap at which init_rho_uniform stops
PROJECT_MAX_ITERS = 500  # conditional-gradient steps of one projection


class DisconnectedGraph(Exception):
    """The ground graph has no spanning tree."""


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
    memoized on ``lg`` by that order, and looked up before anything else is
    built.  Orders that share a prefix share its ground component count:
    the counts are memoized on ``lg`` by the prefix's edge orbit set, whose
    endpoints are its node orbit set.
    """
    weights = _per_orbit(lg, weights, "weights").tolist()
    total_gv = lg.model.n_nodes
    if not weights:
        if total_gv <= 1:
            return np.zeros(0)
        raise DisconnectedGraph("graph has nodes but no edges")

    order = tuple(sorted(range(len(weights)), key=lambda e: (-weights[e], e)))
    memo = lg.__dict__.setdefault("_kruskal_trees", {})
    if order in memo:
        return memo[order].copy()
    prefix_counts = lg.__dict__.setdefault("_prefix_components", {})
    rho = np.zeros(len(weights))
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
        key = frozenset(edges)
        n_comps = prefix_counts.get(key)
        if n_comps is None:
            n_comps = prefix_counts[key] = count_components(lg, nodes, edges)
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
    twice = sizes * 2.0
    for _ in range(PROJECT_MAX_ITERS):
        offset = rho - target
        d = lifted_kruskal(lg, -2.0 * offset)
        gap = float(np.sum(twice * offset * (rho - d)))
        if gap <= tol:
            break
        diff = d - rho
        denom = float(np.sum(sizes * diff * diff))
        if denom <= 0:
            break
        lam = min(max(-float(np.sum(sizes * offset * diff)) / denom, 0.0), 1.0)
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

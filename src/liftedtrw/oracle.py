"""Exact and ground-level reference computations.

Everything here works on the ground model directly and is deliberately
independent of the orbit-level algorithms, so it can serve as a cross-check:
brute-force enumeration, the closed-form count-class summation for the
complete-graph model, ground TRW via the identity lifting, a plain ground
Kruskal, and exchangeable-distribution generators for property tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symmetry import trivial_lifting
from .trw import frank_wolfe

CHUNK = 1 << 14


class TooLarge(Exception):
    pass


@dataclass
class ExactResult:
    log_z: float
    node_marginals: list
    edge_moments: list
    ground_moments: np.ndarray
    lifted_moments: np.ndarray | None = None


def _state_values(g, states):
    """Per-node value arrays for a batch of atom-state indices."""
    atoms = g.atom_node_ids
    bits = [(states >> p) & 1 for p in range(len(atoms))]
    values = [None] * len(g.nodes)
    for p, i in enumerate(atoms):
        values[i] = bits[p]
    for aux_id, (a0, a1, a2) in g.aux_atoms.items():
        values[aux_id] = values[a0] | (values[a1] << 1) | (values[a2] << 2)
    return values


def _scores(g, values):
    score = np.zeros(values[0].shape[0] if len(values) else 0)
    for i, th in enumerate(g.theta_node):
        score = score + th[values[i]]
    for k, (u, v) in enumerate(g.edges.tolist()):
        score = score + g.theta_edge[k][values[u], values[v]]
    return score


def brute_force(g, lg=None, max_states=1 << 24):
    """Exact log-partition function and moments by enumeration.

    Enumerates atom-node assignments only; auxiliary nodes take their unique
    consistent value (inconsistent completions score ``-inf`` and contribute
    nothing).  Raises :class:`TooLarge` beyond ``max_states`` states.
    """
    atoms = g.atom_node_ids
    n_states = 1 << len(atoms)
    if n_states > max_states:
        raise TooLarge(f"{n_states} states exceed the {max_states} cap")
    if not g.nodes:
        return ExactResult(0.0, [], [], np.zeros(0),
                           np.zeros(0) if lg is None else lg.project(np.zeros(0)))

    best = -np.inf
    for lo in range(0, n_states, CHUNK):
        states = np.arange(lo, min(lo + CHUNK, n_states))
        values = _state_values(g, states)
        best = max(best, float(_scores(g, values).max()))

    total = 0.0
    for lo in range(0, n_states, CHUNK):
        states = np.arange(lo, min(lo + CHUNK, n_states))
        values = _state_values(g, states)
        total += float(np.exp(_scores(g, values) - best).sum())
    log_z = best + math.log(total)

    node_marg = [np.zeros(nd.n_values) for nd in g.nodes]
    edges = g.edges.tolist()
    edge_mom = [np.zeros((g.nodes[u].n_values, g.nodes[v].n_values)) for u, v in edges]
    for lo in range(0, n_states, CHUNK):
        states = np.arange(lo, min(lo + CHUNK, n_states))
        values = _state_values(g, states)
        p = np.exp(_scores(g, values) - log_z)
        for i, nd in enumerate(g.nodes):
            node_marg[i] += np.bincount(values[i], weights=p, minlength=nd.n_values)
        for k, (u, v) in enumerate(edges):
            flat = values[u] * g.nodes[v].n_values + values[v]
            edge_mom[k] += np.bincount(flat, weights=p, minlength=edge_mom[k].size
                                       ).reshape(edge_mom[k].shape)

    mu = np.zeros(g.n_features)
    node_start, edge_start, _ = g.feature_layout()
    for i, m in enumerate(node_marg):
        mu[node_start[i]:node_start[i] + m.size] = m
    for k, m in enumerate(edge_mom):
        mu[edge_start[k]:edge_start[k] + m.size] = m.ravel()

    return ExactResult(
        log_z=log_z,
        node_marginals=node_marg,
        edge_moments=edge_mom,
        ground_moments=mu,
        lifted_moments=None if lg is None else lg.project(mu),
    )


def _logsumexp(v):
    v = np.asarray(v, dtype=float)
    m = v.max()
    return float(m + np.log(np.exp(v - m).sum()))


def counting_elimination_complete(n, w_unary, w_edge=-0.1):
    """Closed-form log-partition and marginal for the complete-graph model.

    Sums over count classes: ``log sum_k C(n,k) exp(w_unary k +
    w_edge (k(k-1) + (n-k)(n-k-1)))``; the marginal of any node being 1 is the
    expectation of ``k/n`` under the class weights.
    """
    k = np.arange(n + 1, dtype=float)
    log_c = np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                      for i in range(n + 1)])
    t = log_c + w_unary * k + w_edge * (k * (k - 1) + (n - k) * (n - k - 1))
    log_z = _logsumexp(t)
    marginal = float(np.exp(t - log_z) @ (k / n))
    return log_z, marginal


def ground_trw(g, rho_ground, outer="local", **fw_kwargs):
    """TRW on the ground model via the identity lifting.

    ``rho_ground`` holds one edge appearance per ground edge, in edge order.
    """
    lg0 = trivial_lifting(g)
    return frank_wolfe(lg0, outer=outer, rho=np.asarray(rho_ground, dtype=float),
                       **fw_kwargs)


def ground_kruskal(g, weights_per_edge):
    """Plain maximum spanning tree on the ground graph.

    Returns ``(total weight, selected edge ids)``; raises ``ValueError``
    when the graph is disconnected.
    """
    weights = np.asarray(weights_per_edge, dtype=float)
    parent = list(range(len(g.nodes)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = g.edges.tolist()
    order = sorted(range(len(edges)), key=lambda k: (-weights[k], k))
    chosen = []
    total = 0.0
    for k in order:
        u, v = edges[k]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
            chosen.append(k)
            total += weights[k]
    roots = {find(i) for i in range(len(g.nodes))}
    if len(roots) > 1:
        raise ValueError("ground graph is disconnected")
    return total, chosen


def random_tree_point(g, rng, n_trees=8):
    """A point of the ground spanning tree polytope: an average of trees."""
    rho = np.zeros(len(g.edges))
    for _ in range(n_trees):
        _, chosen = ground_kruskal(g, rng.random(len(g.edges)))
        rho[chosen] += 1.0 / n_trees
    return rho


def random_exchangeable_moments(n, seed):
    """Exact lifted pairwise moments of a random symmetrized distribution.

    Draws a random positive distribution over ``{0,1}**n``, symmetrizes it by
    averaging over all ordered node pairs, and returns the pairwise moments
    ``{'e00', 'e11', 'a01'}``, the count distribution ``c_k``, and the
    single-node marginal of a 1.
    """
    if n > 12:
        raise TooLarge("exchangeable generator supports n <= 12")
    rng = np.random.default_rng(seed)
    p = rng.random(1 << n) + 1e-3
    p /= p.sum()
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    counts = bits.sum(axis=1)
    c = np.bincount(counts, weights=p, minlength=n + 1)

    m00 = m11 = m01 = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            bi, bj = bits[:, i], bits[:, j]
            m00 += float(p @ ((1 - bi) * (1 - bj)))
            m11 += float(p @ (bi * bj))
            m01 += float(p @ ((1 - bi) * bj))
    denom = n * (n - 1)
    moments = {"e00": m00 / denom, "e11": m11 / denom, "a01": m01 / denom}
    marginal1 = float(p @ counts) / n
    return moments, c, marginal1

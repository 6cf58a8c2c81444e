"""Shared fixtures and independent reference helpers for the test suite.

The helpers here deliberately avoid the code paths they are used to check:
formula scoring walks the templated model directly, feasibility checks
enumerate ground constraints explicitly, and spanning-tree references use
plain union-find on the ground graph.
"""

import itertools

import numpy as np
import pytest

import liftedtrw as lt


# ---------------------------------------------------------------------------
# model fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def ring_model():
    return lt.zoo.ring_pendant_model(scale=1.0)


@pytest.fixture(scope="session")
def ring_lifted(ring_model):
    return lt.compute_orbits(ring_model)


def build(name, n, w=None):
    return lt.zoo.build_model(name, n, w_value=w)


# ---------------------------------------------------------------------------
# independent MLN-semantics evaluator
# ---------------------------------------------------------------------------

def formula_score(model, n, atom_values):
    """Weighted count of satisfied formula groundings, straight from the template.

    ``atom_values`` maps (pred, args) -> 0/1.  Groundings whose atoms never
    appear in the map contribute via the values found there; the caller must
    supply every atom of every grounding.
    """
    total = 0.0
    for f in model.formulas:
        w = f.weight.resolve()
        for combo in itertools.product(range(n), repeat=len(f.variables)):
            binding = dict(zip(f.variables, combo))
            if any(binding[a] == binding[b] for a, b in (tuple(g) for g in f.guards)):
                continue
            idx = 0
            for i, atom in enumerate(f.atoms):
                val = atom_values[(atom.pred, tuple(binding[v] for v in atom.args))]
                idx |= int(val) << i
            if f.table[idx]:
                total += w
    return total


def atom_assignment(g, state):
    """Dict view of an atom-node assignment for formula_score."""
    out = {}
    for i, nd in enumerate(g.nodes):
        if nd.kind == "atom":
            out[(nd.label, nd.consts)] = state[i]
    return out


# ---------------------------------------------------------------------------
# ground-level reference machinery
# ---------------------------------------------------------------------------

def ground_local_feasible(g, mu, tol=1e-7):
    """Explicit check of the ground local-polytope constraints."""
    mu = np.asarray(mu)
    if (mu < -tol).any():
        return False
    for i, nd in enumerate(g.nodes):
        total = sum(mu[g.node_feature(i, t)] for t in range(nd.n_values))
        if abs(total - 1.0) > tol:
            return False
    for k, (u, v) in enumerate(g.edges.tolist()):
        nu, nv = g.nodes[u].n_values, g.nodes[v].n_values
        for t in range(nu):
            lhs = sum(mu[g.edge_feature(k, t, h)] for h in range(nv))
            if abs(lhs - mu[g.node_feature(u, t)]) > tol:
                return False
        for h in range(nv):
            lhs = sum(mu[g.edge_feature(k, t, h)] for t in range(nu))
            if abs(lhs - mu[g.node_feature(v, h)]) > tol:
                return False
    return True


def ground_entropy_bound(g, mu, rho_ground):
    """Ground entropy combination evaluated coordinate by coordinate."""
    mu = np.asarray(mu)

    def ent(vals):
        vals = np.asarray(vals)
        vals = vals[vals > 0]
        return -float(np.sum(vals * np.log(vals)))

    total = 0.0
    rho_at = np.zeros(len(g.nodes))
    for k, (u, v) in enumerate(g.edges.tolist()):
        rho_at[u] += rho_ground[k]
        rho_at[v] += rho_ground[k]
    for i, nd in enumerate(g.nodes):
        h = ent([mu[g.node_feature(i, t)] for t in range(nd.n_values)])
        total -= (1.0 - rho_at[i]) * h
    for k, (u, v) in enumerate(g.edges.tolist()):
        nu, nv = g.nodes[u].n_values, g.nodes[v].n_values
        h = ent([mu[g.edge_feature(k, t, hh)] for t in range(nu) for hh in range(nv)])
        total -= rho_ground[k] * h
    return total


def symmetrized_random_moments(g, lg, seed):
    """Exact lifted moments of a randomly-drawn, then symmetrized, distribution."""
    rng = np.random.default_rng(seed)
    atoms = g.atom_node_ids
    scores = rng.normal(size=1 << len(atoms))
    logz = np.log(np.exp(scores - scores.max()).sum()) + scores.max()
    p = np.exp(scores - logz)
    mu = np.zeros(g.n_features)
    for idx in range(1 << len(atoms)):
        state = [0] * len(g.nodes)
        for pos, i in enumerate(atoms):
            state[i] = (idx >> pos) & 1
        for aux in g.aux_atoms:
            state[aux] = g.consistent_aux_value(aux, state)
        for i in range(len(g.nodes)):
            mu[g.node_feature(i, state[i])] += p[idx]
        for k, (u, v) in enumerate(g.edges.tolist()):
            mu[g.edge_feature(k, state[u], state[v])] += p[idx]
    # orbit-averaging is exactly the symmetrization of the distribution
    return lg.project(mu)


def subtour_violations(g, rho_ground, tol=1e-7):
    """Spanning-tree polytope membership by explicit subtour enumeration."""
    n = len(g.nodes)
    total = sum(rho_ground)
    bad = []
    if abs(total - (n - 1)) > tol:
        bad.append(("total", total))
    for size in range(2, n + 1):
        for subset in itertools.combinations(range(n), size):
            inside = set(subset)
            acc = sum(r for (u, v), r in zip(g.edges.tolist(), rho_ground)
                      if u in inside and v in inside)
            if acc > size - 1 + tol:
                bad.append((subset, acc))
    return bad


def ground_components(g, edge_ids):
    """Union-find component count of a ground edge subset."""
    parent = list(range(len(g.nodes)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k in edge_ids:
        u, v = g.edges[k]
        ra, rb = find(u), find(v)
        if ra != rb:
            parent[rb] = ra
    return len({find(i) for i in range(len(g.nodes))})


def expand_rho(lg, rho):
    return np.array([rho[lg.edge_orbit_of[k]] for k in range(len(lg.model.edges))])

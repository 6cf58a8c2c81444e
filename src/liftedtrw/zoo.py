"""Bundled test models.

Three templated models (the CLI accepts their names for ``--model``) and one
hand-built ground model: a five-node ring with chords and pendant nodes whose
symmetry group is the dihedral group of the ring, used throughout the tests
because its lifted graph has a node orbit with zero entropy coefficient, a
non-flip edge orbit, and two flip-symmetric self-loop orbits.
"""

from __future__ import annotations

import numpy as np

from .model import GroundModelBuilder, ground, parse_model

COMPLETE_GRAPH = """\
// Ising-like model on the complete graph over the domain.
predicate V/1
W V(x)
-0.1 [x != y ^ (V(x) <-> V(y))]
"""

FRIENDS_SMOKERS = """\
// Friends-and-smokers with a repulsive influence clause.
predicate Smokes/1
predicate Cancer/1
predicate Friends/2
W [x != y ^ !Friends(x,y)]
1.4 !Smokes(x)
2.3 !Cancer(x)
1.5 Smokes(x) -> Cancer(x)
-1.1 [x != y ^ (Smokes(x) ^ Friends(x,y) -> Smokes(y))]
"""

CLIQUE_CYCLE = """\
// Three attractive cliques joined by repulsive bipartite interactions.
predicate Q1/1
predicate Q2/1
predicate Q3/1
W [x != y ^ (Q1(x) <-> !Q2(y))]
W [x != y ^ (Q2(x) <-> !Q3(y))]
W [x != y ^ (Q3(x) <-> !Q1(y))]
-W [x != y ^ (Q1(x) <-> Q1(y))]
-W [x != y ^ (Q2(x) <-> Q2(y))]
-W [x != y ^ (Q3(x) <-> Q3(y))]
"""

MODEL_TEXTS = {
    "complete_graph": COMPLETE_GRAPH,
    "friends_smokers": FRIENDS_SMOKERS,
    "clique_cycle": CLIQUE_CYCLE,
}


HAND_BUILT = {"ring_pendant"}


def model_text(name):
    if name in MODEL_TEXTS:
        return MODEL_TEXTS[name]
    raise KeyError(f"unknown bundled model {name!r}; have {sorted(MODEL_TEXTS)}")


def build_hand_built(name, scale=1.0):
    """Construct a bundled hand-built ground model by name."""
    if name == "ring_pendant":
        return ring_pendant_model(scale=scale)
    raise KeyError(f"unknown hand-built model {name!r}; have {sorted(HAND_BUILT)}")


def build_model(name, n, w_value=None):
    """Parse, bind, and ground a bundled model."""
    tm = parse_model(model_text(name))
    if tm.has_symbolic_weight:
        tm = tm.bind_weight(w_value)
    return ground(tm, n)


def ring_pendant_model(scale=1.0, theta_core=None, theta_pendant=None,
                       theta_stem=None, theta_ring=None, theta_chord=None):
    """Hand-built ground model: a 5-ring with chords and pendants.

    Core nodes sit on a 5-cycle with ``ring`` edges between neighbours and
    ``chord`` edges between next-nearest neighbours; each core node has one
    pendant attached by a ``stem`` edge.  Parameters are tied per edge color;
    ring and chord matrices must be symmetric because reversing those edges is
    a graph symmetry.
    """
    s = float(scale)
    theta_core = [0.0, s] if theta_core is None else theta_core
    theta_pendant = [0.0, -0.5 * s] if theta_pendant is None else theta_pendant
    theta_stem = ([[0.4 * s, -0.2 * s], [-0.3 * s, 0.1 * s]]
                  if theta_stem is None else theta_stem)
    theta_ring = ([[0.3 * s, -0.25 * s], [-0.25 * s, 0.2 * s]]
                  if theta_ring is None else theta_ring)
    theta_chord = ([[-0.15 * s, 0.05 * s], [0.05 * s, 0.35 * s]]
                   if theta_chord is None else theta_chord)
    for name, mat in (("ring", theta_ring), ("chord", theta_chord)):
        mat = np.asarray(mat)
        if not np.allclose(mat, mat.T):
            raise ValueError(f"theta_{name} must be symmetric")

    b = GroundModelBuilder(range(5))
    core = [b.add_node("atom", "B", (i,), 2) for i in range(5)]
    pend = [b.add_node("atom", "R", (i,), 2) for i in range(5)]
    for i in range(5):
        b.add_node_theta(core[i], theta_core)
        b.add_node_theta(pend[i], theta_pendant)
        b.add_edge_theta(core[i], pend[i], theta_stem, tag="stem")
        b.add_edge_theta(core[i], core[(i + 1) % 5], theta_ring, tag="ring")
        b.add_edge_theta(core[i], core[(i + 2) % 5], theta_chord, tag="chord")
    return b.build()

"""Lifted tree-reweighted variational marginal inference.

Compute convex upper bounds on the log-partition function of symmetric,
templated Markov random fields by optimizing the tree-reweighted objective in
the compact orbit space, with optional tightening via cycle and exchangeable
cluster constraints.
"""

import os

# One BLAS thread unless the caller set these: a threaded OpenBLAS changes the
# last bits of the polish's dense solves.  They take effect only where numpy
# loads after this point, so a caller who imported numpy first keeps its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .model import (ModelError, PairwiseGroundModel, TemplatedModel,
                    GroundModelBuilder, ground, parse_model)
from .symmetry import (LiftedGraph, TyingViolation, compute_orbits, trivial_lifting,
                       verify_orbits)
from .polytope import (NotExchangeable, build_outer_system, detect_exchangeable_clusters,
                       exchangeable_constraints, lifted_local, separate_cycles,
                       OUTER_CHOICES)
from .lpsolve import InfeasibleError, Row, Simplex, UnboundedError
from .trw import (TrwResult, entropy_coefficients, frank_wolfe, golden_section,
                  gradient, lifted_entropy_bound, lifted_linear_term)
from .spanning import (DisconnectedGraph, count_components, init_rho_uniform,
                       lifted_kruskal, lifted_mst_value, optimize_rho,
                       tree_edge_total)
from .oracle import (ExactResult, TooLarge, brute_force,
                     counting_elimination_complete, ground_kruskal, ground_trw,
                     random_exchangeable_moments, random_tree_point)
from . import zoo

__version__ = "0.1.0"

__all__ = [
    "ModelError", "PairwiseGroundModel", "TemplatedModel", "GroundModelBuilder",
    "ground", "parse_model",
    "LiftedGraph", "TyingViolation", "compute_orbits", "trivial_lifting",
    "verify_orbits",
    "NotExchangeable", "build_outer_system",
    "detect_exchangeable_clusters", "exchangeable_constraints", "lifted_local",
    "separate_cycles", "OUTER_CHOICES",
    "InfeasibleError", "Row", "Simplex", "UnboundedError",
    "TrwResult", "entropy_coefficients", "frank_wolfe", "golden_section",
    "gradient", "lifted_entropy_bound", "lifted_linear_term",
    "DisconnectedGraph", "count_components", "init_rho_uniform",
    "lifted_kruskal", "lifted_mst_value", "optimize_rho", "tree_edge_total",
    "ExactResult", "TooLarge", "brute_force", "counting_elimination_complete",
    "ground_kruskal", "ground_trw", "random_exchangeable_moments",
    "random_tree_point",
    "zoo",
]

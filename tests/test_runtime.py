"""Runtime behaviour seen only from a fresh interpreter: the imports a solve
pulls in, and results that do not depend on the BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

PIPELINE = """
import sys
import liftedtrw as lt

tm = lt.parse_model(lt.zoo.model_text("clique_cycle")).bind_weight(0.5)
g = lt.ground(tm, 3)
lg = lt.compute_orbits(g)
rho = lt.init_rho_uniform(lg)
for outer in ("local", "cycle", "local+exch", "cycle+exch"):
    assert lt.frank_wolfe(lg, outer=outer, rho=rho).converged, outer
lt.optimize_rho(lg, "local", rho, outer_iters=2)
lt.ground_trw(g, rho[lg.edge_orbit_of], outer="local")
print(" ".join(m for m in ("scipy", "numpy.ma") if m in sys.modules))
"""

# The bench's lifted_sweep cell clique_cycle n=16 W=-0.5 local+exch: with two
# BLAS threads its polish returned another last bit of the bound.
SOLVE = """
import hashlib
import liftedtrw as lt

tm = lt.parse_model(lt.zoo.model_text("clique_cycle")).bind_weight(-0.5)
lg = lt.compute_orbits(lt.ground(tm, 16))
res = lt.frank_wolfe(lg, outer="local+exch", rho=lt.init_rho_uniform(lg), tol=1e-5,
                     max_iters=200)
print(res.bound.hex(), hashlib.sha256(res.tau.tobytes()).hexdigest())
"""


def _run_fresh(code, env):
    """Standard output of ``code`` in a fresh interpreter that imports the
    package from this checkout, with ``env`` over this process's environment
    (a value of None unsets the variable)."""
    full = dict(os.environ, PYTHONPATH=str(SRC))
    for var, value in env.items():
        full.pop(var, None)
        if value is not None:
            full[var] = value
    out = subprocess.run([sys.executable, "-c", code], env=full, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def test_pipeline_imports_neither_scipy_nor_numpy_ma():
    """``ground`` through ``optimize_rho`` and ``ground_trw`` in a fresh
    interpreter leave ``scipy`` and ``numpy.ma`` unimported."""
    assert _run_fresh(PIPELINE, {}) == ""


def test_bound_and_tau_do_not_depend_on_blas_threads():
    """The bound and ``tau`` bytes are the same with the BLAS thread
    variables unset as with both set to 1."""
    unset = _run_fresh(SOLVE, dict.fromkeys(THREAD_VARS))
    pinned = _run_fresh(SOLVE, dict.fromkeys(THREAD_VARS, "1"))
    assert unset == pinned

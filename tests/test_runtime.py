"""The runtime needs numpy alone: scipy is a test dependency only."""

import os
import subprocess
import sys
from pathlib import Path

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
lt.ground_trw(g, rho[lg.edge_orbit_of[:len(g.edges)]], outer="local")
print(" ".join(m for m in ("scipy", "numpy.ma") if m in sys.modules))
"""


def test_pipeline_imports_neither_scipy_nor_numpy_ma():
    """``ground`` through ``optimize_rho`` and ``ground_trw`` in a fresh
    interpreter leave ``scipy`` and ``numpy.ma`` unimported."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", PIPELINE], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == ""

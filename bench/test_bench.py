"""The benchmark's own tests: tracing sees every layer and changes no result.

Run from the root of the repository:

    python3 -m pytest bench/test_bench.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import liftedtrw as lt  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

CELL = [wl.Instance("clique_cycle", 3, 0.5, (wl.Solve("cycle+exch"),))]


def results(p):
    return [(c.bound, c.iterations, c.pivots) for c in p.cells]


def test_traced_cell_records_every_layer_and_matches_untraced():
    plain = wl.run_pass(CELL)
    with tracer.Tracer() as tr:
        traced = wl.run_pass(CELL)
    names = {span[1] for span in tr.spans}
    assert {name.split(".")[0] for name in names} == set(tracer.LAYERS)
    # every target but trivial_lifting, which only the ground path calls;
    # separate, kruskal and line_search are reached through the callers' own
    # bindings (trw.separate_cycles, spanning.lifted_kruskal, trw.golden_section)
    assert names == {t[0] for t in tracer.TARGETS} - {"symmetry.trivial_lifting"}
    assert traced.cells[0].cuts > 0
    assert results(traced) == results(plain)
    layer = tracer.summarize(tr.spans)
    assert layer["lpsolve.pivots"] == traced.cells[0].pivots
    assert layer["trw.iterations"] == traced.cells[0].iterations
    assert 0.0 < layer["trw.self_s"] < layer["trw.frank_wolfe_s"]


def test_tracer_wraps_the_ground_trw_binding_and_restores_it():
    ground = [wl.Instance("complete_graph", 3, -1.0, wl.GROUND)]
    original = lt.oracle.frank_wolfe
    with tracer.Tracer() as tr:
        cells = wl.run_pass(ground).cells
        assert lt.oracle.frank_wolfe is not original
    assert cells[0].solve.ground
    assert all(ok for ok, _ in wl.check_pass(cells))
    names = {span[1] for span in tr.spans}
    assert {"symmetry.trivial_lifting", "trw.frank_wolfe", "lpsolve.solve"} <= names
    assert lt.oracle.frank_wolfe is original
    assert lt.trw.separate_cycles is lt.polytope.separate_cycles
    assert not hasattr(lt.Simplex.solve, "__wrapped__")


def test_checks_flag_a_bound_below_log_z():
    cells = wl.run_pass(wl.WARMUP).cells
    assert all(ok for ok, _ in wl.check_pass(cells))
    log_z = lt.counting_elimination_complete(3, -1.0, -0.1)[0]
    cells[0].bound = log_z - 0.1
    failed = [desc for ok, desc in wl.check_pass(cells) if not ok]
    # the lowered local bound also falls below the tighter local+exch bound
    assert len(failed) == 2 and "log Z" in failed[0] and "local+exch" in failed[1]

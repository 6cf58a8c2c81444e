"""Time-to-certified-bound benchmark for liftedtrw.

Run from the root of a checkout:

    python3 bench/run.py --workload lifted_sweep --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the current directory.  BLAS and
OpenMP are pinned to one thread before numpy loads.  After one warm-up
instance, the workload's passes repeat until ``--seconds`` have passed (at
least three).  Times are medians over passes, each pass rescaled to the
reference speed by the calibration loop run before each instance (see
README.md).  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` untraced and traced passes alternate, the per-layer metrics are
medians over the traced ones and a per-cell table is printed.  The last line of standard
output is one JSON object.  The exit code is 1 when a correctness check fails
and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
MIN_PASSES = 3
# The speed at which one run of the calibration loop takes this long is the
# reference speed; reported times are seconds at that speed.
REFERENCE_CALIBRATION_S = 0.020


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def median_s(passes, key, n_instances):
    """Median over passes of ``key(pass)``, in seconds at the reference speed.

    Neighbouring load on a shared machine moves its speed by tens of percent,
    within a second and for minutes at a time.  The calibration loop, run
    before every instance, slows down with it, so each pass is rescaled by
    its own calibration time.
    """
    return statistics.median(key(p) * REFERENCE_CALIBRATION_S * n_instances / p.calibration_s
                             for p in passes)


def wall_s(p):
    return p.setup_s + p.solve_s


def repeat_until(seconds, step):
    """Call ``step`` until the next call would end past ``seconds``."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
            return


def cell_table(cells, spans):
    head = ("model", "n", "W", "outer", "bound", "gap", "iters", "pivots", "cuts",
            "conv", "parse_s", "ground_s", "orbits_s", "rho_s", "fw_s", "lp_s",
            "sep_s", "ls_s", "self_s")
    rows = [head]
    for c in cells:
        t0, t1 = c.window
        layer = tracer.summarize([s for s in spans if t0 <= s[2] and s[3] <= t1])
        outer = c.solve.outer + ("/ground" if c.solve.ground else "")
        st = c.stages
        rows.append((c.inst.model, c.inst.n, f"{c.inst.w:.10g}", outer, f"{c.bound:.9g}",
                     f"{c.gap:.3g}", c.iterations, c.pivots, c.cuts, c.converged,
                     *(f"{x:.4f}" for x in (st["parse"], st["ground"],
                                            st["orbits"],
                                            st["rho"], c.solve_s,
                                            layer["lpsolve.solve_s"], layer["polytope.separate_s"],
                                            layer["trw.line_search_s"], layer["trw.self_s"]))))
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(head))]
    return "\n".join(" ".join(str(v).rjust(w) for v, w in zip(r, widths)) for r in rows)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "liftedtrw" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from the root of a liftedtrw checkout ({root} has no "
              "src/liftedtrw or no BENCHMARK.json)", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import liftedtrw
    import workloads as wl

    if Path(liftedtrw.__file__).resolve().parent != (src / "liftedtrw").resolve():
        print(f"error: liftedtrw imported from {liftedtrw.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    wl.run_pass(wl.WARMUP)
    insts = wl.instances(args.workload, args.seed)
    plain, traced, layer_samples = [], [], []
    last_spans = []

    def untraced_pass():
        plain.append(wl.run_pass(insts))

    def traced_pair():
        untraced_pass()
        with tracer.Tracer() as tr:
            traced.append(wl.run_pass(insts))
        layer_samples.append(tracer.summarize(tr.spans))
        last_spans[:] = tr.spans

    repeat_until(args.seconds, traced_pair if args.trace else untraced_pass)

    log_z = {}
    checks = [c for p in plain + traced for c in wl.check_pass(p.cells, log_z)]
    checks += [c for p in plain[1:] + traced for c in wl.check_repeat(plain[0], p)]
    failed = [desc for ok, desc in checks if not ok]
    for desc in failed:
        print(f"check failed: {desc}", file=sys.stderr)

    first = plain[0]
    n = len(insts)
    if args.trace:
        scales = [REFERENCE_CALIBRATION_S * n / p.calibration_s for p in traced]
        values = {k: statistics.median(s[k] * (f if k.endswith("_s") else 1.0)
                                       for s, f in zip(layer_samples, scales))
                  for k in layer_samples[0]}
        values["trace.overhead_s"] = median_s(traced, wall_s, n) - median_s(plain, wall_s, n)
        print(cell_table(traced[-1].cells, last_spans))
    else:
        values = {
            "wall_s": median_s(plain, wall_s, n),
            "setup_s": median_s(plain, lambda p: p.setup_s, n),
            "solve_s": median_s(plain, lambda p: p.solve_s, n),
            "gap_max": max(max(c.gap, 0.0) for c in first.cells),
            "converged_frac": sum(c.converged for c in first.cells) / len(first.cells),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(values) != sorted(wanted):
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json {sorted(wanted)}",
              file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"passes untraced={len(plain)} traced={len(traced)} "
          f"cells_per_pass={len(first.cells)} seed={args.seed}")
    print("measured medians: calibration "
          f"{statistics.median(p.calibration_s for p in plain) / n:.6g} s per instance "
          f"(reference {REFERENCE_CALIBRATION_S}), "
          f"wall {statistics.median(wall_s(p) for p in plain):.6g} s, "
          f"setup {statistics.median(p.setup_s for p in plain):.6g} s")
    print(f"check_fail_frac {len(failed) / len(checks):.6g} "
          f"({len(failed)} of {len(checks)} checks failed)")
    for name in wanted:
        print(f"{name} {values[name]:.9g} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in wanted},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

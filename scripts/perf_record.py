"""Write one perf-trajectory file, ``BENCH_<tag>.json``, from bench/run.py.

Run from the root of a checkout:

    python3 scripts/perf_record.py pr31

For each workload of BENCHMARK.json it keeps the last JSON line of one
untraced (``--trace 0``) and one traced (``--trace 1``) run at seed 3001 for
12 s, and for ``cycle_cuts`` the ``gap_max`` of seeds 1-5, whose spread is
what a move of that metric is set against.  The environment is the ``env``
line of the first run.  About two minutes on one core.
"""

import json
import subprocess
import sys
from pathlib import Path

SEED = 3001
SECONDS = 12
GAP_SEEDS = range(1, 6)


def run(workload, seed, seconds, trace):
    """The ``env`` line and the last JSON line of one bench/run.py run."""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    env = next(line[len("env "):] for line in out if line.startswith("env "))
    return json.loads(env), json.loads(out[-1])


def main(tag):
    workloads = [w["name"] for w in json.loads(Path("BENCHMARK.json").read_text())["workloads"]]
    record = {"seed": SEED, "seconds": SECONDS, "workloads": {}}
    for name in workloads:
        env, untraced = run(name, SEED, SECONDS, 0)
        record.setdefault("environment", env)
        record["workloads"][name] = {"trace0": untraced, "trace1": run(name, SEED, SECONDS, 1)[1]}
    record["cycle_cuts_gap_max_by_seed"] = {
        str(s): run("cycle_cuts", s, 1, 0)[1]["metrics"]["gap_max"]["value"] for s in GAP_SEEDS}
    Path(f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])

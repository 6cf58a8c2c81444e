"""Command-line interface tests (run in-process through main())."""

import json
import math
import re

import pytest

import liftedtrw as lt
from liftedtrw.cli import main

from conftest import build


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInfer:
    def test_complete_graph_bound_dominates_oracle(self, capsys, tmp_path):
        out_csv = tmp_path / "row.csv"
        code, out, err = run_cli(
            capsys, "infer", "--model", "complete_graph", "--n", "10",
            "--W", "-1", "--outer", "local+exch", "--tol", "1e-5",
            "--out", str(out_csv))
        assert code == 0
        bound = float(re.search(r"bound\s+(\S+)", out).group(1))
        log_z, _ = lt.counting_elimination_complete(10, -1.0, -0.1)
        assert bound >= log_z - 1e-8
        text = out_csv.read_text()
        assert text.startswith("schema=1\n")

    def test_single_node_marginal_is_sigmoid(self, capsys, tmp_path):
        model = tmp_path / "one.mln"
        model.write_text("W V(x)\n")
        code, out, _ = run_cli(
            capsys, "infer", "--model", str(model), "--n", "1",
            "--W", "0.8", "--tol", "1e-7")
        assert code == 0
        marg = float(re.search(r"V\(x0\)\s+([0-9.]+)", out).group(1))
        assert abs(marg - 1 / (1 + math.exp(-0.8))) < 1e-5

    def test_reports_termination_and_setup_time(self, capsys):
        argv = ("infer", "--model", "complete_graph", "--n", "6", "--W", "-1",
                "--outer", "local+exch")
        for extra, termination in ((("--max-iters", "1"), "iteration_limit"), ((), "gap")):
            code, out, _ = run_cli(capsys, *argv, *extra)
            assert code == 0
            assert re.search(rf"^iterations \d+ \(termination: {termination}\)$", out, re.M)
            assert float(re.search(r"^setup time ([0-9.]+) ms \(", out, re.M).group(1)) > 0
            assert re.search(r"^wall time  [0-9.]+ ms$", out, re.M)

    def test_solve_phases_follow_wall_time(self, capsys):
        """The line after ``wall time`` splits the solve into its LP,
        separation, line-search and polish milliseconds, which fit in the
        wall time, counts the face solves and the failed ones, and the
        ground cycle searches run and those the quotient pre-check pruned
        (a solve that adds cuts runs some; its last, clean separation prunes
        every one), and the LP solves that ran phase 1 and their pricing
        rounds (each run prices at least once)."""
        code, out, _ = run_cli(capsys, "infer", "--model", "clique_cycle", "--n", "3",
                               "--W", "2", "--outer", "cycle")
        assert code == 0
        lines = out.splitlines()
        wall = next(i for i, line in enumerate(lines) if line.startswith("wall time "))
        m = re.fullmatch(r"solve phases lp ([0-9.]+), separation ([0-9.]+), "
                         r"line search ([0-9.]+), polish ([0-9.]+) ms "
                         r"\((\d+) face solves, (\d+) failed; (\d+) cycle searches, "
                         r"(\d+) pruned; (\d+) phase-1 runs, (\d+) rounds\)", lines[wall + 1])
        assert m
        phases = [float(m.group(k)) for k in range(1, 5)]
        wall_ms = float(re.fullmatch(r"wall time  ([0-9.]+) ms", lines[wall]).group(1))
        assert sum(phases) <= wall_ms + 0.25   # five values rounded to 0.1 ms
        faces, failed = int(m.group(5)), int(m.group(6))
        assert faces > 0 and 0 <= failed <= faces
        assert int(m.group(7)) > 0 and int(m.group(8)) > 0
        runs, rounds = int(m.group(9)), int(m.group(10))
        assert runs <= rounds and (runs == 0) == (rounds == 0)

    def test_trace_has_one_line_per_iteration(self, capsys, tmp_path):
        """``--trace`` writes one JSON object per Frank-Wolfe iteration with
        a fixed schema; the lines number the iterations, and their gaps,
        objectives, pivots and cuts are those of the same solve run through
        the API.  The converging last iteration takes no step."""
        path = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(capsys, "infer", "--model", "clique_cycle", "--n", "10",
                               "--W", "0.5", "--outer", "cycle+exch", "--trace", str(path))
        assert code == 0
        iterations = int(re.search(r"^iterations (\d+) ", out, re.M).group(1))
        assert f"wrote {iterations} iterations to {path}" in out
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(entries) == iterations > 1
        for i, e in enumerate(entries, 1):
            assert list(e) == ["iteration", "gap", "objective", "step", "pivots", "cuts",
                               "polish_adopted"]
            assert e["iteration"] == i
            assert isinstance(e["gap"], float) and isinstance(e["objective"], float)
            assert e["step"] is None or 0.0 < e["step"] <= 1.0
            assert isinstance(e["pivots"], int) and isinstance(e["cuts"], int)
            assert isinstance(e["polish_adopted"], bool)
        assert entries[-1]["step"] is None
        lg = lt.compute_orbits(build("clique_cycle", 10, 0.5))
        res = lt.frank_wolfe(lg, outer="cycle+exch", rho=lt.init_rho_uniform(lg))
        assert [e["gap"] for e in entries] == res.gap_trace
        assert [e["objective"] for e in entries] == res.objective_trace
        assert sum(e["pivots"] for e in entries) == res.lp_pivots
        assert sum(e["cuts"] for e in entries) == res.n_cuts > 0
        assert sum(e["polish_adopted"] for e in entries) == res.stats["polish_adopted"]

    @pytest.mark.parametrize("model,n", [("complete_graph", "6"), ("ring_pendant", "5")])
    def test_setup_time_splits_into_stages(self, capsys, model, n):
        """The set-up line names parse, ground, orbits and rho; each printed
        to 0.1 ms, they sum to the printed total within that rounding."""
        code, out, _ = run_cli(capsys, "infer", "--model", model, "--n", n, "--W", "-1")
        assert code == 0
        m = re.search(r"^setup time ([0-9.]+) ms \(parse ([0-9.]+), ground ([0-9.]+), "
                      r"orbits ([0-9.]+), rho ([0-9.]+)\)$", out, re.M)
        assert m
        total, *stages = (float(v) for v in m.groups())
        assert abs(sum(stages) - total) <= 5 * 0.05 + 1e-9

    def test_missing_file_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "infer", "--model", "/no/such/file.mln", "--n", "3")
        assert code == 2
        assert "error" in err

    def test_parse_error_exits_2(self, capsys, tmp_path):
        model = tmp_path / "bad.mln"
        model.write_text("1.0 V(x ^^\n")
        code, _, err = run_cli(capsys, "infer", "--model", str(model), "--n", "2")
        assert code == 2

    def test_bad_config_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "infer", "--model", "complete_graph",
                             "--n", "0", "--W", "1")
        assert code == 2
        for tol in ("-1", "nan", "inf"):
            code, _, _ = run_cli(capsys, "infer", "--model", "complete_graph",
                                 "--n", "3", "--W", "1", "--tol", tol)
            assert code == 2, tol
        cg = ("--model", "complete_graph", "--n", "6", "--W", "1")
        cc = ("--model", "clique_cycle", "--n", "3", "--W", "1")  # 6 edge orbits
        for argv in (("infer", *cg, "--max-iters", "0"),
                     ("infer", *cg, "--max-iters", "-1"),
                     ("infer", *cg, "--rho", "kruskal:a"),
                     ("mst", *cc, "--weights", "1,2"),
                     ("mst", *cc, "--weights", "1,2,3,4,5,6,7,8"),
                     ("mst", *cc, "--weights", "1,2,3,4,5,x"),
                     ("mst", *cc, "--weights", "1,2,3,4,5,nan"),
                     ("infer", *cg, "--rho", "kruskal:inf"),
                     ("sweep", "--model", "complete_graph", "--n", "3", "--W=-1:1"),
                     ("sweep", "--model", "complete_graph", "--n", "3", "--W=a:1:1"),
                     # checked before the (here empty) W range is expanded
                     ("sweep", "--model", "complete_graph", "--n", "3",
                      "--W=1:-1:0.5", "--max-iters", "0", "--tol", "-1"),
                     ("sweep", "--model", "complete_graph", "--n", "0", "--W=2:1:1"),
                     ("sweep", "--model", "complete_graph", "--n", "3", "--W=2:1:1",
                      "--tol", "0"),
                     ("sweep", "--model", "complete_graph", "--n", "3", "--W=1",
                      "--jobs", "0"),
                     ("sweep", "--model", "complete_graph", "--n", "3", "--W=1",
                      "--jobs", "-2")):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert err.startswith("error: "), argv
        # no iteration means no gap, so no certified bound
        lg = lt.compute_orbits(build("complete_graph", 6, 1.0))
        for max_iters in (0, -1):
            with pytest.raises(ValueError, match="max_iters"):
                lt.frank_wolfe(lg, rho=lt.init_rho_uniform(lg), max_iters=max_iters)

    @pytest.mark.parametrize("argv, match", [
        (("infer", "--model", "complete_graph", "--n", "3", "--W", "1", "--rho", "best"),
         "unknown rho mode 'best'"),
        (("sweep", "--model", "complete_graph", "--n", "3", "--W=0:1:0"),
         "W range step must be positive"),
        (("sweep", "--model", "complete_graph", "--n", "3", "--W=1", "--outer", "local,tree"),
         "unknown outer bound 'tree'"),
        (("infer", "--model", "complete_graph", "--n", "3"), "pass --W"),
    ], ids=["rho-mode", "W-step", "sweep-outer", "no-W"])
    def test_bad_option_exits_2(self, capsys, argv, match):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and match in err
        assert out == ""

    @pytest.mark.parametrize("text, match", [
        ("1.0 P(x) ^ Q(x)\n", "3 ground components remain"),
        ("0.5 V(x)\n", "graph has nodes but no edges"),
    ])
    @pytest.mark.parametrize("command", ["infer", "mst"])
    def test_disconnected_graph_exits_2(self, capsys, tmp_path, text, match, command):
        """A ground graph without a spanning tree is reported as an error,
        not a traceback."""
        model = tmp_path / "split.mln"
        model.write_text(text)
        code, out, err = run_cli(capsys, command, "--model", str(model), "--n", "3")
        assert code == 2
        assert err.startswith("error: ") and match in err
        assert "Traceback" not in out + err

    def test_optimized_rho_does_not_worsen_bound(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["infer", "--model", "complete_graph", "--n", "6", "--W", "-1",
                "--outer", "local", "--tol", "1e-6"]
        run_cli(capsys, *base, "--rho", "uniform", "--out", str(out_a))
        run_cli(capsys, *base, "--rho", "optimize", "--out", str(out_b))

        def bound_of(path):
            return float(path.read_text().strip().splitlines()[-1].split(",")[3])

        assert bound_of(out_b) <= bound_of(out_a) + 1e-7

    def test_optimized_rho_is_solved_once(self, capsys, monkeypatch):
        """``--rho optimize`` reports the solve that ``optimize_rho`` ends
        on instead of solving its rho again; on complete_graph, whose
        spanning-tree polytope is one point, that is the only solve."""
        solves = []
        solve = lt.trw.frank_wolfe

        def counted(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(lt.trw, "frank_wolfe", counted)
        monkeypatch.setattr(lt.spanning, "frank_wolfe", counted)
        code, out, _ = run_cli(capsys, "infer", "--model", "complete_graph",
                               "--n", "10", "--W", "-1", "--rho", "optimize")
        assert code == 0 and len(solves) == 1
        assert float(re.search(r"bound\s+(\S+)", out).group(1)) == float(
            f"{solves[0].bound:.10g}")

    def test_kruskal_rho_mode(self, capsys):
        code, out, _ = run_cli(capsys, "infer", "--model", "complete_graph",
                               "--n", "4", "--W", "-1", "--rho", "kruskal:1")
        assert code == 0
        code, _, err = run_cli(capsys, "infer", "--model", "complete_graph",
                               "--n", "4", "--W", "-1", "--rho", "kruskal:1,2")
        assert code == 2  # wrong weight count


class TestSweep:
    def test_complete_graph_68_rows(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--model", "complete_graph", "--n", "4",
            "--W=-2:2:0.25", "--outer", "all", "--tol", "1e-5",
            "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "schema=1"
        rows = lines[2:]
        assert len(rows) == 17 * 4
        # rows ordered by (W, outer); bounds obey the tightening order per W
        bound_of = {}
        for row in rows:
            parts = row.split(",")
            bound_of[(parts[0], parts[1])] = float(parts[3])
        for w in {r.split(",")[0] for r in rows}:
            assert bound_of[(w, "local")] >= bound_of[(w, "local+exch")] - 1e-7
            assert bound_of[(w, "local+exch")] >= bound_of[(w, "cycle+exch")] - 1e-7
            assert bound_of[(w, "local")] >= bound_of[(w, "cycle")] - 1e-7

    @pytest.mark.parametrize("spec", ["2:1:1", "1:-1:0.5"])
    def test_reversed_range_rejected(self, capsys, tmp_path, spec):
        out_csv = tmp_path / "empty.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--model", "complete_graph", "--n", "3",
            f"--W={spec}", "--outer", "local", "--out", str(out_csv))
        assert code == 2
        assert "W range is empty" in err
        assert out == ""
        assert not out_csv.exists()

    def test_clique_cycle_bounds_dominate_brute_force(self, capsys, tmp_path):
        out_csv = tmp_path / "cc.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--model", "clique_cycle", "--n", "3",
            "--W=0.5:1.5:0.5", "--outer", "local,cycle", "--tol", "1e-5",
            "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()[2:]
        for row in lines:
            parts = row.split(",")
            w = float(parts[0])
            bound = float(parts[3])
            ex = lt.brute_force(build("clique_cycle", 3, w))
            assert bound >= ex.log_z - 1e-8

    def test_deterministic_apart_from_timing(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "sweep", "--model", "complete_graph", "--n", "3",
                "--W=-1:1:1", "--outer", "local,cycle", "--tol", "1e-5",
                "--out", str(path))
            assert code == 0

        def strip_millis(text):
            out = []
            for i, line in enumerate(text.splitlines()):
                if i < 2:
                    out.append(line)
                    continue
                parts = line.split(",")
                parts[6] = "_"
                out.append(",".join(parts))
            return "\n".join(out)

        assert strip_millis(a.read_text()) == strip_millis(b.read_text())

    def test_parallel_jobs_match_serial(self, capsys, tmp_path):
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        args = ["sweep", "--model", "complete_graph", "--n", "3",
                "--W=-1:0:0.5", "--outer", "local", "--tol", "1e-5"]
        run_cli(capsys, *args, "--out", str(serial))
        run_cli(capsys, *args, "--jobs", "2", "--out", str(parallel))

        def rows_without_millis(path):
            lines = path.read_text().strip().splitlines()[2:]
            return [",".join(p for i, p in enumerate(l.split(",")) if i != 6)
                    for l in lines]

        assert rows_without_millis(serial) == rows_without_millis(parallel)

    @pytest.mark.parametrize("rho", ["uniform", "optimize", "kruskal:1,2,3,4,5,6"])
    def test_grounds_each_w_once(self, capsys, monkeypatch, tmp_path, rho):
        """``--outer all`` grounds each W once and solves every outer bound
        on its lifted graph; the rows equal those of one sweep per outer
        bound, where every (W, outer) pair is set up afresh, but for the
        timing column."""
        import liftedtrw.cli as cli
        args = ["sweep", "--model", "clique_cycle", "--n", "3", "--W=-1:1:1",
                "--tol", "1e-5", "--rho", rho]
        grounded = []
        ground = cli.ground

        def counted(*a, **k):
            grounded.append(a[1])
            return ground(*a, **k)

        monkeypatch.setattr(cli, "ground", counted)
        together = tmp_path / "all.csv"
        assert run_cli(capsys, *args, "--outer", "all", "--out", str(together))[0] == 0
        assert grounded == [3, 3, 3]
        rows = []
        for outer in lt.OUTER_CHOICES:
            apart = tmp_path / f"{outer}.csv"
            assert run_cli(capsys, *args, "--outer", outer, "--out", str(apart))[0] == 0
            rows += apart.read_text().splitlines()[2:]
        assert len(grounded) == 3 + 3 * len(lt.OUTER_CHOICES)

        def without_millis(lines):
            return [",".join(p for i, p in enumerate(l.split(",")) if i != 6) for l in lines]

        head, *got = together.read_text().splitlines()[1:]
        want = sorted(rows, key=lambda r: (float(r.split(",")[0]),
                                           lt.OUTER_CHOICES.index(r.split(",")[1])))
        assert head.startswith("W,outer,n,bound,gap,iters,millis")
        assert without_millis(got) == without_millis(want)


class TestOrbitsMstValidate:
    def test_orbits_table_clique_cycle(self, capsys):
        code, out, _ = run_cli(capsys, "orbits", "--model", "clique_cycle",
                               "--n", "3", "--W", "1.0")
        assert code == 0
        assert "3 node orbits, 6 edge orbits" in out

    def test_orbits_table_ring_pendant(self, capsys):
        code, out, _ = run_cli(capsys, "orbits", "--model", "ring_pendant",
                               "--n", "5")
        assert code == 0
        assert "2 node orbits, 3 edge orbits" in out
        code, _, err = run_cli(capsys, "orbits", "--model", "ring_pendant",
                               "--n", "4")
        assert code == 2

    def test_infer_ring_pendant(self, capsys):
        code, out, _ = run_cli(capsys, "infer", "--model", "ring_pendant",
                               "--n", "5", "--W", "1.0", "--tol", "1e-6")
        assert code == 0
        assert "bound" in out

    def test_mst_on_tree_prints_ones(self, capsys, tmp_path):
        model = tmp_path / "pair.mln"
        model.write_text("0.5 Left(x) ^ Right(x)\n")
        code, out, _ = run_cli(capsys, "mst", "--model", str(model), "--n", "1")
        assert code == 0
        rho_vals = [float(m) for m in
                    re.findall(r"^\s*\d+\s+\d+\s+\S+\s+(\S+)$", out, re.M)]
        assert rho_vals and all(abs(v - 1.0) < 1e-9 for v in rho_vals)
        assert re.search(r"tree edge total\s+1\b", out)

    def test_validate_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        assert "FAIL" not in out

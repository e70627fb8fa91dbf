import csv
import json
import os
import subprocess
import sys

import pytest

import dualbca
from dualbca.cli import main
from dualbca.generate import generate_instance
from dualbca.uai import write_uai

TRACE_COLUMNS = ["pass", "messages", "normalized_messages", "dual", "primal",
                 "wall_seconds"]


def read_trace(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


class TestSolve:
    def test_trace_and_summary(self, tmp_path):
        trace = tmp_path / "t.csv"
        summary = tmp_path / "s.json"
        rc = main(["solve", "--generate", "complete:8,5", "--method", "spam",
                   "--max-passes", "10", "--trace", str(trace),
                   "--summary", str(summary)])
        assert rc == 0
        header, rows = read_trace(trace)
        assert header == TRACE_COLUMNS
        duals = [float(r[3]) for r in rows]
        for a, b in zip(duals, duals[1:]):
            assert b >= a - 1e-9
        s = json.loads(summary.read_text())
        assert s["method"] == "spam"
        assert s["gap"] >= -1e-9
        assert s["messages"] == int(rows[-1][1])

    def test_model_file_input(self, tmp_path):
        m = generate_instance("sparse_grid", height=3, width=3, seed=0)
        path = tmp_path / "grid.uai"
        write_uai(m, path)
        rc = main(["solve", "--model", str(path), "--method", "trws",
                   "--max-passes", "5"])
        assert rc == 0

    def test_unknown_method_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--generate", "complete:4", "--method", "unknown"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--generate", "complete:4", "--method", "spam",
                  "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_model_file_exits_1(self):
        rc = main(["solve", "--model", "/does/not/exist.uai",
                   "--method", "spam", "--max-passes", "1"])
        assert rc == 1

    def test_nan_tol_exits_1(self):
        rc = main(["solve", "--generate", "sparse_grid:3", "--method", "msd",
                   "--max-passes", "1", "--tol", "nan"])
        assert rc == 1

    def test_malformed_model_exits_1(self, tmp_path):
        p = tmp_path / "bad.uai"
        p.write_text("BAYES\n")
        rc = main(["solve", "--model", str(p), "--method", "spam",
                   "--max-passes", "1"])
        assert rc == 1

    def test_seed_reproducibility_modulo_wall_time(self, tmp_path):
        traces = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            rc = main(["solve", "--generate", "denser:4,4,3,0.2", "--method",
                       "dmm", "--max-passes", "6", "--seed", "42",
                       "--trace", str(path)])
            assert rc == 0
            header, rows = read_trace(path)
            traces.append([r[:5] for r in rows])  # drop wall_seconds
        assert traces[0] == traces[1]

    def test_random_order_deterministic(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            main(["solve", "--generate", "sparse_grid:3,3", "--method",
                  "trws", "--order", "random", "--seed", "9",
                  "--max-passes", "3", "--trace", str(path)])
            outs.append(read_trace(path)[1])
        assert [r[:5] for r in outs[0]] == [r[:5] for r in outs[1]]

    def test_bad_generate_spec_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--generate", "ring:5", "--method", "spam"])
        assert exc.value.code == 2


class TestBench:
    def test_matrix_outputs(self, tmp_path):
        out = tmp_path / "bench"
        rc = main(["bench", "--generate", "sparse_grid:3,3", "--generate",
                   "complete:5,3", "--methods", "spam", "trws",
                   "--max-passes", "3", "--out-dir", str(out)])
        assert rc == 0
        files = sorted(p.name for p in out.iterdir())
        assert "aggregate.csv" in files
        assert len(files) == 5  # 2 instances x 2 methods + aggregate
        with open(out / "aggregate.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["instance", "method", "pass", "messages",
                           "normalized_messages", "dual", "primal"]
        # normalization uses the dataset mean edge count
        insts = {r[0] for r in rows[1:]}
        assert len(insts) == 2

    def test_no_instances_exits_2(self, tmp_path, capsys):
        rc = main(["bench", "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    def test_runs_jobs_in_order(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = main(["bench", "--generate", "complete:5,3", "--generate",
                   "sparse_grid:3,3", "--methods", "trws", "mplppp",
                   "--max-passes", "2", "--out-dir", str(out)])
        assert rc == 0
        with open(out / "aggregate.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        pairs = list(dict.fromkeys((r[0], r[1]) for r in rows))
        assert pairs == [("complete-seed0", "trws"),
                         ("complete-seed0", "mplppp"),
                         ("sparse_grid-seed1", "trws"),
                         ("sparse_grid-seed1", "mplppp")]
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in printed[:4]] == \
            [f"{name} {method}" for name, method in pairs]


class TestVerify:
    def test_exit_zero(self):
        assert main(["verify", "--seed", "7"]) == 0


def test_console_script_installed(tmp_path):
    # The child imports the package this suite imports, installed or not.
    root = os.path.dirname(os.path.dirname(dualbca.__file__))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    res = subprocess.run([sys.executable, "-m", "dualbca.cli", "--help"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0
    assert "solve" in res.stdout and "bench" in res.stdout


def test_bench_job_normalizes_summary_messages(tmp_path):
    from dualbca.cli import _bench_job
    from dualbca.solve import SolverConfig
    small = generate_instance("sparse_grid", height=3, width=3, seed=1)
    large = generate_instance("sparse_grid", height=4, width=6, seed=2)
    mean = (small.n_edges + large.n_edges) / 2
    for i, model in enumerate((small, large)):
        path = tmp_path / f"{i}.csv"
        summary, rows = _bench_job((model, f"m{i}", 0.0, "trws",
                                    SolverConfig("trws", max_passes=3),
                                    str(path), mean))
        want = summary["messages"] * mean / model.n_edges
        assert summary["normalized_messages"] == pytest.approx(want)
        assert summary["normalized_messages"] != summary["messages"]
        assert rows[-1][4] == summary["normalized_messages"]
        _, trace_rows = read_trace(path)
        assert float(trace_rows[-1][2]) == summary["normalized_messages"]

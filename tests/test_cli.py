import csv
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualbca
from dualbca import blocks, cli, verify
from dualbca.cli import main
from dualbca.generate import generate_instance
from dualbca.solve import SolverConfig
from dualbca.uai import write_uai

TRACE_COLUMNS = ["pass", "messages", "normalized_messages", "dual", "primal",
                 "wall_seconds"]


def read_trace(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def draws(monkeypatch):
    """The arguments of every instance the CLI draws from now on."""
    drawn, inner = [], cli.generate_instance

    def generate_instance(*args, **kwargs):
        drawn.append((args, kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(cli, "generate_instance", generate_instance)
    return drawn


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

    @pytest.mark.parametrize("flag,stop", [("--max-passes", "max_passes"),
                                           ("--max-seconds", "max_seconds")])
    def test_summary_names_the_stop(self, flag, stop, tmp_path, capsys):
        summary = tmp_path / "s.json"
        assert main(["solve", "--generate", "sparse_grid:3,3", "--method",
                     "trws", flag, "0", "--summary", str(summary)]) == 0
        s = json.loads(summary.read_text())
        assert s["stop"] == stop and s["passes"] == 0
        assert capsys.readouterr().out.endswith(f" stop={stop}\n")

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

    @pytest.mark.parametrize("command", [
        ["solve", "--method", "tbca"],
        ["bench", "--methods", "tbca", "msd", "--out-dir", "OUT"]],
        ids=["solve", "bench"])
    def test_dynamic_trees_with_a_cover_exit_1(self, command, tmp_path,
                                                capsys):
        command = [str(tmp_path) if a == "OUT" else a for a in command]
        rc = main(command + ["--generate", "sparse_grid:3", "--max-passes",
                             "1", "--cover", "mmc", "--tree-mode", "dynamic"])
        assert rc == 1
        assert "dynamic trees exclude an explicit cover" in \
            capsys.readouterr().err

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

    @pytest.mark.parametrize("source,order", [
        ("--generate", "input"), ("--generate", "random"),
        ("--model", "random")])
    def test_negative_seed_exits_1_before_an_instance_is_drawn(
            self, source, order, tmp_path, capsys, monkeypatch):
        # --generate draws with the seed and --order random shuffles with
        # it: the config check rejects it first, naming the flag.
        path = tmp_path / "g.uai"
        write_uai(generate_instance("sparse_grid", height=3, width=3),
                  str(path))
        drawn, trace = draws(monkeypatch), tmp_path / "t.csv"
        rc = main(["solve", source, "sparse_grid:3,3" if source ==
                   "--generate" else str(path), "--seed", "-2", "--method",
                   "msd", "--order", order, "--trace", str(trace)])
        assert rc == 1
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert drawn == [] and not trace.exists()

    @pytest.mark.parametrize("flag", ["--model", "--generate"])
    def test_second_instance_exits_2(self, flag, tmp_path, capsys):
        # Kept as given, argparse would solve the last instance alone.
        m = generate_instance("sparse_grid", height=3, width=3, seed=0)
        for name in ("a", "b"):
            write_uai(m, tmp_path / f"{name}.uai")
        first, second = {"--model": [str(tmp_path / "a.uai"),
                                     str(tmp_path / "b.uai")],
                         "--generate": ["complete:4", "sparse_grid:3"]}[flag]
        trace = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["solve", flag, first, flag, second, "--method", "msd",
                  "--max-passes", "1", "--trace", str(trace)])
        assert exc.value.code == 2
        assert f"argument {flag}: given twice" in capsys.readouterr().err
        assert not trace.exists()

    def test_bad_generate_spec_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--generate", "ring:5", "--method", "spam"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [
        ["solve", "--method", "spam"], ["bench", "--out-dir", "OUT"]],
        ids=["solve", "bench"])
    def test_unparsable_generate_number_exits_2(self, command, tmp_path,
                                                capsys):
        command = [str(tmp_path / "b") if a == "OUT" else a for a in command]
        with pytest.raises(SystemExit) as exc:
            main(command + ["--generate", "sparse_grid:x"])
        assert exc.value.code == 2
        assert "bad generate spec 'sparse_grid:x'" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("spec", [
        "sparse_grid:32,,8", "sparse_grid:,5", "complete:30,4,99"])
    def test_empty_or_surplus_generate_field_exits_2(self, spec, tmp_path,
                                                     capsys):
        # Dropped, the first two would build a 32x8 and a 5x5 grid.
        trace = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--generate", spec, "--method", "msd",
                  "--max-passes", "1", "--trace", str(trace)])
        assert exc.value.code == 2
        assert f"bad generate spec {spec!r}" in capsys.readouterr().err
        assert not trace.exists()

    def test_generate_spec_without_numbers_takes_the_defaults(self, tmp_path):
        trace = tmp_path / "t.csv"
        assert main(["solve", "--generate", "complete:", "--method", "msd",
                     "--max-passes", "1", "--trace", str(trace)]) == 0
        assert trace.exists()


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

    def test_duplicate_instance_names_exit_2(self, tmp_path, capsys):
        # Two files with one basename would write one trace file twice.
        paths = []
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            paths.append(str(tmp_path / d / "x.uai"))
            write_uai(generate_instance("sparse_grid", height=2, width=2,
                                        seed=len(paths)), paths[-1])
        out = tmp_path / "bench"
        rc = main(["bench", "--models", *paths, "--methods", "trws",
                   "--max-passes", "1", "--out-dir", str(out)])
        assert rc == 2
        assert "'x.uai'" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_method_exits_2(self, tmp_path, capsys):
        # A repeated method would run twice and write one trace file twice.
        out = tmp_path / "bench"
        rc = main(["bench", "--generate", "sparse_grid:3,3", "--methods",
                   "spam", "trws", "spam", "--max-passes", "1", "--out-dir",
                   str(out)])
        assert rc == 2
        assert "'spam'" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_method_across_flags_exits_2(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = main(["bench", "--generate", "sparse_grid:3,3", "--methods",
                   "spam", "--methods", "spam", "--max-passes", "1",
                   "--out-dir", str(out)])
        assert rc == 2
        assert "'spam'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_1_before_the_first_run(self, tmp_path,
                                                         capsys):
        # msd ignores the seed and spam's SSP cover draws with it: the
        # config check rejects it before either runs.
        path = str(tmp_path / "g.uai")
        write_uai(generate_instance("sparse_grid", height=3, width=3),
                  path)
        out = tmp_path / "bench"
        rc = main(["bench", "--models", path, "--seed", "-1", "--methods",
                   "msd", "spam", "--max-passes", "1", "--out-dir", str(out)])
        assert rc == 1
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_1_before_an_instance_is_drawn(
            self, tmp_path, capsys, monkeypatch):
        drawn, out = draws(monkeypatch), tmp_path / "bench"
        rc = main(["bench", "--generate", "sparse_grid:3,3", "--seed", "-1",
                   "--methods", "msd", "--max-passes", "1", "--out-dir",
                   str(out)])
        assert rc == 1
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert drawn == [] and not out.exists()

    def test_repeated_models_and_methods_accumulate(self, tmp_path):
        paths = []
        for name in ("a", "b", "c"):
            paths.append(str(tmp_path / f"{name}.uai"))
            write_uai(generate_instance("sparse_grid", height=2, width=2,
                                        seed=len(paths)), paths[-1])
        out = tmp_path / "bench"
        rc = main(["bench", "--models", *paths[:2], "--models", paths[2],
                   "--methods", "trws", "--methods", "spam",
                   "--max-passes", "1", "--out-dir", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["aggregate.csv"] + [f"{name}.uai-{method}.csv"
                                 for name in "abc"
                                 for method in ("trws", "spam")])

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

    def test_negative_seed_exits_1_before_any_check_runs(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 1
        out, err = capsys.readouterr()
        assert "seed must be a non-negative integer" in err
        assert out == ""

    def test_every_trial_checks_a_chain(self, monkeypatch):
        calls = []

        def counted(f):
            def call(*args, **kwargs):
                calls.append(f.__name__)
                return f(*args, **kwargs)
            return call

        for module, name in ((blocks, "tbca_pp_chain"), (blocks, "hm_chain"),
                             (verify, "chain_min")):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
        for seed in (0, 3, 7, 11):
            assert verify.check_maximality(seed, trials=15)
            assert verify.check_viterbi_agreement(seed, trials=20)
        assert [calls.count(name) for name in (
            "tbca_pp_chain", "hm_chain", "chain_min")] == [60, 60, 80]


def test_console_script_installed(tmp_path):
    # The child imports the package this suite imports, installed or not.
    root = os.path.dirname(os.path.dirname(dualbca.__file__))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    res = subprocess.run([sys.executable, "-m", "dualbca.cli", "--help"],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0
    assert "solve" in res.stdout and "bench" in res.stdout


def test_bench_normalizes_messages_by_the_mean_edge_count(tmp_path):
    # Two instances of different |E|: each run's normalised count is its
    # raw count times mean(|E|) / |E|, in its trace and in the aggregate.
    out = tmp_path / "bench"
    specs = {"sparse_grid-seed0": dict(height=3, width=3, seed=0),
             "sparse_grid-seed1": dict(height=4, width=6, seed=1)}
    rc = main(["bench", "--generate", "sparse_grid:3,3", "--generate",
               "sparse_grid:4,6", "--methods", "trws", "--max-passes", "3",
               "--out-dir", str(out)])
    assert rc == 0
    edges = {name: generate_instance("sparse_grid", **kw).n_edges
             for name, kw in specs.items()}
    mean = sum(edges.values()) / len(edges)
    with open(out / "aggregate.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    for name, n_edges in edges.items():
        last = [r for r in rows if r[0] == name][-1]
        messages, normalized = int(last[3]), float(last[4])
        assert normalized == pytest.approx(messages * mean / n_edges)
        assert normalized != messages
        _, trace_rows = read_trace(out / f"{name}-trws.csv")
        assert trace_rows[-1][:5] == last[2:]


def test_benchmark_tracer_wraps_a_dynamic_run_and_restores_all(monkeypatch):
    # benchmarks/bench_trace.py patches dualbca attributes by name, among
    # them dual_value, primal_round and energy of dualbca.solve and the
    # cover builders of dualbca.covers, which a dynamic run reaches through
    # the module.  A traced run returns what an untraced one does, and
    # every patched attribute is restored afterwards.
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "benchmarks"))
    bench_trace = importlib.import_module("bench_trace")
    modules = set(bench_trace.COUNTED_IN) | {dualbca.cli, dualbca.covers,
                                             dualbca.solve}
    before = {m: dict(vars(m)) for m in modules}
    model = generate_instance("sparse_grid", height=4, width=4, labels=3,
                              seed=0)
    config = SolverConfig("tbca", tree_mode="dynamic", max_passes=3)
    tracer = bench_trace.Tracer()
    with tracer.installed():
        patched = {name for module in modules
                   for name, value in before[module].items()
                   if vars(module)[name] is not value}
        phi, y, trace = dualbca.cli.run(model, config)
    assert {"run", "dual_value", "primal_round", "energy",
            "compute_dynamic_forest"} <= patched
    for module in modules:
        assert vars(module).keys() == before[module].keys()
        for name, value in before[module].items():
            assert vars(module)[name] is value, (module.__name__, name)
    [stats] = tracer.runs
    assert stats.blocks > 0 and stats.cover_s > 0
    phi_, y_, trace_ = dualbca.cli.run(model, config)
    assert phi.values.tobytes() == phi_.values.tobytes()
    assert y.tobytes() == y_.tobytes()
    assert [(r.messages, r.dual, r.primal_energy) for r in trace] == \
        [(r.messages, r.dual, r.primal_energy) for r in trace_]

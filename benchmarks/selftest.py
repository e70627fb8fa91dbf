"""Self-test of the benchmark on tiny instances (a few seconds):

    python3 benchmarks/selftest.py

Checks, for every workload in ``BENCHMARK.json``, that the untraced run
prints exactly the end-to-end metrics and the traced run exactly the
per-layer metrics, each with its declared unit, next to the machine
metadata; and that a solver run which raises is counted as failed (and in
``ok_share``) instead of stopping the benchmark.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run as bench

TINY = {
    "grid_chains": dict(params=dict(height=4, width=4, labels=3), budget=5),
    "complete_dense": dict(params=dict(n_nodes=6, labels=3), budget=5),
    "uai_hard": dict(params=dict(height=4, width=4, labels=3), budget=3),
}
META_KEYS = {"python", "numpy", "numba_importable", "cpu_count",
             "affinity_cpus"}


def invoke(workload, trace):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bench.main(["--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace)])
    *_, meta, last = out.getvalue().strip().splitlines()
    assert code == 0, (workload, trace, code)
    assert meta.startswith("meta "), meta
    assert META_KEYS <= set(json.loads(meta[5:])), meta
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, err.getvalue()


class InjectedFailure(RuntimeError):
    pass


def failing(inner, method):
    """``run`` that raises for one method once the solve is past set-up."""
    def run(model, config):
        if config.method == method and config.max_passes != 0:
            raise InjectedFailure(method)
        return inner(model, config)
    return run


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(bench.WORKLOADS), names
    bench.WORKLOADS = {name: dataclasses.replace(bench.WORKLOADS[name],
                                                 **TINY[name])
                       for name in names}
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = invoke(name, trace)
            assert result["attempted"] >= 1
            # Tiny hard grids have pairwise rows that are all COST_CAP; the
            # solvers then end about 1e-5 below zero on those entries, which
            # fails check_feasible.  The benchmark reports that as failed
            # runs; this self-test only requires clean runs without caps.
            if not bench.WORKLOADS[name].cap_density:
                assert result["correct"] and result["failed"] == 0, result
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            declared = {m["name"]: m["unit"] for m in spec[key]}
            assert units == declared, (name, key, set(units) ^ set(declared))
            assert all(isinstance(v["value"], float)
                       for v in result["metrics"].values())
        print(f"ok  {name}: all metrics printed with their units "
              f"({result['failed']} of {result['attempted']} runs failed "
              f"their checks)")

    # A run that raises is a failure that the benchmark counts and survives.
    for name, module in (("grid_chains", bench.dualbca.solve),
                         ("uai_hard", bench.dualbca.cli)):
        inner = module.run
        module.run = failing(inner, bench.WORKLOADS[name].methods[-1])
        try:
            result, err = invoke(name, 0)
        finally:
            module.run = inner
        ok_share = result["metrics"]["ok_share"]["value"]
        assert not result["correct"] and result["failed"] >= 1, result
        assert InjectedFailure.__name__ in err, err
        assert ok_share == 1 - result["failed"] / result["attempted"], result
        print(f"ok  {name}: {result['failed']} of {result['attempted']} "
              f"runs failed by injection and were counted")
    return 0


if __name__ == "__main__":
    sys.exit(main())

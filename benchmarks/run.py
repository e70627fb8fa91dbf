"""Layered benchmark of the dualbca solvers, timed from outside the solver.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload grid_chains --seed 0 --seconds 20 --trace 0

The benchmark builds its inputs from ``--seed``, times each layer through
the public calls (``generate_instance``/``parse_uai``, ``run`` and
``cli.main``) on its own clock, checks every solver run, and prints one JSON
object as the last line of standard output (times are scaled to a nominal
machine speed, see ``nominal``):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of untraced runs.  ``--trace 1``
reports the per-layer metrics of a traced run (see ``bench_trace.py``) next
to an untraced run of the same inputs; their ratio is ``trace.overhead``.
The line before the result carries machine metadata.  Metric names, units
and bounds are declared in ``BENCHMARK.json`` at the repository root.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set-up is repeated at least SETUP_REPEATS times and, while it is cheap,
# until SETUP_SECONDS have passed; setup_s is the median.
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
SETUP_MAX_REPEATS = 25
# About the median time of `probe()` on the 2-CPU x86_64 VM the baselines in
# BENCH_seed.json were measured on; see `probe`.
PROBE_NOMINAL_S = 0.06
TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class Workload:
    kind: str                 # "generated" (run called directly) | "uai" (cli.main)
    regime: str
    params: dict
    methods: tuple
    budget: int               # message budget is budget * |E| per run
    instances: int = 1
    cap_density: float = 0.0  # uai only: share of pairwise entries set to COST_CAP


# Why each workload exists, and which layer it leaves idle, is recorded in
# BENCHMARK.json.  The sizes follow the layers they stress:
#   grid_chains    32x32x8 grid: SSP/row-column/tree covers and chain/tree
#                  kernels; evaluation is a large share for cheap passes.
#   complete_dense K_50x4: no cover at all; degree 49 makes per-node cost
#                  recomputation dominate (the bypass for cover changes).
#   uai_hard       two 32x32x16 grids with hard constraints, solved through
#                  `dualbca bench`: UAI parsing, trace I/O and the worker pool.
WORKLOADS = {
    "grid_chains": Workload(
        "generated", "sparse_grid", dict(height=32, width=32, labels=8),
        ("spam", "dmm", "tbca", "trws"), budget=50),
    "complete_dense": Workload(
        "generated", "complete", dict(n_nodes=50, labels=4),
        ("msd", "cmp", "trws", "mplp", "mplppp"), budget=30),
    "uai_hard": Workload(
        "uai", "sparse_grid", dict(height=32, width=32, labels=16),
        ("trws", "tbcapp", "mplppp"), budget=5, instances=2, cap_density=0.3),
}

ALL_METHODS = ("msd", "cmp", "trws", "mplp", "mplppp", "dmm", "tbca",
               "tbcapp", "spam")
COVER_METHODS = ("dmm", "tbca", "tbcapp", "spam")


def _import_dualbca():
    """Import the package from this checkout's ``src``; exit 2 without it."""
    if not (SRC / "dualbca" / "__init__.py").is_file():
        print(f"benchmark: no dualbca package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import dualbca
    if Path(dualbca.__file__).resolve().parent != (SRC / "dualbca").resolve():
        print(f"benchmark: dualbca imported from {dualbca.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return dualbca


dualbca = _import_dualbca()
import numpy as np                                            # noqa: E402
import dualbca.cli                                            # noqa: E402
import dualbca.solve                                          # noqa: E402
from dualbca import (COST_CAP, GraphicalModel, SolverConfig,  # noqa: E402
                     check_feasible, energy, generate_instance, parse_uai,
                     write_uai)
from bench_trace import Tracer                                # noqa: E402


def clock():
    return time.perf_counter()


def probe():
    """Time a fixed piece of work that does not touch dualbca.  The work
    mimics the solvers' hot path: Python-level calls on tiny numpy arrays."""
    t0 = clock()
    s = 0
    for i in range(300_000):
        s += i * i
    a = np.arange(8.0)
    b = np.ones((8, 8))
    for _ in range(4_000):
        c = b + a[:, None]
        a = a - 0.5 * c.min(axis=0)
    return clock() - t0


def timed(fn, *args):
    """Call `fn` between two probes; returns (result or None, traceback or
    None, raw seconds, nominal seconds)."""
    before = probe()
    t0 = clock()
    try:
        result, error = fn(*args), None
    except Exception:
        result, error = None, traceback.format_exc()
    raw = clock() - t0
    return result, error, raw, nominal(raw, before, probe())


def nominal(seconds, before, after):
    """`seconds` at the nominal machine speed.

    On a shared machine the speed this process gets moves by up to 2x over
    seconds and minutes with the neighbours' load, and the timed calls move
    with it; the probes just before and after a call move with them (on
    uai_hard set-up, r = 0.8 over 41 repeats).  Each timed call is
    therefore scaled by PROBE_NOMINAL_S over the mean of its two probes,
    and medians are taken over the scaled times.  The raw wall times are
    kept in the metadata line."""
    return seconds * PROBE_NOMINAL_S / ((before + after) / 2)


def metadata():
    try:
        import numba                                          # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {"python": platform.python_version(), "numpy": np.__version__,
            "numba_importable": has_numba, "cpu_count": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


# -- inputs -----------------------------------------------------------------

def instance_seeds(seed, n):
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def hard_grid(wl, seed):
    """A grid whose pairwise tables forbid (COST_CAP) a share of the entries,
    except along one planted labeling, so that a finite optimum exists."""
    rng = np.random.default_rng(seed)
    base = generate_instance(wl.regime, seed=int(rng.integers(2**31 - 1)),
                             **wl.params)
    planted = rng.integers(0, np.array(base.labels))
    pairwise = []
    for (u, v), table in zip(base.edges, base.pairwise):
        table = table.copy()
        forbid = rng.random(table.shape) < wl.cap_density
        forbid[planted[u], planted[v]] = False
        table[forbid] = COST_CAP
        pairwise.append(table)
    return GraphicalModel(base.labels, base.edges, base.unary, pairwise)


def make_inputs(wl, seed, workdir):
    """Generated workloads: generator kwargs.  uai: paths of written files."""
    seeds = instance_seeds(seed, wl.instances)
    if wl.kind == "generated":
        return [dict(regime=wl.regime, seed=s, **wl.params) for s in seeds]
    paths = []
    for i, s in enumerate(seeds):
        path = workdir / f"hard-{i}.uai"
        write_uai(hard_grid(wl, s), path)
        paths.append(path)
    return paths


def load(wl, inputs):
    if wl.kind == "generated":
        return [generate_instance(**kw) for kw in inputs]
    return [parse_uai(p)[0] for p in inputs]


def setup(wl, inputs):
    """Load plus one zero-pass run per (instance, method): time to D_0."""
    t0 = clock()
    models = load(wl, inputs)
    t1 = clock()
    d0 = {}
    for i, model in enumerate(models):
        for m in wl.methods:
            _, _, trace = dualbca.solve.run(model, SolverConfig(m, max_passes=0))
            d0[i, m] = trace[0].dual
    return models, d0, t1 - t0, clock() - t0


# -- checks -----------------------------------------------------------------

def check_run(model, result):
    """Return a list of failed checks for one (phi, labeling, trace) result."""
    phi, y, trace = result
    errors = []
    if not check_feasible(model, phi):
        errors.append("final phi infeasible")
    duals = [r.dual for r in trace]
    if any(b < a - TOL * max(1.0, abs(a)) for a, b in zip(duals, duals[1:])):
        errors.append("trace dual decreased")
    last = trace[-1]
    e = energy(model, y)
    if abs(e - last.primal_energy) > TOL * max(1.0, abs(e)):
        errors.append(f"energy(y)={e!r} != reported primal {last.primal_energy!r}")
    if last.dual > last.primal_energy + TOL * abs(last.dual):
        errors.append("dual exceeds primal")
    return errors


def capped(model, y):
    """(pays any COST_CAP entry, share of edges whose pair is not capped,
    energy of `y` without its COST_CAP terms)."""
    unary = [float(t[y[u]]) for u, t in enumerate(model.unary)]
    pair = [float(t[y[u], y[v]])
            for (u, v), t in zip(model.edges, model.pairwise)]
    hit = [c >= COST_CAP for c in pair]
    free = 1.0 - sum(hit) / len(hit) if hit else 1.0
    free_energy = sum(c for c in unary + pair if c < COST_CAP)
    return any(c >= COST_CAP for c in unary) or any(hit), free, free_energy


def check_cli_outputs(out_dir, names, methods, traces):
    """`dualbca bench` must leave one trace CSV per (file, method) and an
    aggregate whose last rows match each trace.  Returns errors per
    (name, method); a missing or extra file fails every run."""
    errors = {(n, m): [] for n in names for m in methods}
    expected = {f"{n}-{m}.csv" for n, m in errors}
    found = {p.name for p in out_dir.glob("*.csv")} - {"aggregate.csv"}
    if found != expected:
        msg = f"trace files {sorted(found)} != {sorted(expected)}"
        return {key: [msg] for key in errors}
    last_agg = {}
    with open(out_dir / "aggregate.csv", newline="") as f:
        for row in csv.DictReader(f):
            last_agg[row["instance"], row["method"]] = row
    for (n, m), errs in errors.items():
        with open(out_dir / f"{n}-{m}.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        agg = last_agg.get((n, m))
        if not rows or agg is None:
            errs.append("trace or aggregate rows missing")
            continue
        for key in ("pass", "messages", "normalized_messages", "dual",
                    "primal"):
            if rows[-1][key] != agg[key]:
                errs.append(f"aggregate {key} {agg[key]} != trace "
                            f"{rows[-1][key]}")
        trace = traces.get((n, m))
        if trace is not None and rows[-1]["dual"] != repr(trace[-1].dual):
            errs.append("trace CSV dual differs from the run's trace")
    return errors


# -- one round ----------------------------------------------------------------

@dataclasses.dataclass
class RunOutcome:
    instance: int
    method: str
    seconds: float = 0.0
    messages: int = 0
    passes: int = 0
    dual0: float = 0.0
    dual: float = 0.0
    primal: float = 0.0
    primal_free: float = 0.0          # primal without its COST_CAP terms
    cap_hit: bool = False
    cap_free_edges: float = 1.0
    stop: str = ""
    errors: list = dataclasses.field(default_factory=list)

    @property
    def failed(self):
        return bool(self.errors)


def outcome_from(model, budget, i, method, result, seconds, d0):
    out = RunOutcome(i, method, seconds=seconds)
    try:
        out.errors = check_run(model, result)
        _, y, trace = result
        out.messages = trace[-1].messages
        out.passes = trace[-1].pass_index
        out.dual0 = trace[0].dual
        out.dual = trace[-1].dual
        out.primal = trace[-1].primal_energy
        out.cap_hit, out.cap_free_edges, out.primal_free = capped(model, y)
        out.stop = "budget" if out.messages >= budget else "tol"
        if trace[0].dual != d0:
            out.errors.append("pass-0 dual differs from the set-up run")
    except Exception as exc:                 # a check that raises is a failure
        out.errors.append(f"check raised {exc!r}")
    return out


@dataclasses.dataclass
class Round:
    outcomes: list
    seconds: float            # nominal: sum over runs, uai: the one call
    raw_seconds: float


def round_generated(wl, models, budget, d0, solve_run):
    outcomes, raw_total = [], 0.0
    for i, model in enumerate(models):
        for m in wl.methods:
            config = SolverConfig(m, max_passes=None, max_messages=budget)
            result, error, raw, seconds = timed(solve_run, model, config)
            raw_total += raw
            if error:
                outcomes.append(RunOutcome(i, m, seconds=seconds,
                                           errors=[error]))
                continue
            outcomes.append(outcome_from(model, budget, i, m, result, seconds,
                                         d0[i, m]))
    return Round(outcomes, sum(o.seconds for o in outcomes), raw_total)


def round_uai(wl, budget, d0, inputs, workdir, tracer=None):
    """One in-process `dualbca bench` call over all files and methods.

    Pass-through wrappers on ``cli.parse_uai`` and ``cli.run`` keep each
    run's result for the checks; they add no timers."""
    out_dir = workdir / "bench-out"
    shutil.rmtree(out_dir, ignore_errors=True)
    names = [Path(p).name for p in inputs]
    argv = ["bench", "--models", *map(str, inputs), "--methods", *wl.methods,
            "--max-messages", str(budget), "--out-dir", str(out_dir)]
    file_of, results = {}, {}
    inner_parse, inner_run = dualbca.cli.parse_uai, dualbca.cli.run

    def parse_capture(path, **kwargs):
        parsed = inner_parse(path, **kwargs)
        file_of[id(parsed[0])] = names.index(Path(path).name)
        return parsed

    def run_capture(model, config):
        result = inner_run(model, config)
        results[file_of[id(model)], config.method] = (model, result)
        return result

    def call():
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            if tracer is None:
                return dualbca.cli.main(argv)
            with tracer.span("cli.main", root=True):
                return dualbca.cli.main(argv)

    stdout, stderr = io.StringIO(), io.StringIO()
    dualbca.cli.parse_uai, dualbca.cli.run = parse_capture, run_capture
    try:
        code, error, raw, seconds = timed(call)
    finally:
        dualbca.cli.parse_uai, dualbca.cli.run = inner_parse, inner_run
    if not error and code != 0:
        error = f"exit code {code}: {stderr.getvalue()}"

    file_errors = {} if error else check_cli_outputs(
        out_dir, names, wl.methods,
        {(names[i], m): r[2] for (i, m), (_, r) in results.items()})
    outcomes = []
    for i in range(len(inputs)):
        for m in wl.methods:
            if error or (i, m) not in results:
                outcomes.append(RunOutcome(i, m, errors=[error or "no run"]))
                continue
            model, result = results[i, m]
            o = outcome_from(model, budget, i, m, result, 0.0, d0[i, m])
            o.errors += file_errors[names[i], m]
            outcomes.append(o)
    return Round(outcomes, seconds, raw)


def do_round(wl, models, budget, d0, inputs, workdir, tracer=None):
    """One round over every (instance, method); `models` is None for uai,
    where `cli.main` parses its own copies of the files."""
    if wl.kind == "uai":
        if tracer is None:
            return round_uai(wl, budget, d0, inputs, workdir)
        with tracer.installed():
            return round_uai(wl, budget, d0, inputs, workdir, tracer)
    if tracer is None:
        return round_generated(wl, models, budget, d0, dualbca.solve.run)
    with tracer.installed():
        return round_generated(wl, models, budget, d0,
                               tracer.run(dualbca.solve.run))


# -- metrics ----------------------------------------------------------------

def metric(value, unit):
    return {"value": float(value), "unit": unit}


def solve_seconds(wl, rounds):
    """Sum over runs of each run's median time (uai: median call time)."""
    if wl.kind == "uai":
        return statistics.median(r.seconds for r in rounds)
    per_run = {}
    for r in rounds:
        for o in r.outcomes:
            per_run.setdefault((o.instance, o.method), []).append(o.seconds)
    return sum(statistics.median(v) for v in per_run.values())


def quality(outcomes):
    """Quality of the runs that passed their checks.

    dual_gain: mean over runs of (D_final - D_0) / |D_final|.
    rel_gap:   sum over runs of (primal - D_final) / sum of |D_final|, with
               the primal's COST_CAP terms left out: one capped edge would
               outweigh every other term, and cap_free_edges counts those.
    Both divide by the final dual rather than by D_0 or per run: D_0 and the
    per-run gaps vary several times more from instance to instance than the
    final dual does, and the benchmark compares medians across seeds."""
    ok = [o for o in outcomes if not o.failed]
    gains = [(o.dual - o.dual0) / abs(o.dual) for o in ok if o.dual]
    scale = sum(abs(o.dual) for o in ok)
    return {
        "dual_gain": statistics.mean(gains) if gains else 0.0,
        "rel_gap": (sum(o.primal_free - o.dual for o in ok) / scale
                    if scale else 0.0),
        "cap_hit_share": (sum(o.cap_hit for o in ok) / len(ok)) if ok else 1.0,
        "cap_free_edges": (statistics.mean(o.cap_free_edges for o in ok)
                           if ok else 0.0),
    }


def end_to_end(wl, setup_s, rounds):
    first = rounds[0].outcomes
    q = quality(first)
    messages = sum(o.messages for o in first)
    attempted = sum(len(r.outcomes) for r in rounds)
    failed = sum(o.failed for r in rounds for o in r.outcomes)
    solve_s = solve_seconds(wl, rounds)
    return {
        "setup_s": metric(setup_s, "s"),
        "solve_s": metric(solve_s, "s"),
        "us_per_msg": metric(1e6 * solve_s / max(messages, 1), "us"),
        "dual_gain": metric(q["dual_gain"], "ratio"),
        "rel_gap": metric(q["rel_gap"], "ratio"),
        "cap_free_edges": metric(q["cap_free_edges"], "ratio"),
        "ok_share": metric(1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(wl, load_s, parse_bytes, tracer, traced, untraced):
    """Per-layer metrics of the first traced round; its spans are scaled
    to nominal speed by the round's own factor."""
    speed = traced[0].seconds / traced[0].raw_seconds
    runs = tracer.runs
    run_s = speed * sum(r.seconds for r in runs)
    cover_s = speed * sum(r.cover_s for r in runs)
    eval_s = speed * sum(r.eval_s for r in runs)
    sweep_s = run_s - cover_s - eval_s
    messages = sum(r.result[2][-1].messages for r in runs if r.result)
    records = sum(r.records for r in runs)
    outcomes = traced[0].outcomes
    q = quality(outcomes)
    out = {
        "generate.load_s": metric(load_s, "s"),
        "uai.parse_s": metric(load_s if wl.kind == "uai" else 0.0, "s"),
        "uai.parse_MBps": metric(parse_bytes / 1e6 / load_s
                                 if wl.kind == "uai" else 0.0, "MB/s"),
        "solve.run_s": metric(run_s, "s"),
        "covers.build_s": metric(cover_s, "s"),
        "covers.share": metric(cover_s / run_s, "ratio"),
        "sweep.s": metric(sweep_s, "s"),
        "sweep.us_per_msg": metric(1e6 * sweep_s / max(messages, 1), "us"),
        "model.eval_s": metric(eval_s, "s"),
        "model.eval_ms_per_record": metric(1e3 * eval_s / max(records, 1), "ms"),
        "model.eval_share": metric(eval_s / run_s, "ratio"),
        "solve.fail_share": metric(
            sum(o.failed for o in outcomes) / len(outcomes), "ratio"),
        "solve.cap_hit_share": metric(q["cap_hit_share"], "ratio"),
    }
    for name in ("unary_costs", "pairwise_costs"):
        calls = sum(r.calls[name, "sweep"] for r in runs)
        out[f"model.{name}_calls_per_msg"] = metric(calls / max(messages, 1),
                                                    "calls/msg")
    for m in COVER_METHODS:
        mine = [r for r in runs if r.method == m]
        blocks = sum(r.blocks for r in mine)
        out[f"covers.build_s.{m}"] = metric(
            speed * sum(r.cover_s for r in mine), "s")
        out[f"covers.blocks.{m}"] = metric(blocks / len(mine) if mine else 0,
                                           "count")
        out[f"covers.mean_block_edges.{m}"] = metric(
            sum(r.block_edges for r in mine) / blocks if blocks else 0, "edges")
    for m in ALL_METHODS:
        mine = [o for o in outcomes if o.method == m and not o.failed]
        msgs = sum(o.messages for o in mine)
        passes = sum(o.passes for o in mine)
        out[f"updates.messages.{m}"] = metric(msgs, "count")
        out[f"updates.messages_per_pass.{m}"] = metric(
            msgs / passes if passes else 0, "count")
        out[f"solve.passes.{m}"] = metric(passes / len(mine) if mine else 0,
                                          "count")
        mq = quality(mine)
        out[f"solve.dual_gain.{m}"] = metric(mq["dual_gain"], "ratio")
        out[f"solve.rel_gap.{m}"] = metric(mq["rel_gap"], "ratio")
    is_cli = wl.kind == "uai"
    for name, value in (("cli.wall_s", tracer.total("cli.main")),
                        ("cli.parse_s", tracer.total("parse_uai")),
                        ("cli.run_s_sum", run_s / speed),
                        ("cli.io_s", tracer.total("write_trace"))):
        out[name] = metric(speed * value if is_cli else 0.0, "s")
    out["trace.overhead"] = metric(
        solve_seconds(wl, traced) / solve_seconds(wl, untraced) - 1.0, "ratio")
    return out


# -- driver -------------------------------------------------------------------

def measure(wl, seed, seconds, trace, workdir):
    t_prep = clock()
    inputs = make_inputs(wl, seed, workdir)
    prep_s = clock() - t_prep
    parse_bytes = sum(os.path.getsize(p) for p in inputs) \
        if wl.kind == "uai" else 0
    load_s, setup_s, raw_setup_s, t0 = [], [], [], clock()
    while len(setup_s) < SETUP_REPEATS or (
            len(setup_s) < SETUP_MAX_REPEATS and clock() - t0 < SETUP_SECONDS):
        models = None            # one set of models alive at a time
        before = probe()
        models, d0, load, total = setup(wl, inputs)
        after = probe()
        load_s.append(nominal(load, before, after))
        setup_s.append(nominal(total, before, after))
        raw_setup_s.append(total)
    # All instances of a workload have the same size.
    budget = wl.budget * models[0].n_edges
    if wl.kind == "uai":
        # Dropping the models keeps them out of peak_rss_mb while `cli.main`
        # parses its own copies.
        models = None
    load_s = statistics.median(load_s)
    setup_s = statistics.median(setup_s)
    # Rounds repeat until `seconds` have passed.  A traced round follows each
    # untraced one; the per-layer figures come from the first traced round.
    untraced, traced, tracers = [], [], []
    t0 = clock()
    while True:
        untraced.append(do_round(wl, models, budget, d0, inputs, workdir))
        if trace:
            tracers.append(Tracer())
            traced.append(do_round(wl, models, budget, d0, inputs, workdir,
                                   tracers[-1]))
        if clock() - t0 >= seconds:
            break
    tracer = tracers[0] if tracers else None
    rounds = untraced + traced
    attempted = sum(len(r.outcomes) for r in rounds)
    failed = sum(o.failed for r in rounds for o in r.outcomes)
    for o in (o for r in rounds for o in r.outcomes if o.failed):
        print(f"FAILED instance {o.instance} {o.method}: "
              + "; ".join(o.errors), file=sys.stderr)
    if trace:
        metrics = per_layer(wl, load_s, parse_bytes, tracer, traced, untraced)
    else:
        metrics = end_to_end(wl, setup_s, untraced)
    meta = {**metadata(), "rounds": len(untraced), "traced_rounds": len(traced),
            "setup_repeats": len(raw_setup_s), "input_prep_s": prep_s,
            "raw_setup_s": statistics.median(raw_setup_s),
            "raw_round_s": [r.raw_seconds for r in untraced],
            "raw_traced_round_s": [r.raw_seconds for r in traced],
            "stop_reasons": sorted({o.stop for o in untraced[0].outcomes})}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, meta, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    if wl.kind == "uai":
        # The bench pool never gets more workers than usable cores.
        os.environ["BCA_MAP_THREADS"] = str(len(os.sched_getaffinity(0)))
    try:
        result, meta, tracer = measure(wl, args.seed, args.seconds,
                                       args.trace, workdir)
        if args.trace:
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_jsonl(spans)
            meta["spans_file"] = str(spans.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("meta " + json.dumps({"workload": args.workload, "seed": args.seed,
                                **meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

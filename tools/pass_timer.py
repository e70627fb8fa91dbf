"""Interleaved per-pass timing of two checkouts in one process.

    python tools/pass_timer.py PARENT CHANGE [--passes N] [--seed S]
                               [--only WORKLOAD/METHOD ...] [--json FILE]

PARENT and CHANGE are checkouts of this repository.  Each one's
``src/dualbca`` is copied into a temporary directory under its own package
name and imported from there, so both run in one process and nothing is
written into either checkout.  Per workload-shaped model and method, one
``solve._Run`` per side runs a first pass (which compiles its program),
then N passes alternating between the sides, the parent first on even
rounds, each timed with ``time.process_time``.  The models:

- ``grid``: the 32x32x8 ``sparse_grid`` of grid_chains (spam, dmm, tbca,
  trws);
- ``k50``: K_50 with 4 labels, as complete_dense (msd, cmp, trws, mplp,
  mplppp), and tbcapp, whose program runs 4,900 one-operation batches;
- ``hard``: a 32x32x16 ``sparse_grid`` with 30% of its table entries at
  COST_CAP off a planted labeling, the shape of uai_hard's grids (trws,
  tbcapp, mplppp);
- ``grid3``: the seed-15 32x32x3 grid, ``tbca`` with static and with
  dynamic trees (``tbca-dynamic``), whose ratio is ROADMAP item 7's.

After each pass, the side's per-pass record is timed as ``solve.run``
makes it (``model._evaluate``, then ``model.energy`` of the rounding); the
next pass starts from the node costs of its evaluation, and a dynamic run
builds its forest from it, as in ``solve.run``.  After the passes, N
rounds alternate the same way in building and compiling each side's
program afresh (``_Run.program`` with the program reset, then
``Program._compile``), with the collector off, timed in three parts:
emission (``_Run.program``), levelling (``Program._level``) and the rest
of the compile.  A static run's program is built from nothing bound, as
at its first pass, and that first pass is timed too, on a copy of phi:
what it takes beyond the side's median pass is added to the build, so
work that a side does only at a program's first run (recording what its
later passes replay, say) counts as build, not as free.  A dynamic run
keeps the views it bound for earlier passes (see ``time_builds``).

Printed per (model, method): the median and quartiles of each side in ms,
the change's median over the parent's, in how many rounds the change was
faster, and whether phi is byte for byte the same on both sides after all
passes; then each side's median build and compile, and after how many
passes the change has made up for what it costs more to build, so that
from then on its build and passes cost no more than the parent's (0
where it costs no more to build and no more per pass, "never" where its
median pass is slower), each side's build medians by part (the first
pass without the extra that the build takes over) and its median
record, and each side's median of a pass plus the record after it, with
the change's over the parent's and in how many rounds the change was
faster.  A run pays for both, and a pass can save what its record
already did, so the pass alone overstates such a gain.  A change that
moves work from passes into compiling shows both halves.  A dynamic run
builds and compiles every pass, so its pass times include both.  Then, per side, the grid spam/dmm pass ratio (ROADMAP item
5) and the dynamic/static tbca one (item 7), and per workload the summed
build medians of the methods its benchmark workload runs (``BUILD_SUMS``).
Then the load layer: per model, each side's median of N alternated rounds
of ``generate_instance`` (for ``hard``, of its uncapped grid), and of
building the ``hard`` model from per-node and per-edge lists, as the UAI
parser does (``hard_lists``).
Last, per side, the lines and characters of its ``src/dualbca`` modules
and the characters of its largest one (ROADMAP aim 2 counts the lines;
compiling a module from source peaks with its size, which a benchmark's
``peak_rss_mb`` can read).  ``--json`` also writes these rows, ratios,
sums, load medians (``load``) and sizes to a file.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

SIDES = ("pass_timer_parent", "pass_timer_change")     # package names
WORKLOADS = {
    "grid": ("spam", "dmm", "tbca", "trws"),
    "k50": ("msd", "cmp", "trws", "mplp", "mplppp", "tbcapp"),
    "hard": ("trws", "tbcapp", "mplppp"),
    "grid3": ("tbca", "tbca-dynamic"),
}
# The methods of the benchmark workload that each model stands for.
BUILD_SUMS = {"grid": WORKLOADS["grid"], "k50": WORKLOADS["k50"][:5],
              "hard": WORKLOADS["hard"]}
BUILD_PARTS = ("emit", "level", "compile", "first_pass")


def load(checkout, name, tmp):
    """Import ``checkout``'s ``src/dualbca`` as package ``name``."""
    shutil.copytree(Path(checkout) / "src" / "dualbca", Path(tmp) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return {m: importlib.import_module(f"{name}.{m}")
            for m in ("generate", "model", "solve")}


def source_size(checkout):
    """Lines and characters of ``checkout``'s ``src/dualbca`` modules, and
    the name and characters of the largest one."""
    texts = {p.name: p.read_text() for p in
             sorted((Path(checkout) / "src" / "dualbca").glob("*.py"))}
    largest = max(texts, key=lambda name: len(texts[name]))
    return {"lines": sum(t.count("\n") for t in texts.values()),
            "chars": sum(map(len, texts.values())),
            "largest_module": largest,
            "largest_module_chars": len(texts[largest])}


def record(pkg, state):
    """One per-pass record of ``state`` as ``solve.run`` makes it.  Its
    evaluation is left for the next pass's dynamic forest, as there."""
    model = pkg["model"]
    state.evaluation = ev = model._evaluate(state.model, state.phi)
    model.energy(state.model, ev.y)


def generated(pkg, workload, seed):
    """``generate_instance`` of ``workload``'s model; for ``hard``, of the
    grid that its caps are put on."""
    generate = pkg["generate"].generate_instance
    if workload == "k50":
        return generate("complete", n_nodes=50, labels=4, seed=seed)
    labels = {"grid": 8, "grid3": 3, "hard": 16}[workload]
    return generate("sparse_grid", height=32, width=32, labels=labels,
                    seed=15 if workload == "grid3" else seed)


def hard_lists(pkg, seed):
    """The arguments of ``GraphicalModel`` for the ``hard`` model, as
    per-node and per-edge lists, the way the UAI parser gives them.  As
    tests/test_plans.capped_grid and benchmarks/run.py's hard grids."""
    rng = np.random.default_rng(seed)
    base = generated(pkg, "hard", seed)
    planted = rng.integers(0, 16, base.n_nodes)
    pairwise = []
    for (u, v), table in zip(base.edges, base.pairwise):
        table = table.copy()
        forbid = rng.random(table.shape) < 0.3
        forbid[planted[u], planted[v]] = False
        table[forbid] = pkg["model"].COST_CAP
        pairwise.append(table)
    return list(base.labels), list(base.edges), list(base.unary), pairwise


def build(pkg, workload, seed):
    if workload == "hard":
        return pkg["model"].GraphicalModel(*hard_lists(pkg, seed))
    return generated(pkg, workload, seed)


def time_loads(pkgs, seed, rounds):
    """Per side, the medians in ms of ``rounds`` alternated rounds of
    ``generate_instance`` for each model (``generated``) and of building
    the ``hard`` model from its lists (``hard_lists``), the UAI path."""
    lists = [hard_lists(p, seed) for p in pkgs]
    calls = [{**{w: partial(generated, p, w, seed) for w in WORKLOADS},
              "hard_lists": partial(p["model"].GraphicalModel, *a)}
             for p, a in zip(pkgs, lists)]
    times = [{name: [] for name in side} for side in calls]
    gc.collect()
    for i in range(rounds):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            for name, call in calls[side].items():
                t0 = time.process_time()
                call()
                times[side][name].append(time.process_time() - t0)
    return {side: {name: round(statistics.median(t) * 1e3, 3)
                   for name, t in times[i].items()}
            for i, side in enumerate(("parent", "change"))}


def start(pkg, model, method):
    """A run of ``method`` (``-dynamic``: on dynamic trees) after its first
    pass."""
    name, _, mode = method.partition("-")
    state = pkg["solve"]._Run(model, pkg["solve"].SolverConfig(
        name, tree_mode=mode or "static"))
    state.do_pass()
    return state


def time_passes(pkgs, states, passes):
    """Per side, the process time of each of ``passes`` alternated passes,
    and of the record after each.  The garbage collector stays on, as in a
    solve: with it off through all the passes of a full run, the dynamic
    tbca passes, which come last, read about 1.5x what they read alone."""
    times, records = [[] for _ in states], [[] for _ in states]
    gc.collect()
    for i in range(passes):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            t0 = time.process_time()
            states[side].do_pass()
            t1 = time.process_time()
            record(pkgs[side], states[side])
            times[side].append(t1 - t0)
            records[side].append(time.process_time() - t1)
    return times, records


def time_builds(states, rounds, dynamic):
    """Per side, the process times of building and compiling the program
    of its next pass afresh, in ``rounds`` alternated rounds, as (whole,
    emission, levelling, rest of the compile, first pass).  A static run
    builds its program once, so each round starts it with nothing bound (a
    new ``_scratch``) and then times the program's first pass, compile
    left out, on a copy of phi from the node costs of its last record, as
    ``do_pass`` runs it: whatever a side does at a program's first pass
    and not at later ones counts (with the collector off, as the build;
    a collection of what it leaves falls on later passes, which
    ``time_passes`` times with it on).  A dynamic run builds one every
    pass and keeps what it bound for the earlier ones; its passes include
    their build, so it runs none here (first pass 0)."""
    times = [[] for _ in states]
    gc.collect()
    gc.disable()
    try:
        for i in range(rounds):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                state, spent, compiled = states[side], [], []
                phi = state.phi.copy()
                t0 = time.process_time()
                state._program = None
                if not dynamic:
                    state._scratch = type(state._scratch)()
                prog = state.program()
                t1 = time.process_time()
                prog._level = timed(prog._level, spent)
                prog._compile = timed(prog._compile, compiled)
                if dynamic:
                    prog._compile()
                else:
                    prog.run(phi, None, state.evaluation.costs)
                first = 0.0 if dynamic else \
                    time.process_time() - t1 - compiled[0]
                times[side].append((t1 - t0 + compiled[0], t1 - t0,
                                    sum(spent), compiled[0] - sum(spent),
                                    first))
    finally:
        gc.enable()
    return times


def build_medians(rounds, pass_s, dynamic):
    """Medians in ms of one side's ``time_builds`` rounds, part by part.
    For a static run the whole build also takes what the program's first
    pass costs beyond the side's median pass ``pass_s``: the median of
    the whole plus the first pass, less ``pass_s``."""
    parts = [statistics.median(part) * 1e3 for part in zip(*rounds)]
    if not dynamic:
        parts[0] = (statistics.median(r[0] + r[4] for r in rounds)
                    - pass_s) * 1e3
    return parts


def timed(fn, spent):
    """``fn``, appending the process time of each call to ``spent``."""
    def call(*args):
        t0 = time.process_time()
        out = fn(*args)
        spent.append(time.process_time() - t0)
        return out
    return call


def break_even(pass_ms, build_ms):
    """Passes from which on the change's build and passes cost no more
    than the parent's, by (parent, change) medians: its extra build time
    over the time it saves per pass, rounded up; ``None`` (never) where it
    saves nothing per pass and costs more to build, or is slower per
    pass."""
    saved = pass_ms[0] - pass_ms[1]
    extra = build_ms[1] - build_ms[0]
    if extra <= 0 and saved >= 0:
        return 0
    if extra > 0 and saved > 0:
        return math.ceil(extra / saved)
    return None


def quartiles(ms):
    q = statistics.quantiles(ms, n=4, method="inclusive")
    return [round(q[0], 3), round(q[2], 3)]


def pass_ratios(rows):
    """Per side, the median pass of ROADMAP item 5 (grid spam over dmm) and
    item 7 (dynamic over static tbca on grid3), where both were timed."""
    median = {r["case"]: r for r in rows}
    ratios = {}
    for name, over, under in (("spam/dmm", "grid/spam", "grid/dmm"),
                              ("dynamic/static tbca", "grid3/tbca-dynamic",
                               "grid3/tbca")):
        if over in median and under in median:
            ratios[name] = {side: round(median[over][f"{side}_median_ms"]
                                        / median[under][f"{side}_median_ms"],
                                        3)
                            for side in ("parent", "change")}
    return ratios


def build_sums(rows):
    """Per workload of ``BUILD_SUMS`` whose methods were all timed, each
    side's summed build median and the change's sum over the parent's."""
    median = {r["case"]: r for r in rows}
    sums = {}
    for workload, methods in BUILD_SUMS.items():
        cases = [median.get(f"{workload}/{m}") for m in methods]
        if all(cases):
            total = [round(sum(r[f"{side}_build_median_ms"] for r in cases), 3)
                     for side in ("parent", "change")]
            sums[workload] = {"parent": total[0], "change": total[1],
                              "ratio": round(total[1] / total[0], 3)}
    return sums


def run_all(pkgs, args):
    """One row per timed (model, method)."""
    rows = []
    for workload, methods in WORKLOADS.items():
        models = None
        for method in methods:
            if args.only is not None and \
                    f"{workload}/{method}" not in args.only:
                continue
            if models is None:
                models = [build(p, workload, args.seed) for p in pkgs]
            states = [start(p, m, method) for p, m in zip(pkgs, models)]
            times, records = time_passes(pkgs, states, args.passes)
            parent, change = ([t * 1e3 for t in side] for side in times)
            whole = [[(t + r) * 1e3 for t, r in zip(*side)]
                     for side in zip(times, records)]
            dynamic = method.endswith("-dynamic")
            builds = [build_medians(rounds, statistics.median(t), dynamic)
                      for rounds, t in zip(time_builds(states, args.passes,
                                                       dynamic), times)]
            row = {
                "case": f"{workload}/{method}",
                "passes": args.passes,
                "parent_median_ms": round(statistics.median(parent), 3),
                "parent_quartiles_ms": quartiles(parent),
                "change_median_ms": round(statistics.median(change), 3),
                "change_quartiles_ms": quartiles(change),
                "ratio": round(statistics.median(change)
                               / statistics.median(parent), 3),
                "change_faster_in": sum(c < p for p, c in
                                        zip(parent, change)),
                "pass_record_ratio": round(statistics.median(whole[1])
                                           / statistics.median(whole[0]), 3),
                "pass_record_faster_in": sum(c < p for p, c in zip(*whole)),
                "phi_identical": states[0].phi.values.tobytes()
                == states[1].phi.values.tobytes(),
                "break_even_passes": break_even(
                    (statistics.median(parent), statistics.median(change)),
                    [b[0] for b in builds]),
            }
            for side, parts, rec, both in zip(("parent", "change"), builds,
                                              records, whole):
                row[f"{side}_build_median_ms"] = round(parts[0], 3)
                for name, ms in zip(BUILD_PARTS, parts[1:]):
                    row[f"{side}_{name}_median_ms"] = round(ms, 3)
                row[f"{side}_record_median_ms"] = round(
                    statistics.median(rec) * 1e3, 3)
                row[f"{side}_pass_record_median_ms"] = round(
                    statistics.median(both), 3)
            rows.append(row)
            even = row["break_even_passes"]
            print(f"{row['case']:20s} parent {row['parent_median_ms']:8.3f}"
                  f" ms  change {row['change_median_ms']:8.3f} ms  ratio "
                  f"{row['ratio']:.3f}  faster {row['change_faster_in']}"
                  f"/{args.passes}  phi "
                  f"{'same' if row['phi_identical'] else 'DIFFERS'}\n"
                  f"{'':20s} pass+record parent "
                  f"{row['parent_pass_record_median_ms']:8.3f} ms  change "
                  f"{row['change_pass_record_median_ms']:8.3f} ms  ratio "
                  f"{row['pass_record_ratio']:.3f}  faster "
                  f"{row['pass_record_faster_in']}/{args.passes}\n"
                  f"{'':20s} build parent {builds[0][0]:8.3f} ms  change "
                  f"{builds[1][0]:8.3f} ms  even after "
                  f"{'never' if even is None else even} passes", flush=True)
            for side, parts in zip(("parent", "change"), builds):
                print(f"{'':20s} {side:6s} emit {parts[1]:.3f}  level "
                      f"{parts[2]:.3f}  compile {parts[3]:.3f}  first pass "
                      f"{parts[4]:.3f}  record "
                      f"{row[side + '_record_median_ms']:.3f} ms", flush=True)
            del states
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--passes", type=int, default=41)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--only", nargs="*", default=None,
                        help="WORKLOAD/METHOD pairs, e.g. grid/spam")
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)
    if args.passes < 2:
        parser.error("--passes must be at least 2")
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    cases = {f"{w}/{m}" for w, methods in WORKLOADS.items() for m in methods}
    unknown = sorted(set(args.only or ()) - cases)
    if unknown:
        parser.error(f"--only names no case: {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            pkgs = [load(checkout, name, tmp) for checkout, name in
                    zip((args.parent, args.change), SIDES)]
            rows = run_all(pkgs, args)
            loads = time_loads(pkgs, args.seed, args.passes)
        finally:
            sys.path.remove(tmp)
            for name in [m for m in sys.modules
                         if m.split(".")[0] in SIDES]:
                del sys.modules[name]
    ratios, sums = pass_ratios(rows), build_sums(rows)
    sizes = {side: source_size(checkout) for side, checkout in
             (("parent", args.parent), ("change", args.change))}
    for name, sides in ratios.items():
        print(f"{name}: parent {sides['parent']:.3f}, change "
              f"{sides['change']:.3f}")
    for workload, total in sums.items():
        print(f"{workload} build sum: parent {total['parent']:.3f} ms, change "
              f"{total['change']:.3f} ms, ratio {total['ratio']:.3f}")
    for name, parent in loads["parent"].items():
        change = loads["change"][name]
        print(f"load {name}: parent {parent:.3f} ms, change {change:.3f} ms, "
              f"ratio {change / parent:.3f}")
    for side, size in sizes.items():
        print(f"{side} src/dualbca: {size['lines']} lines, {size['chars']} "
              f"chars, largest {size['largest_module']} "
              f"{size['largest_module_chars']} chars")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"rows": rows, "ratios": ratios, "build_sums": sums,
             "load": loads, "source": sizes}, indent=1) + "\n")
    return 0 if all(r["phi_identical"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())

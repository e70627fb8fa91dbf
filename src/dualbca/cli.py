"""Command line interface.

Subcommands:
    solve   run one method on one instance, optionally writing a trace CSV
            and a summary JSON
    bench   run a method matrix over a list of instances, one run after
            another, writing one trace CSV per run plus an aggregate CSV
    verify  run the self-check battery on generated small instances

Trace CSV columns: pass,messages,normalized_messages,dual,primal,wall_seconds.
For a single instance normalized_messages equals the raw message count; in
``bench`` aggregates it is scaled by mean(|E|)/|E| over the instance list.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .generate import REGIMES, generate_instance
from .solve import COVERS, METHODS, SolverConfig, normalize_messages, run
from .uai import parse_uai
from .verify import run_all

_GENERATE_HELP = (
    "regime:params, one of sparse_grid:H,W[,labels], "
    "denser:H,W[,labels[,connectivity]], complete:N[,labels]"
)
# The numbers a spec gives, in order; generate_instance has the defaults.
_SPEC_FIELDS = {"sparse_grid": ("height", "width", "labels"),
                "denser": ("height", "width", "labels", "connectivity"),
                "complete": ("n_nodes", "labels")}


def _parse_generate(spec):
    regime, _, rest = spec.partition(":")
    if regime not in REGIMES:
        raise argparse.ArgumentTypeError(
            f"unknown regime {regime!r}, expected one of {', '.join(REGIMES)}")
    fields, parts = _SPEC_FIELDS[regime], rest.split(",") if rest else []
    try:
        if "" in parts or len(parts) > len(fields):
            raise ValueError("an empty or surplus number")
        kwargs = {name: (float if name == "connectivity" else int)(p)
                  for name, p in zip(fields, parts)}
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad generate spec {spec!r}: {exc}")
    if "height" in kwargs:
        kwargs.setdefault("width", kwargs["height"])
    return regime, kwargs


class _Once(argparse.Action):
    """Store the flag's one-item list; the flag given twice is an error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(
                self, "given twice; solve takes one instance")
        setattr(namespace, self.dest, values)


def _instances(args):
    """Each instance as (model, name, shift): ``--models`` (solve: ``--model``)
    first, then ``--generate`` specs, the i-th drawn with seed --seed + i."""
    for path in args.models or ():
        model, shift = parse_uai(path, probabilities=args.probabilities)
        yield model, os.path.basename(path), shift
    for i, (regime, kwargs) in enumerate(args.generate or ()):
        seed = args.seed + i
        yield (generate_instance(regime, seed=seed, **kwargs),
               f"{regime}-seed{seed}", 0.0)


def _configs(args, methods):
    """One run configuration per method, each checked as it is built, so
    before any instance is drawn or file written."""
    return [SolverConfig(method=method, max_passes=args.max_passes,
                         max_messages=args.max_messages,
                         max_seconds=args.max_seconds, tol=args.tol,
                         seed=args.seed, cover=args.cover,
                         tree_mode=args.tree_mode)
            for method in methods]


def _cells(row):
    """The CSV cells of a trace row, floats written exactly."""
    return [row[0], row[1], *map(repr, row[2:])]


def write_trace(path, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["pass", "messages", "normalized_messages", "dual",
                    "primal", "wall_seconds"])
        w.writerows(map(_cells, rows))


def _run_all(args, instances, configs, trace_path):
    """Run each configuration on each instance, ``--order random`` with one
    node order per instance for all of them, and write each run's trace
    rows to ``trace_path(name, method)`` unless that is None.  Returns per
    run its summary and its rows: pass, messages, messages normalised by
    the instances' mean |E|, dual, primal and wall seconds."""
    mean = float(np.mean([model.n_edges for model, _, _ in instances]))
    runs = []
    for model, name, shift in instances:
        order = None
        if args.order == "random":
            order = np.random.default_rng(args.seed).permutation(
                model.n_nodes).tolist()
        runs += [(model, name, shift, replace(config, node_order=order))
                 for config in configs]
    results = []
    for model, name, shift, config in runs:
        result = run(model, config)
        rows = [(r.pass_index, r.messages,
                 normalize_messages(r.messages, model.n_edges, mean),
                 r.dual, r.primal_energy, r.wall_seconds)
                for r in result[2]]
        path = trace_path(name, config.method)
        if path:
            write_trace(path, rows)
        passes, messages, normalized, dual, primal, wall = rows[-1]
        summary = {"instance": name, "method": config.method,
                   "dual": dual + shift, "primal": primal + shift,
                   "gap": primal - dual, "messages": messages,
                   "normalized_messages": normalized, "wall_seconds": wall,
                   "passes": passes, "stop": result.stop}
        results.append((summary, rows))
    return results


def cmd_solve(args):
    configs = _configs(args, [args.method])
    [(summary, _)] = _run_all(args, list(_instances(args)), configs,
                              lambda name, method: args.trace)
    if args.summary:
        with open(args.summary, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
    print(f"{summary['instance']} {args.method}: dual={summary['dual']:.9g} "
          f"primal={summary['primal']:.9g} messages={summary['messages']} "
          f"passes={summary['passes']} stop={summary['stop']}")
    return 0


def cmd_bench(args):
    methods = args.methods or list(METHODS)
    dups = [m for i, m in enumerate(methods) if m in methods[:i]]
    if dups:
        print(f"bench: method {dups[0]!r} is given twice", file=sys.stderr)
        return 2
    configs = _configs(args, methods)
    instances = list(_instances(args))
    if not instances:
        print("bench: no instances given (use --models and/or --generate)",
              file=sys.stderr)
        return 2
    names = [name for _, name, _ in instances]
    dups = [x for i, x in enumerate(names) if x in names[:i]]
    if dups:
        print(f"bench: two instances are named {dups[0]!r}, and traces are "
              "named after instances", file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    results = _run_all(args, instances, configs, lambda name, method:
                       os.path.join(args.out_dir, f"{name}-{method}.csv"))

    agg_path = os.path.join(args.out_dir, "aggregate.csv")
    with open(agg_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["instance", "method", "pass", "messages",
                    "normalized_messages", "dual", "primal"])
        for summary, rows in results:
            for row in rows:
                w.writerow([summary["instance"], summary["method"],
                            *_cells(row)[:5]])
    for summary, _ in results:
        print(f"{summary['instance']} {summary['method']}: "
              f"dual={summary['dual']:.9g} messages={summary['messages']} "
              f"stop={summary['stop']}")
    print(f"wrote {len(results)} traces and {agg_path}")
    return 0


def cmd_verify(args):
    # The checks seed numpy's generator with it, as the SSP cover does.
    if args.seed < 0:
        raise ValueError("seed must be a non-negative integer")
    ok = run_all(seed=args.seed)
    return 0 if ok else 1


def _add_run_flags(p):
    p.add_argument("--max-passes", type=int, default=SolverConfig.max_passes)
    p.add_argument("--max-messages", type=int, default=None)
    p.add_argument("--max-seconds", type=float, default=None)
    p.add_argument("--tol", type=float, default=SolverConfig.tol)
    p.add_argument("--seed", type=int, default=SolverConfig.seed)
    p.add_argument("--order", choices=("input", "random"), default="input")
    p.add_argument("--cover", default=SolverConfig.cover, choices=COVERS)
    p.add_argument("--tree-mode", default=SolverConfig.tree_mode,
                   choices=("static", "dynamic"))
    p.add_argument("--probabilities", action="store_true",
                   help="interpret UAI table entries as probabilities "
                        "(costs = -log p)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dualbca",
        description="Dual block-coordinate ascent MAP solvers for pairwise "
                    "graphical models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one method on one instance")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", dest="models", nargs=1, action=_Once,
                     metavar="MODEL", help="UAI MARKOV model file")
    src.add_argument("--generate", type=_parse_generate, nargs=1,
                     action=_Once, help=_GENERATE_HELP)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--trace", help="write a per-pass trace CSV here")
    p.add_argument("--summary", help="write a run summary JSON here")
    _add_run_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run a method matrix over instances")
    p.add_argument("--models", nargs="*", action="extend",
                   help="UAI MARKOV model files (repeatable)")
    p.add_argument("--generate", type=_parse_generate, action="append",
                   help=_GENERATE_HELP + " (repeatable)")
    p.add_argument("--methods", nargs="*", action="extend", choices=METHODS,
                   help="default: all methods (repeatable)")
    p.add_argument("--out-dir", default="bench-out")
    _add_run_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="run the self-check battery")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"dualbca: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

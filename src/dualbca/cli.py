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

import numpy as np

from .generate import REGIMES, generate_instance
from .solve import COVERS, METHODS, SolverConfig, normalize_messages, run
from .uai import parse_uai
from .verify import run_all

_GENERATE_HELP = (
    "regime:params, one of sparse_grid:H,W[,labels], "
    "denser:H,W[,labels[,connectivity]], complete:N[,labels]"
)


def _parse_generate(spec):
    regime, _, rest = spec.partition(":")
    if regime not in REGIMES:
        raise argparse.ArgumentTypeError(
            f"unknown regime {regime!r}, expected one of {', '.join(REGIMES)}")
    parts = [p for p in rest.split(",") if p] if rest else []
    try:
        if regime == "complete":
            n = int(parts[0]) if parts else 16
            labels = int(parts[1]) if len(parts) > 1 else 3
            return regime, dict(n_nodes=n, labels=labels)
        height = int(parts[0]) if parts else 4
        width = int(parts[1]) if len(parts) > 1 else height
        kwargs = dict(height=height, width=width)
        if len(parts) > 2:
            kwargs["labels"] = int(parts[2])
        if regime == "denser" and len(parts) > 3:
            kwargs["connectivity"] = float(parts[3])
        return regime, kwargs
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad generate spec {spec!r}: {exc}")


def _load_instance(args, seed):
    if args.model is not None:
        model, shift = parse_uai(args.model,
                                 probabilities=getattr(args, "probabilities", False))
        return model, os.path.basename(args.model), shift
    regime, kwargs = args.generate
    model = generate_instance(regime, seed=seed, **kwargs)
    return model, f"{regime}-seed{seed}", 0.0


def _build_config(args, method):
    """The run configuration; a random node order is drawn per instance by
    :func:`_resolve_order`."""
    return SolverConfig(method=method, max_passes=args.max_passes,
                        max_messages=args.max_messages,
                        max_seconds=args.max_seconds, tol=args.tol,
                        seed=args.seed, cover=args.cover,
                        tree_mode=args.tree_mode)


def _resolve_order(config, args, model):
    if args.order == "random":
        rng = np.random.default_rng(args.seed)
        order = [int(u) for u in rng.permutation(model.n_nodes)]
        return SolverConfig(**{**config.__dict__, "node_order": order})
    return config


def write_trace(path, trace, n_edges, mean_edges=None):
    mean = float(n_edges if mean_edges is None else mean_edges)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["pass", "messages", "normalized_messages", "dual",
                    "primal", "wall_seconds"])
        for r in trace:
            w.writerow([r.pass_index, r.messages,
                        repr(normalize_messages(r.messages, n_edges, mean)),
                        repr(r.dual), repr(r.primal_energy),
                        repr(r.wall_seconds)])


def _summary(name, method, model, trace, shift, mean_edges=None):
    last = trace[-1]
    mean = float(model.n_edges if mean_edges is None else mean_edges)
    return {
        "instance": name,
        "method": method,
        "dual": last.dual + shift,
        "primal": last.primal_energy + shift,
        "gap": last.primal_energy - last.dual,
        "messages": last.messages,
        "normalized_messages": normalize_messages(last.messages,
                                                  model.n_edges, mean),
        "wall_seconds": last.wall_seconds,
        "passes": last.pass_index,
    }


def cmd_solve(args):
    model, name, shift = _load_instance(args, args.seed)
    config = _resolve_order(_build_config(args, args.method), args, model)
    phi, y, trace = run(model, config)
    if args.trace:
        write_trace(args.trace, trace, model.n_edges)
    summary = _summary(name, args.method, model, trace, shift)
    if args.summary:
        with open(args.summary, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
    print(f"{name} {args.method}: dual={summary['dual']:.9g} "
          f"primal={summary['primal']:.9g} messages={summary['messages']} "
          f"passes={summary['passes']}")
    return 0


def _bench_job(job):
    model, name, shift, method, config, trace_path, mean_edges = job
    phi, y, trace = run(model, config)
    write_trace(trace_path, trace, model.n_edges, mean_edges)
    rows = [(name, method, r.pass_index, r.messages,
             normalize_messages(r.messages, model.n_edges, mean_edges),
             r.dual, r.primal_energy) for r in trace]
    return _summary(name, method, model, trace, shift, mean_edges), rows


def cmd_bench(args):
    instances = []
    for path in args.models or ():
        model, shift = parse_uai(path, probabilities=args.probabilities)
        instances.append((model, os.path.basename(path), shift))
    for i, spec in enumerate(args.generate or ()):
        regime, kwargs = spec
        seed = args.seed + i
        model = generate_instance(regime, seed=seed, **kwargs)
        instances.append((model, f"{regime}-seed{seed}", 0.0))
    if not instances:
        print("bench: no instances given (use --models and/or --generate)",
              file=sys.stderr)
        return 2
    methods = args.methods or list(METHODS)
    os.makedirs(args.out_dir, exist_ok=True)
    mean_edges = float(np.mean([m.n_edges for m, _, _ in instances]))

    jobs = []
    for model, name, shift in instances:
        for method in methods:
            config = _resolve_order(_build_config(args, method), args, model)
            trace_path = os.path.join(args.out_dir, f"{name}-{method}.csv")
            jobs.append((model, name, shift, method, config, trace_path,
                         mean_edges))
    results = [_bench_job(j) for j in jobs]

    agg_path = os.path.join(args.out_dir, "aggregate.csv")
    with open(agg_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["instance", "method", "pass", "messages",
                    "normalized_messages", "dual", "primal"])
        for _, rows in results:
            for row in rows:
                w.writerow([row[0], row[1], row[2], row[3],
                            repr(float(row[4])), repr(row[5]), repr(row[6])])
    for summary, _ in results:
        print(f"{summary['instance']} {summary['method']}: "
              f"dual={summary['dual']:.9g} messages={summary['messages']}")
    print(f"wrote {len(jobs)} traces and {agg_path}")
    return 0


def cmd_verify(args):
    ok = run_all(seed=args.seed)
    return 0 if ok else 1


def _add_run_flags(p):
    p.add_argument("--max-passes", type=int, default=1000)
    p.add_argument("--max-messages", type=int, default=None)
    p.add_argument("--max-seconds", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", choices=("input", "random"), default="input")
    p.add_argument("--cover", default="auto", choices=COVERS)
    p.add_argument("--tree-mode", default="static",
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
    src.add_argument("--model", help="UAI MARKOV model file")
    src.add_argument("--generate", type=_parse_generate, help=_GENERATE_HELP)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--trace", help="write a per-pass trace CSV here")
    p.add_argument("--summary", help="write a run summary JSON here")
    _add_run_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run a method matrix over instances")
    p.add_argument("--models", nargs="*", help="UAI MARKOV model files")
    p.add_argument("--generate", type=_parse_generate, action="append",
                   help=_GENERATE_HELP + " (repeatable)")
    p.add_argument("--methods", nargs="*", choices=METHODS,
                   help="default: all methods")
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

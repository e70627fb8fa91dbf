"""Spans and call counters recorded from outside the solver.

The tracer replaces module attributes of ``dualbca`` with thin wrappers
for the length of a ``with tracer.installed():`` block and restores them on
exit.  Nothing under ``src/`` changes.  Spans are kept in memory and written
out once, with ``write_jsonl``, when the benchmark ends.

Layers and where they are observed:

* load      ``parse_uai`` as seen from ``dualbca.cli``
* run       ``run`` as seen from ``dualbca.cli`` (and the benchmark's own
            calls, through ``Tracer.run``)
* cover     every cover builder in ``dualbca.covers``
* eval      ``dual_value``, ``primal_round`` and ``energy`` as seen from
            ``dualbca.solve``
* I/O       ``write_trace`` as seen from ``dualbca.cli``

``unary_costs`` and ``pairwise_costs`` are counted, not timed, in every
solver-path module that imports them; a call is charged to the phase of the
enclosing run (sweep, eval or cover) in the calling thread.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time

import dualbca.cli
import dualbca.covers
import dualbca.model
import dualbca.solve
import dualbca.updates

COVER_BUILDERS = ("compute_mmc_cover", "rows_columns_cover",
                  "compute_ssp_cover", "compute_static_trees",
                  "compute_dynamic_forest")
EVAL_FUNCTIONS = ("dual_value", "primal_round", "energy")
COUNTED = ("unary_costs", "pairwise_costs")
COUNTED_IN = (dualbca.model, dualbca.updates, dualbca.covers, dualbca.solve)


class RunStats:
    """What one solver run spent, filled in by the wrappers."""

    def __init__(self, method):
        self.method = method
        self.phase = "sweep"
        self.seconds = 0.0
        self.cover_s = 0.0
        self.eval_s = 0.0
        self.records = 0              # dual_value calls, one per trace record
        self.blocks = 0
        self.block_edges = 0
        self.calls = {(name, phase): 0 for name in COUNTED
                      for phase in ("sweep", "eval", "cover")}
        self.result = None            # (phi, labeling, trace) when it returned


class Tracer:
    def __init__(self):
        self.spans = []
        self.runs = []
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- spans -------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name, root=False, **attrs):
        """Record one span.  Spans opened in a thread with no open span of
        its own (the bench pool's workers) get the open ``root`` span as
        their parent."""
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)
        stack.append(sid)
        if root:
            self.root = sid
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self.root = parent
            with self._lock:
                self.spans.append({"id": sid, "parent": parent, "name": name,
                                   "thread": threading.get_ident(),
                                   "start": start, "end": end, **attrs})

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _stats(self):
        return getattr(self._local, "stats", None)

    def total(self, name):
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    # -- wrappers ----------------------------------------------------------
    def run(self, solve_run):
        """Wrap a ``run`` function: one span and one RunStats per call."""
        def traced_run(model, config):
            stats = RunStats(config.method)
            self._local.stats = stats
            with self.span("run", method=config.method) as attrs:
                t0 = time.perf_counter()
                try:
                    stats.result = solve_run(model, config)
                    return stats.result
                finally:
                    stats.seconds = time.perf_counter() - t0
                    attrs["messages"] = (stats.result[2][-1].messages
                                         if stats.result else None)
                    self._local.stats = None
                    with self._lock:
                        self.runs.append(stats)
        return traced_run

    def _phase(self, fn, name, phase, field):
        def wrapper(*args, **kwargs):
            stats = self._stats()
            if stats is None:
                with self.span(name):
                    return fn(*args, **kwargs)
            outer = stats.phase
            stats.phase = phase
            t0 = time.perf_counter()
            try:
                with self.span(name, method=stats.method):
                    out = fn(*args, **kwargs)
            finally:
                stats.phase = outer
                setattr(stats, field,
                        getattr(stats, field) + time.perf_counter() - t0)
            if phase == "cover":
                stats.blocks += len(out.blocks)
                stats.block_edges += sum(len(b.edges) for b in out.blocks)
            else:
                stats.records += name == "dual_value"
            return out
        return wrapper

    def _counter(self, fn, name):
        def wrapper(*args, **kwargs):
            stats = self._stats()
            if stats is not None:
                stats.calls[name, stats.phase] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, fn, name):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch the dualbca module attributes; restore them on exit."""
        patches = []
        for name in COVER_BUILDERS:
            patches.append((dualbca.covers, name, self._phase(
                getattr(dualbca.covers, name), name, "cover", "cover_s")))
        for name in EVAL_FUNCTIONS:
            patches.append((dualbca.solve, name, self._phase(
                getattr(dualbca.solve, name), name, "eval", "eval_s")))
        for module in COUNTED_IN:
            for name in COUNTED:
                if hasattr(module, name):
                    patches.append((module, name, self._counter(
                        getattr(module, name), name)))
        patches.append((dualbca.cli, "run", self.run(dualbca.cli.run)))
        for name in ("parse_uai", "write_trace"):
            patches.append((dualbca.cli, name, self._timed(
                getattr(dualbca.cli, name), name)))
        saved = [(module, name, getattr(module, name))
                 for module, name, _ in patches]
        try:
            for module, name, wrapper in patches:
                setattr(module, name, wrapper)
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    def write_jsonl(self, path):
        t0 = min((s["start"] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                f.write(json.dumps({**s, "start": s["start"] - t0,
                                    "end": s["end"] - t0}) + "\n")

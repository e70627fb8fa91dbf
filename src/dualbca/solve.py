"""Full iterative solvers with message accounting and convergence traces.

All methods update one shared dual vector phi.  Each is one row of
``_TAXONOMY``: the family of blocks it sweeps and the update it applies to
each block.  Every pass is an :class:`dualbca.updates.Program`, compiled and
recorded at the run's first pass and replayed from its recorded calls
after; on dynamic trees each pass compiles one and runs it directly.

Node operations at adjacent nodes conflict and at non-adjacent nodes do
not, so on a row-major grid a ``msd``, ``cmp`` or ``trws`` sweep runs as one
batched wave per anti-diagonal.  Edge sweeps and the blocks of a chain
cover go by greedy colour class (:func:`_edge_order`, :func:`_chain_cover`),
and the blocks of a class share waves and, packed by slack, batches.
Spanning trees keep their order: each spans its whole component.
"""
from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from . import blocks as blk
from . import covers
from .kernels import _Scratch
from .model import Reparametrization, _evaluate, energy
# Not called here; benchmarks/bench_trace.py wraps the evaluation functions
# of this module by name.
from .model import dual_value, primal_round  # noqa: F401
from .updates import (HANDSHAKE, MPLP, STAR, TRWS, MessageCounter,
                      Program)

COVERS = ("auto", "mmc", "rows_columns", "ssp")
# A run stops once its dual rose by less than ``tol`` (relative) over this
# many passes.
_CONVERGENCE_WINDOW = 5


@dataclass
class SolverConfig:
    method: str
    max_passes: int = 1000
    max_messages: int = None
    max_seconds: float = None
    tol: float = 1e-9
    seed: int = 0
    tree_mode: str = "static"        # tbca/tbcapp: static | dynamic trees
    node_order: list = None          # trws, mmc cover; None = input order
    cover: str = "auto"              # dmm/spam/tbca/tbcapp: one of COVERS

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("max_passes", "max_messages", "max_seconds"):
            value = getattr(self, name)
            if value is not None and not value >= 0:     # NaN fails too
                raise ValueError(f"{name} must be non-negative")
            if name != "max_seconds" and value is not None and value % 1:
                raise ValueError(f"{name} must be a whole number")
        # The SSP cover seeds numpy's generator with it.
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.cover not in COVERS:
            raise ValueError(f"unknown cover {self.cover!r}")
        if self.tree_mode not in ("static", "dynamic"):
            raise ValueError(f"unknown tree_mode {self.tree_mode!r}")
        if self.tree_mode == "dynamic" and self.cover != "auto":
            raise ValueError("dynamic trees exclude an explicit cover")
        if self.max_passes is None and self.max_messages is None \
                and self.max_seconds is None:
            raise ValueError("at least one stopping criterion must be set")


@dataclass(frozen=True)
class TraceRecord:
    pass_index: int
    messages: int
    dual: float
    primal_energy: float
    wall_seconds: float


def normalize_messages(raw, instance_edges, dataset_mean_edges):
    """Scale a raw message count by mean(|E|) / |E| for cross-instance plots."""
    if instance_edges <= 0:
        return float(raw)
    return raw * dataset_mean_edges / instance_edges


def _chain_cover(model, config, kind, order):
    """The chain cover of this kind (one of ``COVERS`` but auto), MMC's in
    the node order ``order``, its blocks in the order of a pass."""
    if kind == "mmc":
        schedule = covers.compute_mmc_cover(model, order)
    elif kind == "rows_columns":
        schedule = covers.rows_columns_cover(model)
    else:
        schedule = covers.compute_ssp_cover(model, config.seed)
    # Extraction order and chain direction are artifacts of the cover
    # construction, not part of its contract.  A chain is swept from its
    # smaller end.  The block order of a pass: single edges first, in the
    # edge sweep's order (a cover of single edges is MPLP++'s sweep), then
    # the longer chains colour class by colour class, longest first.
    blocks = {}
    for b in schedule.blocks:
        if b.nodes[0] > b.nodes[-1]:
            b = blk.Block(b.kind, b.nodes[::-1], b.edges[::-1])
        blocks[b.nodes] = b
    chains = [p for p in blocks if len(p) > 2]
    chains = _colour_classes(chains, sorted(
        range(len(chains)), key=lambda i: (-len(chains[i]), chains[i])),
        model.n_nodes)
    order = _edge_order(model, [p for p in blocks if len(p) == 2])
    order += [p for c in chains for p in c]
    return covers.BlockSchedule(schedule.origin, [blocks[p] for p in order])


def _colour_classes(paths, visit, n_nodes):
    """Greedy colour classes of the node tuples ``paths``, each sorted.

    The paths are visited in the order of ``visit``, indices into
    ``paths``; their nodes are below ``n_nodes``.  Each takes the smallest
    colour that no path sharing a node with it has.  The paths of a class
    share no node, so their updates run in the same waves.
    """
    used = [0] * n_nodes            # per node the bit mask of its colours
    classes = []
    for p in map(paths.__getitem__, visit):
        taken = 0
        for u in p:
            taken |= used[u]
        bit = ~taken & (taken + 1)      # the lowest free colour
        c = bit.bit_length() - 1
        if c == len(classes):
            classes.append([])
        classes[c].append(p)
        for u in p:
            used[u] |= bit
    return [sorted(c) for c in classes]


def _edge_order(model, edges):
    """The edges (u, v), u < v, in the order of an edge sweep.

    Greedy colour classes, visited by ((u + v) mod n, u, v): each class
    is a matching and runs as one wave.  The edges of one sum mod n form a
    matching, so an edge's colour is at most (u + v) mod n and at most n
    classes are needed: 50 on K_50 (Delta + 1), where lexicographic
    visiting needs 63; 4 on a grid.
    """
    u, v = np.fromiter(chain.from_iterable(edges), dtype=np.int64,
                       count=2 * len(edges)).reshape(-1, 2).T
    classes = _colour_classes(edges, np.lexsort(
        (v, u, (u + v) % model.n_nodes)).tolist(), model.n_nodes)
    return [e for c in classes for e in c]


# Block families, called with the run when it starts.  Covers and static
# trees are built then, before pass 0; dynamic trees give a function that
# each pass calls with the run for its blocks, from its phi; node and edge
# families are lazy (see :func:`_ops`).
def _stars(extra):
    """Every node u with a neighbour, and its star weight 1 / (deg + extra)."""
    def stars(model, order):
        deg = model._degree
        u = np.flatnonzero(deg)
        return u, deg[u], model._inc_nbr, 1.0 / (deg[u] + extra)
    return stars


def _emit_trws(model, order):
    """The steps of a TRW-S pass: along the order, then back.

    Each node with a later neighbour takes one step, with weight
    1 / max(n_in, n_out) over its earlier and later neighbours.  At each
    node the current excess is already fully aggregated (earlier neighbours
    were pushed this sweep, later ones by the previous opposite sweep), so
    one distribution plus one min-marginal push per later edge realizes the
    aggregate/distribute node update at a single message per edge.
    """
    order = np.array(order, dtype=np.int64)
    deg, nbr = model._degree, model._inc_nbr
    node = np.repeat(np.arange(model.n_nodes), deg)     # of each CSR entry
    pos, steps = np.empty(model.n_nodes, dtype=np.int64), []
    for sweep in (order, order[::-1]):
        pos[sweep] = np.arange(len(sweep))
        later = np.flatnonzero(pos[nbr] > pos[node])
        later = later[np.argsort(pos[node[later]], kind="stable")]
        n_out = np.bincount(node[later], minlength=model.n_nodes)
        u = sweep[n_out[sweep] > 0]
        steps.append((u, n_out[u], nbr[later],
                      1.0 / np.maximum(deg[u] - n_out[u], n_out[u])))
    return tuple(map(np.concatenate, zip(*steps)))


def _edges(model, order):
    """Every edge, in the order of an edge sweep."""
    e = _edge_order(model, model.edges)
    e = np.fromiter(chain.from_iterable(e), dtype=np.int64,
                    count=2 * len(e)).reshape(-1, 2)
    return e[:, 0], 1, e[:, 1], 0.0


def _ops(kind, arrays):
    """(blocks, update) of a node or edge method.  The one block calls
    ``arrays`` on the run's model and node order as a program is built, for
    (u, count, targets, r); the update appends them, all of one kind."""
    return (lambda run: [partial(arrays, run.model, run.order)],
            lambda prog, ops: prog._append(kind, *ops()))


def _cover(auto):
    """The blocks of a run: the config's cover if it names one, else those
    that ``auto(run)`` names, a chain cover or ``static``/``dynamic``
    trees."""
    def blocks(run):
        kind = auto(run) if run.config.cover == "auto" else run.config.cover
        if kind == "static":
            return covers.compute_static_trees(run.model).blocks
        if kind == "dynamic":
            return _dynamic_trees
        return _chain_cover(run.model, run.config, kind, run.order).blocks
    return blocks


def _dynamic_trees(run):
    """The maximum-gap forest at the run's phi, from the evaluation the
    record left, if any.  It takes the run as an argument, so that the run
    holds no closure over itself."""
    ev = run.evaluation or _evaluate(run.model, run.phi)
    run.evaluation = None
    return covers.compute_dynamic_forest(run.model, run.phi, ev.y, ev).blocks


# Each method: (block family, update), the update (program, *blocks) -> None
# called once with the whole family.
_TAXONOMY = {
    "msd": _ops(STAR, _stars(0)),
    "cmp": _ops(STAR, _stars(1)),
    "trws": _ops(TRWS, _emit_trws),
    "mplp": _ops(MPLP, _edges),
    "mplppp": _ops(HANDSHAKE, _edges),
    "dmm": (_cover(lambda run: "mmc" if run.model.grid_shape is None
                   else "rows_columns"), blk.emit_hm),
    "tbca": (_cover(lambda run: run.config.tree_mode), blk.emit_tbca),
    "tbcapp": (_cover(lambda run: run.config.tree_mode),
               partial(blk.emit_tbca, plus=True)),
    "spam": (_cover(lambda run: "ssp"), blk.emit_hm),
}
METHODS = tuple(_TAXONOMY)


class _Run:
    """One solver run: owns phi, the counter and the method's blocks."""

    def __init__(self, model, config):
        self.model = model
        self.config = config
        self.phi = Reparametrization(model)
        self.counter = MessageCounter()
        self.order = covers.check_order(model, config.node_order)
        blocks, self._update = _TAXONOMY[config.method]
        self._blocks = blocks(self)
        self._program = None
        self._scratch = _Scratch()
        self.evaluation = None      # of the current phi, set by a record

    def program(self):
        """The program of the next pass: compiled and recorded at the first
        pass and replayed, or for dynamic trees recomputed from the current
        phi and run directly."""
        if self._program is not None:
            return self._program
        dynamic = callable(self._blocks)
        prog = Program(self.model, self._scratch, replay=not dynamic)
        self._update(prog, *(self._blocks(self) if dynamic else self._blocks))
        if not dynamic:
            self._program = prog
        return prog

    def do_pass(self):
        """Run one pass.  It starts from the node costs of the record's
        evaluation of phi, if a record left one, taken before the program
        is built (a dynamic forest clears it); the pass changes phi, so the
        evaluation goes with it."""
        ev = self.evaluation
        self.program().run(self.phi, self.counter,
                           None if ev is None else ev.costs)
        self.evaluation = None


def run(model, config):
    """Run a solver; returns (phi, labeling, trace records).

    The trace starts with a pass-0 record of the initial state and gains one
    record per completed pass.  Runs are deterministic given the seed; the
    wall_seconds field is the only non-reproducible quantity.
    """
    if model.n_nodes == 0:
        raise ValueError("model has no nodes")
    t0 = time.perf_counter()
    state = _Run(model, config)

    def record(k):
        """Append the record of pass ``k``; returns its labeling."""
        state.evaluation = ev = _evaluate(model, state.phi)
        trace.append(TraceRecord(k, state.counter.total, ev.dual,
                                 energy(model, ev.y), time.perf_counter() - t0))
        return ev.y

    trace = []
    y = record(0)
    k = 0
    while True:
        if config.max_passes is not None and k >= config.max_passes:
            break
        if config.max_messages is not None and \
                state.counter.total >= config.max_messages:
            break
        if config.max_seconds is not None and \
                time.perf_counter() - t0 >= config.max_seconds:
            break
        if len(trace) > _CONVERGENCE_WINDOW:
            recent = [r.dual for r in trace[-(_CONVERGENCE_WINDOW + 1):]]
            scale = max(1.0, abs(recent[-1]))
            if (recent[-1] - recent[0]) / scale < config.tol:
                break
        k += 1
        state.do_pass()
        y = record(k)
    return state.phi, y, trace

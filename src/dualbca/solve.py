"""Full iterative solvers with message accounting and convergence traces.

All methods update one shared dual vector phi.  Each is one row of
``_TAXONOMY``: the family of blocks it sweeps and the update it applies to
each block.  Every pass is an :class:`dualbca.updates.Program`, compiled at
the run's first pass (each pass, for dynamic trees).

Node operations at adjacent nodes conflict and at non-adjacent nodes do
not, so on a row-major grid a ``msd``, ``cmp`` or ``trws`` sweep runs as one
batched wave per anti-diagonal.  Edge sweeps and the blocks of a chain
cover go by greedy colour class (:func:`_edge_order`, :func:`_chain_cover`),
and the blocks of a class run in the same waves.  Spanning trees keep their
order: each spans its whole component.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import blocks as blk
from . import covers
from .model import Reparametrization, _dual_and_rounding, energy, primal_round
# Not called here; benchmarks/bench_trace.py wraps the evaluation functions
# of this module by name.
from .model import dual_value  # noqa: F401
from .updates import MessageCounter, Program

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


def _node_order(model, config):
    if config.node_order is None:
        return list(range(model.n_nodes))
    order = list(config.node_order)
    if sorted(order) != list(range(model.n_nodes)):
        raise ValueError("node_order must be a permutation of the node indices")
    return order


def _chain_cover(model, config):
    kind = config.cover
    if kind == "auto":
        kind = _TAXONOMY[config.method][0].auto(model)
    if kind == "mmc":
        schedule = covers.compute_mmc_cover(model, _node_order(model, config))
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
            b = blk.chain_block(model, b.nodes[::-1])
        blocks[b.nodes] = b
    chains = _colour_classes([p for p in blocks if len(p) > 2],
                             lambda p: (-len(p), p))
    order = _edge_order(model, [p for p in blocks if len(p) == 2])
    order += [p for c in chains for p in c]
    return covers.BlockSchedule(schedule.origin, [blocks[p] for p in order])


def _colour_classes(paths, visit):
    """Greedy colour classes of the node tuples ``paths``, each sorted.

    In order of ``visit``, each path takes the smallest colour that no
    path sharing a node with it has.  The paths of a class share no node,
    so their updates run in the same waves.
    """
    used = {}                       # node -> bit mask of its paths' colours
    classes = []
    for p in sorted(paths, key=visit):
        taken = 0
        for u in p:
            taken |= used.get(u, 0)
        c = (~taken & (taken + 1)).bit_length() - 1     # lowest free colour
        if c == len(classes):
            classes.append([])
        classes[c].append(p)
        for u in p:
            used[u] = used.get(u, 0) | 1 << c
    return [sorted(c) for c in classes]


def _edge_order(model, edges):
    """The edges (u, v), u < v, in the order of an edge sweep.

    Greedy colour classes, visited by ((u + v) mod n, u, v): each class
    is a matching and runs as one wave.  The edges of one sum mod n form a
    matching, so an edge's colour is at most (u + v) mod n and at most n
    classes are needed: 50 on K_50 (Delta + 1), where lexicographic
    visiting needs 63; 4 on a grid.
    """
    n = model.n_nodes
    classes = _colour_classes(edges, lambda e: ((e[0] + e[1]) % n, e))
    return [e for c in classes for e in c]


# Block families, called with the run when it starts.  Covers and static
# trees are built then, before pass 0; the others are lazy, built as the
# first pass compiles; dynamic trees give each pass's blocks from its phi.
def _stars(extra):
    """Every node u with a neighbour, and its star weight 1 / (deg + extra)."""
    return lambda run: ((u, 1.0 / (len(nbrs) + extra))
                        for u, nbrs in enumerate(run.model.adjacency) if nbrs)


def _emit_trws(run):
    """The steps (u, later, r) of a TRW-S pass: along the order, then back.

    Each node with a later neighbour takes one step, with weight
    1 / max(n_in, n_out) over its earlier and later neighbours.  At each
    node the current excess is already fully aggregated (earlier neighbours
    were pushed this sweep, later ones by the previous opposite sweep), so
    one distribution plus one min-marginal push per later edge realizes the
    aggregate/distribute node update at a single message per edge.
    """
    model, order = run.model, run.order
    pos = [0] * model.n_nodes
    for sweep in (order, order[::-1]):
        for i, u in enumerate(sweep):
            pos[u] = i
        for u in sweep:
            nbrs = model.neighbors(u)
            later = [v for v in nbrs if pos[v] > pos[u]]
            if later:
                yield u, later, 1.0 / max(len(nbrs) - len(later), len(later))


def _edges(run):
    """Every edge, in the order of an edge sweep."""
    yield from _edge_order(run.model, run.model.edges)


class _Cover(NamedTuple):
    """A chain cover, of kind ``auto(model)`` unless the config names one."""
    auto: Callable

    def __call__(self, run):
        return _chain_cover(run.model, run.config).blocks


def _trees(run):
    """Static or dynamic spanning trees, or an explicit cover's chains."""
    model, config = run.model, run.config
    if config.cover != "auto":
        return _chain_cover(model, config).blocks
    if config.tree_mode == "static":
        return covers.compute_static_trees(model).blocks
    return lambda: covers.compute_dynamic_forest(
        model, run.phi, primal_round(model, run.phi))


# Each method: (block family, update), the update (program, block) -> None.
_TAXONOMY = {
    "msd": (_stars(0), lambda prog, star: prog.star(*star)),
    "cmp": (_stars(1), lambda prog, star: prog.star(*star)),
    "trws": (_emit_trws, lambda prog, step: prog.trws(*step)),
    "mplp": (_edges, lambda prog, e: prog.mplp(*e)),
    "mplppp": (_edges, lambda prog, e: prog.handshake(*e)),
    "dmm": (_Cover(lambda model: "mmc" if model.grid_shape is None
                   else "rows_columns"), blk.emit_hm),
    "tbca": (_trees, blk.emit_tbca),
    "tbcapp": (_trees, lambda prog, b: blk.emit_tbca(prog, b, plus=True)),
    "spam": (_Cover(lambda model: "ssp"), blk.emit_hm),
}
METHODS = tuple(_TAXONOMY)


class _Run:
    """One solver run: owns phi, the counter and the method's blocks."""

    def __init__(self, model, config):
        self.model = model
        self.config = config
        self.phi = Reparametrization(model)
        self.counter = MessageCounter()
        self.order = _node_order(model, config)
        blocks, self._update = _TAXONOMY[config.method]
        self._blocks = blocks(self)
        self._program = None

    def program(self):
        """The program of the next pass: compiled at the first pass and
        reused, or for dynamic trees recomputed from the current phi."""
        if self._program is not None:
            return self._program
        dynamic = callable(self._blocks)
        prog = Program(self.model)
        for b in self._blocks() if dynamic else self._blocks:
            self._update(prog, b)
        if not dynamic:
            self._program = prog
        return prog

    def do_pass(self):
        self.program().run(self.phi, self.counter)


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
        dual, y = _dual_and_rounding(model, state.phi)
        trace.append(TraceRecord(k, state.counter.total, dual,
                                 energy(model, y), time.perf_counter() - t0))
        return y

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

"""Full iterative solvers with message accounting and convergence traces.

All methods update one shared dual vector phi; they differ only in which
blocks they sweep and which update they apply per block:

==========  =====================================================
msd, cmp    node-adjacent aggregate/distribute, isotropic weights
trws        ordered forward/backward sweeps, anisotropic weights
mplp        edge sweep by colour class, half-split edge update
mplppp      edge sweep by colour class, handshake update
dmm         hierarchical minorant on a fixed chain cover
tbca        tree-BCA on static or dynamic spanning trees
tbcapp      tbca plus the maximality correction
spam        hierarchical minorant on strictly-shortest-path chains
==========  =====================================================

Every pass is an :class:`dualbca.updates.Program`, compiled at the run's
first pass (each pass, for dynamic trees).  The node methods write node
operations: ``msd`` and ``cmp`` one star update per node, ``trws`` one
TRW-S step per node and sweep.  Node operations at adjacent nodes conflict
and at non-adjacent nodes do not, so on a row-major grid a sweep runs as one
batched wave per anti-diagonal.

Edge sweeps go by greedy colour class (:func:`_edge_order`): the edges of
a class share no node, so each class runs as one wave.  The blocks of a
chain cover (``dmm``, ``spam``, and ``tbca``/``tbcapp`` with an explicit
``cover``) are swept in one fixed order: the single edges first, in the
edge sweep's order, then the longer chains by greedy colour class, longest
first, so that the chains of a class run in the same waves.  Spanning
trees keep their order: each spans its whole component.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from . import blocks as blk
from . import covers
from .model import Reparametrization, _dual_and_rounding, energy, primal_round
# Not called here; benchmarks/bench_trace.py wraps the evaluation functions
# of this module by name.
from .model import dual_value  # noqa: F401
from .updates import MessageCounter, Program

METHODS = ("msd", "cmp", "trws", "mplp", "mplppp", "dmm", "tbca", "tbcapp",
           "spam")
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
    tree_mode: str = "static"        # tbca/tbcapp only: static | dynamic
    node_order: list = None          # None = input order
    cover: str = "auto"              # dmm/tbca/spam: auto | mmc | rows_columns | ssp

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
        if config.method == "spam":
            kind = "ssp"
        elif config.method == "dmm":
            kind = "rows_columns" if model.grid_shape is not None else "mmc"
        else:
            kind = "mmc"
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


def _emit_trws(prog, model, order):
    """One TRW-S pass: a sweep along ``order``, then one along its reverse.

    Each node with a later neighbour takes one step, with weight
    1 / max(n_in, n_out) over its earlier and later neighbours.  At each
    node the current excess is already fully aggregated (earlier neighbours
    were pushed this sweep, later ones by the previous opposite sweep), so
    one distribution plus one min-marginal push per later edge realizes the
    aggregate/distribute node update at a single message per edge.
    """
    pos = [0] * model.n_nodes
    for sweep in (order, order[::-1]):
        for i, u in enumerate(sweep):
            pos[u] = i
        for u in sweep:
            nbrs = model.neighbors(u)
            later = [v for v in nbrs if pos[v] > pos[u]]
            if later:
                prog.trws(u, later,
                          1.0 / max(len(nbrs) - len(later), len(later)))


class _Run:
    """One solver run: owns phi, the counter and the schedule."""

    def __init__(self, model, config):
        self.model = model
        self.config = config
        self.phi = Reparametrization(model)
        self.counter = MessageCounter()
        self.order = _node_order(model, config)
        m = config.method
        self.schedule = None
        if m in ("dmm", "spam"):
            self.schedule = _chain_cover(model, config)
        elif m in ("tbca", "tbcapp"):
            if config.cover != "auto":
                self.schedule = _chain_cover(model, config)
            elif config.tree_mode == "static":
                self.schedule = covers.compute_static_trees(model)
        self._program = None

    def program(self):
        """The program of the next pass.

        A static schedule is compiled at its first pass and reused; dynamic
        trees are recomputed from the current phi every pass.
        """
        if self._program is not None:
            return self._program
        model, m = self.model, self.config.method
        prog = Program(model)
        if m in ("msd", "cmp"):
            for u in range(model.n_nodes):
                deg = len(model.neighbors(u))
                if deg:
                    prog.star(u, 1.0 / deg if m == "msd" else 1.0 / (deg + 1))
        elif m == "trws":
            _emit_trws(prog, model, self.order)
        elif m in ("mplp", "mplppp"):
            add = prog.mplp if m == "mplp" else prog.handshake
            for (u, v) in _edge_order(model, model.edges):
                add(u, v)
        elif m in ("dmm", "spam"):
            for chain in self.schedule.blocks:
                blk.emit_hm(prog, chain)
        elif self.schedule is not None:
            for b in self.schedule.blocks:
                blk.emit_tbca(prog, b, plus=(m == "tbcapp"))
        elif model.n_edges > 0:
            y = primal_round(model, self.phi)
            for tree in covers.compute_dynamic_forest(model, self.phi, y):
                blk.emit_tbca(prog, tree, plus=(m == "tbcapp"))
            return prog
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

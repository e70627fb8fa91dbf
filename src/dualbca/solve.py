"""Full iterative solvers with message accounting and convergence traces.

All methods update one shared dual vector phi; they differ only in which
blocks they sweep and which update they apply per block:

==========  =====================================================
msd, cmp    node-adjacent aggregate/distribute, isotropic weights
trws        ordered forward/backward sweeps, anisotropic weights
mplp        edge sweep with the half-split edge update
mplppp      edge sweep with the handshake update
dmm         hierarchical minorant on a fixed chain cover
tbca        tree-BCA on static or dynamic spanning trees
tbcapp      tbca plus the maximality correction
spam        hierarchical minorant on strictly-shortest-path chains
==========  =====================================================
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import blocks as blk
from . import covers
from .model import (Reparametrization, dual_value, energy, primal_round,
                    unary_costs)
from .updates import MessageCounter, Program, node_aggregate, \
    node_distribute, star_costs, weights_for, WeightScheme

METHODS = ("msd", "cmp", "trws", "mplp", "mplppp", "dmm", "tbca", "tbcapp",
           "spam")


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
    convergence_window: int = 5

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
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
    elif kind == "ssp":
        schedule = covers.compute_ssp_cover(model, config.seed)
    else:
        raise ValueError(f"unknown cover {kind!r}")
    # Sweep blocks in canonical order and orientation each pass (extraction
    # order and chain direction are artifacts of the cover construction, not
    # part of its contract).
    blocks = []
    for b in schedule.blocks:
        if b.kind in ("edge", "chain") and b.nodes[0] > b.nodes[-1]:
            b = blk.chain_block(model, b.nodes[::-1])
        blocks.append(b)
    blocks.sort(key=lambda b: b.nodes)
    return covers.BlockSchedule(schedule.origin, blocks)


def _trws_plan(model, order):
    """Per-node steps of one directed TRWS sweep along ``order``.

    Each step is (node, weight, star parts toward the nodes later in the
    order); nodes with no later neighbour are left out.
    """
    pos = np.empty(model.n_nodes, dtype=np.int64)
    pos[order] = np.arange(model.n_nodes)
    plan = []
    for u in order:
        nbrs = np.asarray(model.neighbors(u), dtype=np.int64)
        parts = []
        for part in model.star(u):
            later = pos[nbrs[part.rows]] > pos[u]
            if later.all():
                parts.append(part)
            elif later.any():
                parts.append(part.take(later))
        if parts:
            n_out = sum(len(p.pos) for p in parts)
            n_in = len(model.neighbors(u)) - n_out
            plan.append((u, 1.0 / max(n_in, n_out), tuple(parts)))
    return plan


def _trws_sweep(model, phi, plan, counter):
    """One directed TRWS sweep: |E| messages, one per edge in sweep direction.

    At each node the current excess is already fully aggregated (earlier
    neighbors were pushed this sweep, later neighbors by the previous
    opposite sweep), so one distribution plus one min-marginal push per
    outgoing edge realizes the aggregate/distribute node update at a single
    message per edge.  A node's pushes touch disjoint phi rows, so each
    star part is pushed in one batch.
    """
    vals = phi.values
    for u, w, parts in plan:
        rows = phi.rows(u)
        excess = w * unary_costs(model, phi, u)
        for part in parts:
            rows[part.rows] += excess
            vals[part.back] -= star_costs(phi, rows, part).min(axis=1)
            counter.add(len(part.pos))


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
        if m in ("msd", "cmp"):
            self.scheme = WeightScheme(m)
        if m == "trws":
            self.sweeps = (_trws_plan(model, self.order),
                           _trws_plan(model, self.order[::-1]))
        self._program = None

    def program(self):
        """The edge program of the next pass of an edge or block method.

        A static schedule is compiled at its first pass and reused; dynamic
        trees are recomputed from the current phi every pass.
        """
        if self._program is not None:
            return self._program
        model, m = self.model, self.config.method
        prog = Program(model)
        if m in ("mplp", "mplppp"):
            add = prog.mplp if m == "mplp" else prog.handshake
            for (u, v) in model.edges:
                add(u, v)
        elif m in ("dmm", "spam"):
            for chain in self.schedule.blocks:
                blk.emit_hm_chain(prog, chain)
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
        model, phi, counter = self.model, self.phi, self.counter
        m = self.config.method
        if m in ("msd", "cmp"):
            for u in range(model.n_nodes):
                node_aggregate(model, phi, u, counter)
                node_distribute(model, phi, u,
                                weights_for(self.scheme, model, u))
        elif m == "trws":
            for plan in self.sweeps:
                _trws_sweep(model, phi, plan, counter)
        else:
            self.program().run(phi, counter)


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
        y = primal_round(model, state.phi)
        return TraceRecord(k, state.counter.total, dual_value(model, state.phi),
                           energy(model, y), time.perf_counter() - t0)

    trace = [record(0)]
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
        w = config.convergence_window
        if len(trace) > w:
            recent = [r.dual for r in trace[-(w + 1):]]
            scale = max(1.0, abs(recent[-1]))
            if (recent[-1] - recent[0]) / scale < config.tol:
                break
        k += 1
        state.do_pass()
        trace.append(record(k))
    y = primal_round(model, state.phi)
    return state.phi, y, trace

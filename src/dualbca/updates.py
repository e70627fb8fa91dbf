"""Elementary reparametrization updates.

Every update mutates phi in place and, from a feasible point, keeps all
reparametrized costs non-negative and the dual value non-decreasing.

A *message* is one computation of min_s(theta^phi_uv(s, t)) for all t over
one directed edge, the unit all solver cost accounting is expressed in.
Pass a :class:`MessageCounter` to have updates charge messages to it.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import unary_costs


class MessageCounter:
    """Per-run accumulator of directed min-marginal computations."""

    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def add(self, k=1):
        self.total += k


@dataclass(frozen=True)
class WeightScheme:
    """Distribution weights for node-adjacent updates.

    kind: one of "msd", "cmp", "dp", "trws".  The anisotropic kinds ("dp",
    "trws") additionally need a total node order (a permutation of node
    indices); "later than u" is judged by position in that order.
    """

    kind: str
    order: tuple = None

    def __post_init__(self):
        if self.kind not in ("msd", "cmp", "dp", "trws"):
            raise ValueError(f"unknown weight scheme {self.kind!r}")
        if self.order is not None:
            object.__setattr__(self, "order", tuple(self.order))

    def positions(self, n_nodes):
        if self.order is None:
            raise ValueError(f"{self.kind} weights need a node order")
        if sorted(self.order) != list(range(n_nodes)):
            raise ValueError("order must be a permutation of the node indices")
        pos = [0] * n_nodes
        for i, u in enumerate(self.order):
            pos[u] = i
        return pos


def weights_for(scheme: WeightScheme, model, u):
    """Per-neighbor distribution weights w_{u,v} for node u."""
    nb = model.neighbors(u)
    if scheme.kind == "msd":
        return dict.fromkeys(nb, 1.0 / max(len(nb), 1))
    if scheme.kind == "cmp":
        return dict.fromkeys(nb, 1.0 / (len(nb) + 1))
    pos = scheme.positions(model.n_nodes)
    later = [v for v in nb if pos[v] > pos[u]]
    if scheme.kind == "dp":
        return {v: (1.0 if pos[v] > pos[u] else 0.0) for v in nb}
    n_in = len(nb) - len(later)
    n_out = len(later)
    denom = max(n_in, n_out)
    return {v: (1.0 / denom if pos[v] > pos[u] and denom else 0.0) for v in nb}


def star_costs(phi, rows, part):
    """theta^phi of a star part's edges, oriented (m, Y_u, Y_v).

    ``rows`` is the centre node's phi block (see ``Reparametrization.rows``).
    Evaluated in canonical orientation with the operand order of
    :func:`pairwise_costs`, so each table equals it bit for bit.
    """
    mine, theirs = rows[part.rows], phi.values[part.back]
    if part.first:
        t = part.block[part.pos] + mine[:, :, None]
        t += theirs[:, None, :]
        return t
    t = part.block[part.pos] + theirs[:, :, None]
    t += mine[:, None, :]
    return t.transpose(0, 2, 1)


def node_aggregate(model, phi, u, counter=None):
    """Pull each incident edge's row minima into node u (one message per edge).

    Afterwards min_l theta^phi_uv(s, l) = 0 for every neighbor v and label s,
    which is the block optimum of the node-adjacent block of u.  The star is
    updated in one batch: each message v -> u reads and writes only
    phi_{u,v}, so the messages do not interact.
    """
    rows = phi.rows(u)
    for part in model.star(u):
        rows[part.rows] -= star_costs(phi, rows, part).min(axis=2)
    if counter is not None:
        counter.add(len(rows))


def node_distribute(model, phi, u, weights, counter=None):
    """Push fractions of theta^phi_u back onto the incident edges.

    ``weights`` maps neighbor -> w_{u,v} with w >= 0 and sum <= 1; the
    unallocated fraction stays at u.  Costs no messages.
    """
    nbrs = np.fromiter(weights.keys(), dtype=np.int64, count=len(weights))
    w = np.fromiter(weights.values(), dtype=np.float64, count=len(weights))
    adj = np.asarray(model.neighbors(u), dtype=np.int64)
    k = np.searchsorted(adj, nbrs)
    if np.any(w < 0) or np.any(k >= len(adj)) or \
            np.any(adj[np.minimum(k, len(adj) - 1)] != nbrs):
        raise ValueError("weights must be non-negative and keyed by neighbors")
    total = w.sum()
    if total > 1.0 + 1e-12:
        raise ValueError(f"distribution weights sum to {total} > 1")
    excess = unary_costs(model, phi, u)
    rows = phi.rows(u)
    rows[k] += w[:, None] * excess


# -- edge programs ------------------------------------------------------------
#
# A pass of an edge or block method is a *program*: a sequence of elementary
# operations on edges.  Every operation on edge uv writes phi rows of u and v;
# rdp also reads theta^phi_u, handshake and mplp read theta^phi_u and
# theta^phi_v.  Two operations conflict when they share an edge, or when one
# reads theta^phi_x and the other writes a row of x.  Operations that do not
# conflict touch disjoint state and commute exactly, so a program is levelled
# into waves, each operation in the earliest wave after every earlier
# operation it conflicts with.  A wave runs as numpy batches of operations
# that share kind, orientation and table shape, and leaves phi bit for bit as
# running its operations one at a time would.

RDP, PUSH, HANDSHAKE, MPLP = range(4)
_MESSAGES = (1, 1, 3, 2)             # messages charged per operation kind
_BATCH_OPS = 64                      # most operations per batch

# Columns of a compiled program's per-operation integers: the edge's position
# in its shape block, then for u and for v the start of theta_x, of x's phi
# rows and x's degree, then the starts of phi_{u,v} and phi_{v,u}.  Starts
# index ``Reparametrization.buffer`` (theta, then phi).
_POS, _U, _V, _UV, _VU = 0, 1, 4, 7, 8
_THETA, _ROWS, _DEG = 0, 1, 2           # offsets within the _U and _V columns


class _Batch(NamedTuple):
    """What one batch of a wave shares: kind, orientation, table shape.

    A batch gathers one row per operation from the buffer: theta_u, u's phi
    rows, phi_{u,v}, phi_{v,u}, theta_v, v's phi rows, each present only
    when the kind reads it; ``col`` and ``offset`` give, per gathered
    value, the column of the operation's start and the offset from it.
    """

    kind: int
    first: bool             # u is the canonical first endpoint of each edge
    unit: bool              # rdp with r = 1 throughout
    table: np.ndarray       # shape block holding the edges' tables
    lab_u: int
    lab_v: int
    split: int              # start of phi_{u,v} in the gathered row
    col: np.ndarray
    offset: np.ndarray
    pad: tuple              # (degree column, row number per gathered value)
                            # of the nodes with fewer rows than the widest


class Program:
    """A sequence of elementary edge operations, run as conflict-free waves.

    Operations are appended with :meth:`rdp`, :meth:`push`,
    :meth:`handshake` and :meth:`mplp`.  The first :meth:`run` levels and
    batches them; the compiled program keeps per-operation scalars only,
    gathers the tables from the model's shape blocks and theta and phi from
    ``Reparametrization.buffer`` on every run, and runs on any
    reparametrization of the model.
    """

    def __init__(self, model):
        self.model = model
        self._kind, self._u, self._v = array("b"), array("q"), array("q")
        self._r = array("d")
        self._plan = None

    @property
    def ops(self):
        """(kind, u, v, r) of every operation, in program order."""
        return list(zip(self._kind, self._u, self._v, self._r))

    def rdp(self, u, v, r=1.0):
        """Move fraction r of theta^phi_u into edge uv, then push the u -> v
        min-marginal into v.  r = 1 is the dynamic-programming push; r = 0
        moves nothing of theta^phi_u and is recorded as :meth:`push`."""
        if not (0.0 <= r <= 1.0):
            raise ValueError(f"r={r} outside [0, 1]")
        if r == 0.0:
            self.push(u, v)
        else:
            self._add(RDP, u, v, r)

    def push(self, u, v):
        """Subtract the u -> v min-marginal from phi_{v,u}."""
        self._add(PUSH, u, v)

    def handshake(self, u, v):
        """The edge block update of MPLP++ (see :func:`handshake_update`)."""
        self._add(HANDSHAKE, u, v)

    def mplp(self, u, v):
        """The edge block update of MPLP (see :func:`mplp_update`)."""
        self._add(MPLP, u, v)

    def _add(self, kind, u, v, r=0.0):
        self.model.incidence(u, v)          # rejects a non-edge
        self._kind.append(kind)
        self._u.append(u)
        self._v.append(v)
        self._r.append(r)
        self._plan = None

    def waves(self):
        """Wave index of every operation, in program order."""
        return list(self._level()[0])

    def _level(self):
        """(wave, edge id, start of phi_{u,v}, start of phi_{v,u}) per op."""
        model = self.model
        edge_last = [-1] * model.n_edges
        wrote = [-1] * model.n_nodes        # last wave writing a row of x
        read = [-1] * model.n_nodes         # last wave reading theta^phi_x
        waves, edges, o_uv, o_vu = array("q"), array("q"), array("q"), array("q")
        for kind, u, v in zip(self._kind, self._u, self._v):
            e, a, b = model._incidence[u, v]
            w = max(edge_last[e], read[u], read[v])
            if kind == RDP:
                w = max(w, wrote[u])
            elif kind != PUSH:
                w = max(w, wrote[u], wrote[v])
            w += 1
            edge_last[e] = w
            wrote[u] = max(wrote[u], w)
            wrote[v] = max(wrote[v], w)
            if kind == RDP:
                read[u] = w
            elif kind != PUSH:
                read[u] = read[v] = w
            waves.append(w)
            edges.append(e)
            o_uv.append(a)
            o_vu.append(b)
        return waves, edges, o_uv, o_vu

    def _compile(self):
        model, n = self.model, len(self._kind)
        if n == 0:
            return np.zeros((0, 9), dtype=np.int64), np.zeros((0, 1)), ((),) * 3, 0
        waves, edges, o_uv, o_vu = (np.frombuffer(x, dtype=np.int64)
                                    for x in self._level())
        kind = np.frombuffer(self._kind, dtype=np.int8).astype(np.int64)
        messages = int(np.take(_MESSAGES, kind).sum())
        u = np.frombuffer(self._u, dtype=np.int64)
        v = np.frombuffer(self._v, dtype=np.int64)
        first = u < v
        shape = model._edge_block[edges]
        key = ((waves * 4 + kind) * 2 + first) * len(model._shape_groups) + shape
        order = np.argsort(key, kind="stable")
        key = key[order]
        # Batches of at most _BATCH_OPS operations bound the kernels'
        # temporaries; splitting a wave's batch is exact.
        runs = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        at = np.arange(n) - np.repeat(runs, np.diff(np.r_[runs, n]))
        starts = np.flatnonzero(at % _BATCH_OPS == 0)
        lead = order[starts]                # first operation of each batch
        kind, first, shape = kind[lead], first[lead], shape[lead]
        del waves, key, at
        r = np.frombuffer(self._r, dtype=np.float64)[order, None]
        phi_at = model._unary_flat.size     # start of phi in the buffer
        ints = np.empty((n, 9), dtype=np.int64)
        ints[:, _POS] = model._edge_pos[edges[order]]
        ints[:, _UV] = o_uv[order] + phi_at
        ints[:, _VU] = o_vu[order] + phi_at
        del edges, o_uv, o_vu
        for col, node in ((_U, u), (_V, v)):
            node = node[order]
            ints[:, col + _THETA] = model.label_offsets[node]
            ints[:, col + _ROWS] = model._phi_start[node] + phi_at
            ints[:, col + _DEG] = model._degree[node]
        deg_u, deg_v = ints[:, _U + _DEG], ints[:, _V + _DEG]
        max_u = np.maximum.reduceat(deg_u, starts)
        max_v = np.maximum.reduceat(deg_v, starts)
        specs, which = np.unique(np.stack((
            kind, first, np.logical_and.reduceat(r[:, 0] == 1.0, starts),
            shape, max_u, max_v,
            np.minimum.reduceat(deg_u, starts) == max_u,
            np.minimum.reduceat(deg_v, starts) == max_v), axis=1,
            dtype=np.int32), axis=0, return_inverse=True)
        batches = [_batch(model, *spec) for spec in specs.tolist()]
        groups = (array("q", starts), array("q", np.r_[starts[1:], n]),
                  [batches[k] for k in which.tolist()])
        return ints, r, groups, messages

    def run(self, phi, counter=None):
        """Apply the program to phi, charging its messages to ``counter``."""
        if self._plan is None:
            self._plan = self._compile()
        ints, r, groups, messages = self._plan
        buf = phi.buffer
        for s, t, g in zip(*groups):
            _KERNELS[g.kind](buf, ints[s:t], r[s:t], g)
        if counter is not None:
            counter.add(messages)


def _batch(model, kind, first, unit, block, deg_u, deg_v, full_u, full_v):
    """The :class:`_Batch` of one kind of batch, shared by all such batches."""
    table = model._shape_groups[block].block
    lab_a, lab_b = table.shape[1:]
    lab_u, lab_v = (lab_a, lab_b) if first else (lab_b, lab_a)
    parts = []                          # (column, length, row number)
    if kind != PUSH:
        parts += [(_U + _THETA, lab_u, -1)]
        parts += [(_U + _ROWS, deg_u * lab_u, np.arange(deg_u).repeat(lab_u))]
    split = sum(length for _, length, _ in parts)
    parts += [(_UV, lab_u, -1), (_VU, lab_v, -1)]
    if kind in (HANDSHAKE, MPLP):
        parts += [(_V + _THETA, lab_v, -1)]
        parts += [(_V + _ROWS, deg_v * lab_v, np.arange(deg_v).repeat(lab_v))]
    col = np.concatenate([np.full(length, c) for c, length, _ in parts])
    offset = np.concatenate([np.arange(length) for _, length, _ in parts])
    pad = []
    for node, full in ((_U, full_u), (_V, full_v)):
        if not full and any(c == node + _ROWS for c, _, _ in parts):
            rows = np.concatenate([np.broadcast_to(k, length)
                                   if c == node + _ROWS else np.full(length, -1)
                                   for c, length, k in parts])
            pad.append((node + _DEG, rows))
    return _Batch(kind, first, unit, table, lab_u, lab_v, split, col, offset,
                  tuple(pad))


def _gather(buf, ops, g):
    """Index and values of the batch's gathered rows, (m, K) each.

    Rows past a node's degree read as zeros: theta^phi_x is theta_x minus
    the rows one at a time in adjacency order, and x - 0.0 is x.
    """
    idx = ops.take(g.col, axis=1)
    idx += g.offset
    if not g.pad:
        return idx, buf[idx]
    keep = True
    for deg, rows in g.pad:
        keep = keep & (rows < ops[:, deg, None])
    return idx, np.where(keep, buf.take(idx, mode="clip"), 0.0)


def _excess(part, lab):
    """theta^phi of a node from its gathered theta and phi rows, (m, lab):
    the rounding of :func:`unary_costs`."""
    return np.subtract.reduce(part.reshape(len(part), -1, lab), axis=1)


def _marginal(tab, first, p_uv, p_vu, axis):
    """Minima over ``axis`` (1: Y_a, 2: Y_b) of theta^phi of a batch of
    edges in canonical orientation, (m, L_a, L_b), summed with the operand
    order of :func:`dualbca.model.pairwise_costs`."""
    if first:
        t = tab + p_uv[:, :, None]
        t += p_vu[:, None, :]
    else:
        t = tab + p_vu[:, :, None]
        t += p_uv[:, None, :]
    return np.minimum.reduce(t, axis=axis)


def _run_rdp(buf, ops, r, g):
    """rdp and push: (move r theta^phi_u into the edge,) push u -> v."""
    idx, x = _gather(buf, ops, g)
    a, b = g.split, g.split + g.lab_u
    p_uv, p_vu = x[:, a:b], x[:, b:]
    if g.kind == RDP:
        e = _excess(x[:, :a], g.lab_u)
        p_uv += e if g.unit else r * e
    else:
        a = b                           # push writes phi_{v,u} only
    p_vu -= _marginal(g.table.take(ops[:, _POS], axis=0), g.first, p_uv, p_vu,
                      1 if g.first else 2)
    buf[idx[:, a:]] = x[:, a:]


def _run_edge_block(buf, ops, r, g):
    """handshake and mplp: aggregate both nodes, then the edge's pushes."""
    idx, x = _gather(buf, ops, g)
    a, b, c = g.split, g.split + g.lab_u, g.split + g.lab_u + g.lab_v
    p_uv, p_vu = x[:, a:b], x[:, b:c]
    p_uv += _excess(x[:, :a], g.lab_u)
    p_vu += _excess(x[:, c:], g.lab_v)
    to_u, to_v = (2, 1) if g.first else (1, 2)   # axis of Y_v, of Y_u
    tab = g.table.take(ops[:, _POS], axis=0)
    p_uv -= 0.5 * _marginal(tab, g.first, p_uv, p_vu, to_u)
    if g.kind == MPLP:
        p_vu -= 0.5 * _marginal(tab, g.first, p_uv, p_vu, to_v)
    else:
        p_vu -= _marginal(tab, g.first, p_uv, p_vu, to_v)
        p_uv -= _marginal(tab, g.first, p_uv, p_vu, to_u)
    buf[idx[:, a:c]] = x[:, a:c]


_KERNELS = (_run_rdp, _run_rdp, _run_edge_block, _run_edge_block)


def run_program(model, phi, counter, emit, *args):
    """Run the program that ``emit(program, *args)`` writes on phi."""
    prog = Program(model)
    emit(prog, *args)
    prog.run(phi, counter)


def message(model, phi, u, v, counter=None):
    """Directed min-marginal u -> v: min over Y_u of theta^phi_uv per label of v."""
    e, o_uv, o_vu = model.incidence(u, v)
    if counter is not None:
        counter.add()
    p_uv = phi.values[o_uv:o_uv + model.labels[u]]
    p_vu = phi.values[o_vu:o_vu + model.labels[v]]
    first = u < v
    return _marginal(model.pairwise[e][None], first, p_uv[None], p_vu[None],
                     1 if first else 2)[0]


def push_min_into(model, phi, u, v, counter=None):
    """Subtract the u->v min-marginal from phi_{v,u}, moving it into node v."""
    run_program(model, phi, counter, Program.push, u, v)


def mplp_update(model, phi, u, v, counter=None):
    """Edge block update of MPLP (aggregate, then two half-min pushes).

    The second push uses the edge costs as updated by the first one; this
    ordering attains the exact 2-node block optimum.
    """
    run_program(model, phi, counter, Program.mplp, u, v)


def handshake_update(model, phi, u, v, counter=None):
    """Edge block update of MPLP++ / the hierarchical minorant.

    Aggregates both nodes into the edge, half-pushes toward u, then pushes
    all remaining row and column excess out to the nodes.  The result does
    not depend on the incoming phi_{v,u} and satisfies the maximal-minorant
    conditions (zero row and column minima) on the edge.
    """
    run_program(model, phi, counter, Program.handshake, u, v)


def dp_update(model, phi, u, v, counter=None):
    """Dynamic-programming push over the directed edge u -> v.

    Empties theta^phi_u into the edge, then moves the edge's min-marginal
    into v.  One message.
    """
    run_program(model, phi, counter, Program.rdp, u, v)


def rdp_update(model, phi, u, v, r, counter=None):
    """Redistribution DP over u -> v: push fraction r of theta^phi_u forward.

    r=1 is exactly :func:`dp_update`; r=0 only moves the edge min-marginal.
    """
    run_program(model, phi, counter, Program.rdp, u, v, r)

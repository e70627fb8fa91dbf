"""Elementary reparametrization updates.

Every update mutates phi in place and, from a feasible point, keeps all
reparametrized costs non-negative and the dual value non-decreasing.

A *message* is one computation of min_s(theta^phi_uv(s, t)) for all t over
one directed edge, the unit all solver cost accounting is expressed in.
Pass a :class:`MessageCounter` to have updates charge messages to it.
"""
from __future__ import annotations

from array import array
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


def node_aggregate(model, phi, u, counter=None):
    """Pull each incident edge's row minima into node u (one message per edge).

    Afterwards min_l theta^phi_uv(s, l) = 0 for every neighbor v and label s,
    which is the block optimum of the node-adjacent block of u.  The
    messages are the pushes v -> u, which read and write only phi_{u,v} and
    so run as one wave of a :class:`Program`.
    """
    run_program(model, phi, counter, _emit_aggregate, u)


def _emit_aggregate(prog, u):
    for v in prog.model.neighbors(u):
        prog.push(v, u)


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


# -- programs -----------------------------------------------------------------
#
# A pass of any method is a *program*: a sequence of elementary operations.
# Edge operations act on one edge uv and write phi rows of u and v; rdp also
# reads theta^phi_u, handshake and mplp read theta^phi_u and theta^phi_v.
# Node operations act on the star of one node u: they read theta^phi_u and
# phi_{v,u} of every neighbour v and write u's rows; the TRW-S step also
# writes phi_{v,u} of its later neighbours.  Two operations conflict when
# they share an edge (so node operations at adjacent nodes conflict, and at
# non-adjacent nodes do not), or when one reads theta^phi_x and the other
# writes a row of x.  Operations that do not conflict touch disjoint state
# and commute exactly, so a program is levelled into waves, each operation
# in the earliest wave after every earlier operation it conflicts with.  A
# wave runs as numpy batches of operations that share kind and table shapes
# (for node operations: label count, degree and which rows go to which shape
# block), and leaves phi bit for bit as running its operations one at a time
# would.

RDP, PUSH, HANDSHAKE, MPLP, TRWS, STAR = range(6)
_MESSAGES = (1, 1, 3, 2)             # messages charged per edge operation kind
_BATCH_OPS = 64                      # most edge operations per batch
_BATCH_TARGETS = 256                 # most node-operation targets per batch

# Columns of a compiled program's per-operation integers: the edge's position
# in its shape block, then for u and for v the start of theta_x, of x's phi
# rows and x's degree, then the starts of phi_{u,v} and phi_{v,u}.  Starts
# index ``Reparametrization.buffer`` (theta, then phi).
_POS, _U, _V, _UV, _VU = 0, 1, 4, 7, 8
_THETA, _ROWS, _DEG = 0, 1, 2           # offsets within the _U and _V columns
# A node operation with T targets has 2 + 2T integers: the start of theta_u,
# of u's phi rows, then per target the edge's position in its shape block,
# then per target the start of phi_{v,u}; targets are ordered by part.


class _Batch(NamedTuple):
    """What one batch of edge operations shares: kind, orientation, shape.

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


class _Part(NamedTuple):
    """The targets of a node batch whose edges share orientation and block."""

    first: bool             # u is the canonical first endpoint of each edge
    table: np.ndarray       # shape block holding the edges' tables
    rows: object            # rows of u's phi block, a slice when consecutive
    pos: slice              # columns of the edges' positions in ``table``
    back: slice             # the part's phi_{v,u} in the gathered row
    lab_v: int


class _NodeBatch(NamedTuple):
    """What one batch of node operations shares: kind, L_u, degree, parts.

    A batch gathers one row per operation from the buffer: theta_u, u's phi
    rows, then the phi_{v,u} of the targets by part; ``col`` and ``offset``
    as in :class:`_Batch`.
    """

    kind: int
    lab: int
    split: int              # start of the phi_{v,u} in the gathered row
    col: np.ndarray
    offset: np.ndarray
    parts: tuple


class _Batches(NamedTuple):
    """Batches of one class of operations, in batch order."""

    ints: np.ndarray        # the operations' integers, one after the other
    r: np.ndarray           # the operations' r
    waves: np.ndarray       # wave of each batch
    ops: np.ndarray         # bounds of each batch's operations ...
    at: np.ndarray          # ... and integers, one more than batches
    specs: list             # the :class:`_Batch` or :class:`_NodeBatch`


_NO_BATCHES = _Batches(np.zeros(0, dtype=np.int64), np.zeros(0),
                       np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64),
                       np.zeros(1, dtype=np.int64), [])


class Program:
    """A sequence of elementary operations, run as conflict-free waves.

    Edge operations are appended with :meth:`rdp`, :meth:`push`,
    :meth:`handshake` and :meth:`mplp`, node operations with :meth:`trws`
    and :meth:`star`.  The first :meth:`run` levels and batches them; the
    compiled program keeps per-operation scalars only, gathers the tables
    from the model's shape blocks and theta and phi from
    ``Reparametrization.buffer`` on every run, and runs on any
    reparametrization of the model.
    """

    def __init__(self, model):
        self.model = model
        self._kind, self._u, self._v = array("b"), array("q"), array("q")
        self._r = array("d")
        self._targets = array("q")      # of node operations, in program order
        self._plan = None

    @property
    def ops(self):
        """(kind, u, v, r) of every operation, in program order; v is the
        tuple of target neighbours for a node operation."""
        out, t = [], 0
        for kind, u, v, r in zip(self._kind, self._u, self._v, self._r):
            if kind >= TRWS:
                v, t = tuple(self._targets[t:t + v]), t + v
            out.append((kind, u, v, r))
        return out

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

    def trws(self, u, later, r):
        """The TRW-S step at u: add r * theta^phi_u, computed once, to
        phi_{u,v} of every v in ``later``, then push each u -> v min-marginal
        into v.  One message per v."""
        later = tuple(later)
        targets = set(later)
        if not targets.issubset(self._star(u)):
            raise ValueError(f"a target of the TRW-S step at {u} is not a "
                             "neighbour")
        if len(targets) != len(later):
            raise ValueError("repeated neighbour in a TRW-S step")
        self._add_node(TRWS, u, later, r)

    def star(self, u, r):
        """The star update of msd and cmp at u: pull the row minima of every
        incident edge into u, then add r * theta^phi_u to each of u's rows.
        One message per neighbour."""
        self._add_node(STAR, u, self._star(u), r)

    def _star(self, u):
        if not 0 <= u < self.model.n_nodes:
            raise ValueError(f"node {u} out of range")
        return self.model.neighbors(u)

    def _add(self, kind, u, v, r=0.0):
        self.model.incidence(u, v)          # rejects a non-edge
        self._kind.append(kind)
        self._u.append(u)
        self._v.append(v)
        self._r.append(r)
        self._plan = None

    def _add_node(self, kind, u, targets, r):
        if not targets:
            raise ValueError(f"node operation at {u} has no target edge")
        if not (r >= 0.0 and r * len(targets) <= 1.0 + 1e-12):
            raise ValueError(f"weight {r} over {len(targets)} edges is not a "
                             f"fraction of theta^phi_{u}")
        self._kind.append(kind)
        self._u.append(u)
        self._v.append(len(targets))
        self._r.append(r)
        self._targets.extend(targets)
        self._plan = None

    def waves(self):
        """Wave index of every operation, in program order."""
        return list(self._level())

    def _level(self):
        """Wave of every operation, in program order."""
        model = self.model
        edge_last = [-1] * model.n_edges
        wrote = [-1] * model.n_nodes        # last wave writing a row of x
        read = [-1] * model.n_nodes         # last wave reading theta^phi_x
        ptr, star = model._inc_ptr.tolist(), model._inc_edge.tolist()
        targets, t = self._targets.tolist(), 0
        waves = array("q")
        for kind, u, v in zip(self._kind, self._u, self._v):
            if kind >= TRWS:
                # Whatever conflicts through theta^phi_u or u's rows also
                # shares an edge of u's star.
                edges = star[ptr[u]:ptr[u + 1]]
                w = max(map(edge_last.__getitem__, edges))
                later, t = targets[t:t + v], t + v
                if kind == TRWS:
                    w = max(w, max(map(read.__getitem__, later)))
                w += 1
                for e in edges:
                    edge_last[e] = w
                if kind == TRWS:
                    for x in later:
                        wrote[x] = max(wrote[x], w)
                waves.append(w)
                continue
            e = model._incidence[u, v][0]
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
        return waves

    def _compile(self):
        kind = np.frombuffer(self._kind, dtype=np.int8).astype(np.int64)
        u = np.frombuffer(self._u, dtype=np.int64)
        v = np.frombuffer(self._v, dtype=np.int64)
        r = np.frombuffer(self._r, dtype=np.float64)
        waves = np.frombuffer(self._level(), dtype=np.int64)
        edge, node = kind < TRWS, kind >= TRWS
        e = _edge_batches(self.model, kind[edge], u[edge], v[edge], r[edge],
                          waves[edge])
        n = _node_batches(self.model, kind[node], u[node], v[node], r[node],
                          waves[node],
                          np.frombuffer(self._targets, dtype=np.int64))
        # The batches of both in wave order; their operations and integers
        # follow each other in one array each.
        ops = np.r_[e.ops[:-1], e.ops[-1] + n.ops]
        at = np.r_[e.at[:-1], e.at[-1] + n.at]
        order = np.argsort(np.r_[e.waves, n.waves], kind="stable")
        specs = e.specs + n.specs
        groups = (array("q", ops[order]), array("q", ops[order + 1]),
                  array("q", at[order]), array("q", at[order + 1]),
                  [specs[k] for k in order.tolist()])
        ints = np.concatenate((e.ints, n.ints))
        r = np.concatenate((e.r, n.r))[:, None]
        messages = int(np.take(_MESSAGES, kind[edge]).sum() + v[node].sum())
        return ints, r, groups, messages

    def run(self, phi, counter=None):
        """Apply the program to phi, charging its messages to ``counter``."""
        if self._plan is None:
            self._plan = self._compile()
        ints, r, groups, messages = self._plan
        buf = phi.buffer
        for s, t, a, b, g in zip(*groups):
            _KERNELS[g.kind](buf, ints[a:b].reshape(t - s, -1), r[s:t], g)
        if counter is not None:
            counter.add(messages)


def _entries(model, u, v):
    """CSR entries of the directed incidences (u[i], v[i]), all edges."""
    n = model.n_nodes
    key = np.repeat(np.arange(n), model._degree) * n + model._inc_nbr
    return np.searchsorted(key, u * n + v)


def _batch_starts(key, size):
    """Starts of the batches of sorted keys: runs of equal keys, split into
    pieces of at most ``size[i]`` (constant within a run); splitting a
    wave's batch is exact."""
    n = len(key)
    runs = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    at = np.arange(n) - np.repeat(runs, np.diff(np.r_[runs, n]))
    return np.flatnonzero(at % size == 0)


def _unique_rows(a):
    """The distinct rows of an integer matrix and, per row, its index among
    them (``np.unique(axis=0)`` sorts the rows as bytes, far slower)."""
    order = np.lexsort(a.T[::-1])
    a = a[order]
    new = np.r_[True, np.any(a[1:] != a[:-1], axis=1)]
    which = np.empty(len(a), dtype=np.int64)
    which[order] = np.cumsum(new) - 1
    return a[new], which


def _edge_batches(model, kind, u, v, r, waves):
    """The edge operations as :class:`_Batches`."""
    n = len(kind)
    if n == 0:
        return _NO_BATCHES
    entry = _entries(model, u, v)
    edges = model._inc_edge[entry]
    first = u < v
    shape = model._edge_block[edges]
    key = ((waves * 4 + kind) * 2 + first) * len(model._shape_groups) + shape
    order = np.argsort(key, kind="stable")
    starts = _batch_starts(key[order], _BATCH_OPS)
    lead = order[starts]                # first operation of each batch
    batch_waves, kind, first, shape = waves[lead], kind[lead], first[lead], shape[lead]
    r = r[order]
    entry = entry[order]
    phi_at = model._unary_flat.size     # start of phi in the buffer
    ints = np.empty((n, 9), dtype=np.int64)
    ints[:, _POS] = model._edge_pos[edges[order]]
    ints[:, _UV] = model._inc_phi[entry] + phi_at
    ints[:, _VU] = model._inc_back[entry] + phi_at
    for col, node in ((_U, u), (_V, v)):
        node = node[order]
        ints[:, col + _THETA] = model.label_offsets[node]
        ints[:, col + _ROWS] = model._phi_start[node] + phi_at
        ints[:, col + _DEG] = model._degree[node]
    deg_u, deg_v = ints[:, _U + _DEG], ints[:, _V + _DEG]
    max_u = np.maximum.reduceat(deg_u, starts)
    max_v = np.maximum.reduceat(deg_v, starts)
    specs, which = _unique_rows(np.stack((
        kind, first, np.logical_and.reduceat(r == 1.0, starts),
        shape, max_u, max_v,
        np.minimum.reduceat(deg_u, starts) == max_u,
        np.minimum.reduceat(deg_v, starts) == max_v), axis=1,
        dtype=np.int64))
    batches = [_batch(model, *spec) for spec in specs.tolist()]
    bounds = np.r_[starts, n]
    return _Batches(ints.ravel(), r, batch_waves, bounds, 9 * bounds,
                    [batches[k] for k in which.tolist()])


def _node_batches(model, kind, u, count, r, waves, targets):
    """The node operations as :class:`_Batches`.

    ``count`` is each operation's number of targets, ``targets`` all of
    them in program order.
    """
    n = len(kind)
    if n == 0:
        return _NO_BATCHES
    op = np.repeat(np.arange(n), count)     # operation of each target
    op_start = np.r_[0, np.cumsum(count)]
    entry = _entries(model, u[op], targets)
    edge = model._inc_edge[entry]
    # Part of each target: 1 + (orientation, shape block); the layout of an
    # operation is the part of each of u's rows, 0 off target.
    n_blocks = len(model._shape_groups)
    part = 1 + (targets > u[op]) * n_blocks + model._edge_block[edge]
    row = entry - model._inc_ptr[u[op]]
    deg = model._degree[u]
    lab = np.diff(model.label_offsets)[u]
    at = np.r_[0, np.cumsum(deg)]
    layout = np.zeros(at[-1], dtype=np.int64)
    layout[at[op] + row] = part
    spec = np.empty(n, dtype=np.int64)
    batches, gathers = [], {}
    for d in sorted(set(deg.tolist())):
        sel = np.flatnonzero(deg == d)
        rows = np.column_stack((kind[sel], lab[sel],
                                layout[at[sel, None] + np.arange(d)]))
        rows, which = _unique_rows(rows)
        spec[sel] = len(batches) + which
        batches += [_node_batch(model, k[0], k[1], k[2:], gathers)
                    for k in rows.tolist()]
    key = waves * len(batches) + spec
    order = np.argsort(key, kind="stable")
    starts = _batch_starts(key[order], np.maximum(1, _BATCH_TARGETS // count[order]))
    width = 2 + 2 * count[order]
    seg = np.r_[0, np.cumsum(width)]        # integers of each operation
    ints = np.empty(seg[-1], dtype=np.int64)
    phi_at = model._unary_flat.size
    ints[seg[:-1]] = model.label_offsets[u[order]]
    ints[seg[:-1] + 1] = model._phi_start[u[order]] + phi_at
    # Targets by part, then row, within each operation.
    by_part = np.lexsort((row, part, op))
    rank = np.empty_like(by_part)
    rank[by_part] = np.arange(len(by_part)) - op_start[op[by_part]]
    place = np.empty(n, dtype=np.int64)
    place[order] = seg[:-1]
    col = place[op] + 2 + rank
    ints[col] = model._edge_pos[edge]
    ints[col + count[op]] = model._inc_back[entry] + phi_at
    bounds = np.r_[starts, n]
    return _Batches(ints, r[order], waves[order[starts]], bounds, seg[bounds],
                    [batches[k] for k in spec[order[starts]].tolist()])


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


def _node_batch(model, kind, lab, layout, gathers):
    """The :class:`_NodeBatch` of the node operations with this kind, label
    count and row layout (the part of each of u's rows, 0 off target).

    ``gathers`` shares the gather pattern between batches that differ only
    in which rows are targets, as the star updates of K_n all do.
    """
    layout = np.asarray(layout)
    deg, n_blocks = len(layout), len(model._shape_groups)
    split = (deg + 1) * lab
    parts, lab_vs = [], []                  # lab_vs: L_v of each target
    for p in sorted(set(layout.tolist()) - {0}):
        rows = np.flatnonzero(layout == p)
        c, t, b = len(rows), len(lab_vs), split + sum(lab_vs)
        first, block = divmod(p - 1, n_blocks)
        table = model._shape_groups[block].block
        lab_v = table.shape[2 if first else 1]
        if rows[-1] - rows[0] == c - 1:
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
        parts.append(_Part(bool(first), table, rows, slice(2 + t, 2 + t + c),
                           slice(b, b + c * lab_v), lab_v))
        lab_vs += [lab_v] * c
    # Gathered: theta_u (column 0), u's rows (column 1), then phi_{v,u} of
    # target t (column 2 + T + t).
    key = (lab, deg, tuple(lab_vs))
    if key not in gathers:
        sizes = [lab, deg * lab] + lab_vs
        gathers[key] = (
            np.repeat(np.r_[0, 1, 2 + len(lab_vs) + np.arange(len(lab_vs))],
                      sizes),
            np.concatenate([np.arange(k) for k in sizes]))
    return _NodeBatch(kind, lab, split, *gathers[key], tuple(parts))


def _gather(buf, ops, g):
    """Index and values of the batch's gathered rows, (m, K) each.

    Rows past a node's degree read as zeros: theta^phi_x is theta_x minus
    the rows one at a time in adjacency order, and x - 0.0 is x.
    """
    idx = ops.take(g.col, axis=1) + g.offset
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
    order of :func:`dualbca.model.pairwise_costs`.

    theta^phi is laid out with the reduced axis first, so that numpy
    reduces it as a few elementwise minima over whole slabs; reducing a
    short inner axis goes a few elements at a time and is about twice as
    slow on tables of 4x4 to 16x16.
    """
    p_a, p_b = (p_uv, p_vu) if first else (p_vu, p_uv)
    if axis == 1:
        t = np.add(tab.transpose(1, 0, 2), p_a.T[:, :, None], order="C")
        t += p_b
    else:
        t = np.add(tab.transpose(2, 0, 1), p_a, order="C")
        t += p_b.T[:, :, None]
    return np.minimum.reduce(t, axis=0)


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


def _run_node(buf, ops, r, g):
    """The TRW-S step and the star update at a batch of nodes.

    The whole gathered row is written back: what the operation leaves
    unchanged (theta_u, and phi_{v,u} in the star update) no other
    operation of the wave writes.
    """
    idx = ops.take(g.col, axis=1) + g.offset
    x = buf[idx]
    m, lab = len(ops), g.lab
    rows = x[:, lab:g.split].reshape(m, -1, lab)
    if g.kind == TRWS:
        e = (r * _excess(x[:, :g.split], lab))[:, None, :]
    for part in g.parts:
        tab = part.table.take(ops[:, part.pos].ravel(), axis=0)
        theirs = x[:, part.back]
        if g.kind == TRWS:
            mine = rows[:, part.rows] + e
            rows[:, part.rows] = mine
            theirs -= _marginal(tab, part.first, mine.reshape(-1, lab),
                                theirs.reshape(-1, part.lab_v),
                                1 if part.first else 2).reshape(m, -1)
        else:
            mine = rows[:, part.rows]
            rows[:, part.rows] = mine - _marginal(
                tab, part.first, mine.reshape(-1, lab),
                theirs.reshape(-1, part.lab_v),
                2 if part.first else 1).reshape(mine.shape)
    if g.kind == STAR:
        rows += (r * _excess(x[:, :g.split], lab))[:, None, :]
    buf[idx] = x


_KERNELS = (_run_rdp, _run_rdp, _run_edge_block, _run_edge_block, _run_node,
            _run_node)


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

"""Elementary reparametrization updates.

Every update mutates phi in place and, from a feasible point, keeps all
reparametrized costs non-negative and the dual value non-decreasing.

A *message* is one computation of min_s(theta^phi_uv(s, t)) for all t over
one directed edge, the unit all solver cost accounting is expressed in.
Pass a :class:`MessageCounter` to have updates charge messages to it.
"""
from __future__ import annotations

from array import array
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .model import node_costs


class MessageCounter:
    """Per-run accumulator of directed min-marginal computations."""

    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def add(self, k=1):
        self.total += k


# -- programs -----------------------------------------------------------------
#
# A pass of any method is a *program*: a sequence of elementary operations,
# each recorded as (kind, u, r, targets), where the targets are neighbours
# of u.  Edge operations have one target v and write phi rows of u and v;
# rdp also reads theta^phi_u, handshake and mplp read theta^phi_u and
# theta^phi_v.  Node operations act on the star of u: they read
# theta^phi_u and phi_{v,u} of every neighbour v and write u's rows; the
# TRW-S step also writes phi_{v,u} of its targets.  An rdp is a TRW-S step
# with one target, and a push is one that moves nothing of theta^phi_u.
# Two operations conflict when they share an edge (so node operations at
# adjacent nodes conflict, and at non-adjacent nodes do not), or when one
# reads theta^phi_x and the other writes a row of x.  Operations that do not
# conflict touch disjoint phi and commute exactly, so a program is levelled
# into waves, each operation in the earliest wave after every earlier
# operation it conflicts with.  theta^phi_x is kept in the buffer, and a
# push adds to it, so pushes into x must keep program order: a push into x
# also goes to no wave before an earlier operation that writes a row of x.
# A wave runs as numpy batches of operations that share kind and target
# layout (the orientation and table shape of each target), and leaves the
# buffer bit for bit as running its operations one per wave, in program
# order, would.  For edge operations on square tables the orientation is
# not part of the layout: a batch holds both, the ones where u is the
# canonical first endpoint first, and the batch knows how many of them
# there are.

RDP, PUSH, HANDSHAKE, MPLP, TRWS, STAR = range(6)
_MESSAGES = (1, 1, 3, 2, 1, 1)       # messages charged per target, by kind
_BATCH_TARGETS = 256                 # most targets per batch

# Columns of the record from which the compiler builds a batch's gather
# index, one row per operation: the start of theta^phi_u; then per target
# the edge's position in its shape block, then per target the start of
# phi_{u,v}, of phi_{v,u} and of theta^phi_v.  Starts index
# ``Reparametrization.buffer``: theta^phi of every node, then phi, then a
# scratch row per directed incidence.  Every kind but a push reads and
# writes theta^phi_u, and every kind but the star update writes
# theta^phi_v of its targets.  Where several pushes land in one node in one
# wave, each after the first in program order adds to the scratch row of
# its incidence, and the wave ends by adding those rows to the node in
# program order.  Targets are ordered by part (shape block, and orientation
# unless the tables are square), then by row of u.
_U, _TARGETS = 0, 1


class _Part(NamedTuple):
    """The targets of a batch whose edges share a shape block, and
    orientation unless the tables are square."""

    table: np.ndarray       # shape block holding the edges' tables
    lab_v: int
    many: bool              # more than one target
    mine: slice             # their phi_{u,v} in the gathered row, ...
    back: slice             # ... their phi_{v,u} ...
    excess: slice           # ... and their theta^phi_v


class _Spec(NamedTuple):
    """What one batch of operations shares: kind and layout.

    A batch gathers one row per operation from the buffer: theta^phi_u
    (not for a push), the targets' phi_{u,v}, their phi_{v,u}, then their
    theta^phi_v (not for a star update).
    """

    kind: int
    unit: bool              # r = 1 throughout
    many: bool              # more than one target
    lab: int                # L_u
    uv: int                 # start of the phi_{u,v} in the gathered row
    vu: int                 # start of the phi_{v,u}
    parts: tuple


class Program:
    """A sequence of elementary operations, run as conflict-free waves.

    Edge operations are appended with :meth:`rdp`, :meth:`push`,
    :meth:`handshake` and :meth:`mplp`, node operations with :meth:`trws`
    and :meth:`star`.  The first :meth:`run` levels and batches them, and
    compiles each batch into what its kernel reads: its spec, the index of
    its theta^phi and phi in ``Reparametrization.buffer``, the positions of
    its tables in the model's shape blocks, and its weights.  The compiled
    program gathers the tables and the buffer on every run, and runs on any
    reparametrization of the model.
    """

    def __init__(self, model):
        self.model = model
        self._kind, self._u, self._count = array("b"), array("q"), array("q")
        self._r = array("d")
        self._targets = array("q")      # of all operations, in program order
        self._plan = None

    @property
    def ops(self):
        """(kind, u, v, r) of every operation, in program order; v is the
        tuple of target neighbours for a node operation."""
        ts = self._targets
        return [(k, u, tuple(ts[t:t + c]) if k >= TRWS else ts[t], r)
                for k, u, c, r, t in zip(self._kind, self._u, self._count,
                                         self._r, accumulate(self._count,
                                                             initial=0))]

    def rdp(self, u, v, r=1.0):
        """Move fraction r of theta^phi_u into edge uv, then push the u -> v
        min-marginal into v.  r = 1 is the dynamic-programming push; r = 0
        moves nothing of theta^phi_u and is recorded as :meth:`push`."""
        if not (0.0 <= r <= 1.0):
            raise ValueError(f"r={r} outside [0, 1]")
        if r == 0.0:
            self.push(u, v)
        else:
            self._add(RDP, u, (v,), r)

    def push(self, u, v):
        """Subtract the u -> v min-marginal from phi_{v,u}."""
        self._add(PUSH, u, (v,))

    def handshake(self, u, v):
        """The edge block update of MPLP++ (see :func:`handshake_update`)."""
        self._add(HANDSHAKE, u, (v,))

    def mplp(self, u, v):
        """The edge block update of MPLP (see :func:`mplp_update`)."""
        self._add(MPLP, u, (v,))

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
        self._node(TRWS, u, later, r)

    def star(self, u, r):
        """The star update of msd and cmp at u: pull the row minima of every
        incident edge into u, then add r * theta^phi_u to each of u's rows.
        One message per neighbour."""
        self._node(STAR, u, self._star(u), r)

    def _star(self, u):
        if not 0 <= u < self.model.n_nodes:
            raise ValueError(f"node {u} out of range")
        return self.model.neighbors(u)

    def _node(self, kind, u, targets, r):
        if not targets:
            raise ValueError(f"node operation at {u} has no target edge")
        if not (r >= 0.0 and r * len(targets) <= 1.0 + 1e-12):
            raise ValueError(f"weight {r} over {len(targets)} edges is not a "
                             f"fraction of theta^phi_{u}")
        self._add(kind, u, targets, r)

    def _add(self, kind, u, targets, r=0.0):
        if kind < TRWS:
            self.model.incidence(u, targets[0])     # rejects a non-edge
        self._kind.append(kind)
        self._u.append(u)
        self._count.append(len(targets))
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
        targets = self._targets.tolist()
        waves = array("q")
        for kind, u, c, t in zip(self._kind, self._u, self._count,
                                 accumulate(self._count, initial=0)):
            if kind >= TRWS:
                # Whatever conflicts through theta^phi_u or u's rows also
                # shares an edge of u's star.
                edges = star[ptr[u]:ptr[u + 1]]
                w = max(map(edge_last.__getitem__, edges))
                later = targets[t:t + c]
                if kind == TRWS:    # pushes keep program order per node
                    w = max(w, max(map(read.__getitem__, later)),
                            max(map(wrote.__getitem__, later)) - 1)
                w += 1
                for e in edges:
                    edge_last[e] = w
                if kind == TRWS:
                    for x in later:
                        wrote[x] = max(wrote[x], w)
                waves.append(w)
                continue
            v = targets[t]
            e = model._incidence[u, v][0]
            w = max(edge_last[e], read[u], read[v], wrote[v] - 1)
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
        model = self.model
        kind = np.frombuffer(self._kind, dtype=np.int8).astype(np.int64)
        u = np.frombuffer(self._u, dtype=np.int64)
        count = np.frombuffer(self._count, dtype=np.int64)
        r = np.frombuffer(self._r, dtype=np.float64)
        targets = np.frombuffer(self._targets, dtype=np.int64)
        waves = np.frombuffer(self._level(), dtype=np.int64)
        n = len(kind)
        if n == 0:
            return [], 0
        op = np.repeat(np.arange(n), count)     # operation of each target
        op_start = np.cumsum(count) - count
        n_nodes = model.n_nodes             # CSR entry of each (u, target)
        entry = np.searchsorted(
            np.repeat(np.arange(n_nodes), model._degree) * n_nodes
            + model._inc_nbr, u[op] * n_nodes + targets)
        # Part of each target: side * n_blocks + shape block, where side is
        # 1 if u is the edge's canonical first endpoint, 0 if not, and 2 (any)
        # for an edge operation on a square table.  (A node operation's
        # orientations follow its rows: freeing them would merge no batches,
        # only split its parts' kernels in two.)
        n_blocks = len(model._shape_groups)
        block = model._edge_block[model._inc_edge[entry]]
        first = targets > u[op]
        square = np.array([g.block.shape[1] == g.block.shape[2]
                           for g in model._shape_groups])[block] \
            & (kind[op] < TRWS)
        part = np.where(square, 2, first) * n_blocks + block
        by = np.lexsort((entry - model._inc_ptr[u[op]], part, op))
        entry, part, first, into = entry[by], part[by], first[by], targets[by]
        # The layout of an operation: its kind, then the part of each target.
        # Layouts are compared in groups of target counts up to a power of
        # two, padded with -1.
        code = np.append(part, -1)
        layout = np.empty(n, dtype=np.int64)
        layouts = []
        group = np.ceil(np.log2(count)).astype(np.int64)
        for k in np.flatnonzero(np.bincount(group)).tolist():
            sel, w = np.flatnonzero(group == k), 1 << k
            at = op_start[sel, None] + np.arange(w)
            at[np.arange(w) >= count[sel, None]] = len(op)
            keys, which = _unique_rows(np.column_stack((kind[sel], code[at])))
            layout[sel] = len(layouts) + which
            layouts += keys.tolist()
        # Batches by wave and layout; within a batch, operations whose first
        # target has u first go first, so that an orientation-free part is
        # two runs.
        key = waves * len(layouts) + layout
        order = np.lexsort((~first[op_start], key))
        starts = _batch_starts(key[order],
                               np.maximum(1, _BATCH_TARGETS // count[order]))
        # theta^phi_v of each target: its node's, or for a push after the
        # first into that node in its wave, the scratch row of its incidence.
        phi_at = model._unary_flat.size     # start of phi in the buffer
        excess = model.label_offsets[into]
        push = np.flatnonzero((kind[op] < HANDSHAKE) | (kind[op] == TRWS))
        node = waves[op[push]] * n_nodes + into[push]
        push, node = push[np.argsort(node, kind="stable")], np.sort(node)
        late = push[1:][node[1:] == node[:-1]]
        late = late[np.lexsort((late, waves[op[late]]))]   # wave, then program
        excess[late] = model._inc_back[entry[late]] + phi_at + model.phi_size
        # The operations' records, one after another in batch order, in the
        # narrowest type that indexes the buffer.
        seg = np.cumsum(np.append(0, _TARGETS + 4 * count[order]))
        top = phi_at + 2 * model.phi_size
        ints = np.empty(seg[-1], dtype=np.int32 if top < 2**31 else np.int64)
        at = seg[:-1]
        ints[at + _U] = model.label_offsets[u[order]]
        place = np.empty(n, dtype=np.int64)
        place[order] = at
        col = place[op] + _TARGETS + np.arange(len(op)) - op_start[op]
        ints[col] = model._edge_pos[model._inc_edge[entry]]
        ints[col + count[op]] = model._inc_phi[entry] + phi_at
        ints[col + 2 * count[op]] = model._inc_back[entry] + phi_at
        ints[col + 3 * count[op]] = excess
        # A batch's spec: layout and r = 1 throughout.
        keys, which = _unique_rows(np.stack(
            (layout[order[starts]],
             np.logical_and.reduceat(r[order] == 1.0, starts)), axis=1,
            dtype=np.int64))
        # The batches of one spec compile together: their operations, in
        # program order, are the rows of one record, and each batch is a
        # run of its rows.
        size = np.diff(np.append(starts, n))
        spec_of = np.repeat(which, size)        # of each operation
        rows = np.argsort(spec_of, kind="stable")
        lo = np.searchsorted(spec_of[rows], np.arange(len(keys) + 1))
        groups, gathers = [], {}
        for k, (lay, unit) in enumerate(keys.tolist()):
            g, (col, offset), where = _spec(model, layouts[lay], unit, gathers)
            sel = at[rows[lo[k]:lo[k + 1]]]
            rec = ints[sel[:, None] + np.arange(seg[rows[lo[k]] + 1] - sel[0])]
            idx = rec.take(col, axis=1)
            idx += offset
            groups.append((g, idx, [(rec[:, c].copy(), each)
                                    for c, each in where]))
        # The wave's last batch adds the late pushes' scratch rows to their
        # nodes, in program order, and clears them.
        wave_of = waves[order[starts]]          # of each batch
        lab = np.diff(model.label_offsets)[into[late]]
        step = np.arange(lab.sum()) - np.repeat(np.cumsum(lab) - lab, lab)
        dest = np.repeat(model.label_offsets[into[late]], lab) + step
        src = np.repeat(excess[late], lab) + step
        wave, cut = np.unique(np.repeat(waves[op[late]], lab),
                              return_index=True)
        fix = [None] * len(starts)
        for b, d, s in zip(np.searchsorted(wave_of, wave, "right") - 1,
                           np.split(dest, cut[1:]), np.split(src, cut[1:])):
            fix[b] = d, s
        # Each batch: its spec, its rows of the spec's index, per part its
        # edges' positions and how many of them have u first, its weights,
        # and what ends its wave.
        u_first = np.add.reduceat(first[op_start[order]], starts).tolist()
        inner = np.argsort(rows)[starts] - lo[which]    # first row in group
        # Weights: r, and what an operation keeps of theta^phi_u.
        r, batches = np.column_stack((r, 1.0 - count * r))[order], []
        for k, s, m, a, f, end in zip(which.tolist(), inner.tolist(),
                                      size.tolist(), starts.tolist(), u_first,
                                      fix):
            g, idx, pos = groups[k]
            batches.append((g, idx[s:s + m], [
                (p[s:s + m].reshape(-1), f if each is None else each * m)
                for p, each in pos], r[a:a + m], end))
        messages = int(np.dot(np.take(_MESSAGES, kind), count))
        return batches, messages

    def run(self, phi, counter=None):
        """Apply the program to phi, charging its messages to ``counter``.

        theta^phi of every node is first derived from theta and phi, so phi
        written from outside a program is honoured.  Where values too large
        to update by deltas can reach theta^phi (``_exact_excess``), it is
        derived again after every batch."""
        if self._plan is None:
            self._plan = self._compile()
        batches, messages = self._plan
        model, buf = self.model, phi.buffer
        nodes, exact = slice(model._unary_flat.size), model._exact_excess
        buf[nodes] = node_costs(model, phi)
        for g, idx, parts, r, end in batches:
            _KERNELS[g.kind](buf, g, idx, parts, r)
            if end is not None:         # the late pushes of the wave
                into, at = end
                np.add.at(buf, into, buf.take(at))
                buf.put(at, 0.0)
            if exact:
                buf[nodes] = node_costs(model, phi)
        if counter is not None:
            counter.add(messages)


def _batch_starts(key, size):
    """Starts of the batches of sorted keys: runs of equal keys, split into
    pieces of at most ``size[i]`` (constant within a run); splitting a
    wave's batch is exact."""
    n = len(key)
    runs = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
    at = np.arange(n) - np.repeat(runs, np.diff(np.append(runs, n)))
    return np.flatnonzero(at % size == 0)


def _unique_rows(a):
    """The distinct rows of an integer matrix, in lexicographic order, and
    per row its index among them.

    Rows whose columns' ranges fit 62 bits together are packed into one
    int64 key each; the rest are sorted column by column
    (``np.unique(axis=0)`` sorts the rows as bytes, far slower).
    """
    low = a.min(axis=0)
    bits = [int(x).bit_length() for x in (a.max(axis=0) - low).tolist()]
    if sum(bits) <= 62:
        key = np.zeros(len(a), dtype=np.int64)
        for j, b in enumerate(bits):
            if b:
                key <<= b
                key |= a[:, j] - low[j]
        order = np.argsort(key, kind="stable")
        key = key[order]
        new = np.append(True, key[1:] != key[:-1])
    else:
        order = np.lexsort(a.T[::-1])
        s = a[order]
        new = np.append(True, np.any(s[1:] != s[:-1], axis=1))
    which = np.empty(len(a), dtype=np.int64)
    which[order] = np.cumsum(new) - 1
    return a[order[new]], which


def _spec(model, layout, unit, gathers):
    """The :class:`_Spec` of the batches with this layout (kind, then the
    part of each target), and what only the compiler reads: the gather
    pattern, and per part the record columns of its edges' positions and
    how many of them have u as their canonical first endpoint per operation
    (None where that varies).

    The gather pattern gives per gathered value the record column of its
    start (``col``) and the offset from it.  ``gathers`` shares it between
    layouts that differ only in the targets' orientations and blocks, as
    the node operations of K_n all do.
    """
    kind, codes = layout[0], [z for z in layout[1:] if z >= 0]
    n_blocks, c = len(model._shape_groups), len(codes)
    side, block = divmod(codes[0], n_blocks)
    lab = model._shape_groups[block].block.shape[2 - side % 2]
    uv = lab * (kind != PUSH)
    vu = uv + c * lab
    lab_vs = [model._shape_groups[z % n_blocks].block.shape[
        1 + z // n_blocks % 2] for z in codes]
    at = list(accumulate(lab_vs, initial=vu))   # starts of the phi_{v,u}
    cut = [t for t in range(1, c) if codes[t] != codes[t - 1]]
    parts, where = [], []
    for t0, t1 in zip([0] + cut, cut + [c]):
        side, block = divmod(codes[t0], n_blocks)
        parts.append(_Part(model._shape_groups[block].block, lab_vs[t0],
                           t1 - t0 > 1, slice(uv + t0 * lab, uv + t1 * lab),
                           slice(at[t0], at[t1]),
                           slice(at[t0] + at[c] - vu, at[t1] + at[c] - vu)))
        where.append((slice(_TARGETS + t0, _TARGETS + t1),
                      side * (t1 - t0) if side < 2 else None))
    key = (kind, lab, tuple(lab_vs))
    if key not in gathers:
        # Segments: theta^phi_u, the targets' phi_{u,v}, their phi_{v,u},
        # their theta^phi_v; a kind leaves out what it does not read.
        theirs = c * (kind != STAR)
        length = np.array([uv] + [lab] * c + lab_vs + lab_vs[:theirs])
        col = np.repeat([_U] + list(range(_TARGETS + c,
                                          _TARGETS + 3 * c + theirs)), length)
        offset = np.arange(len(col)) - np.repeat(np.cumsum(length) - length,
                                                 length)
        gathers[key] = (col, offset)
    return (_Spec(kind, bool(unit), c > 1, lab, uv, vu, tuple(parts)),
            gathers[key], where)


def _marginal(tab, k, p_uv, p_vu, over_u):
    """Minima over Y_u (``over_u``: the u -> v messages) or over Y_v of
    theta^phi of a batch of edges, whose tables ``tab`` are in canonical
    orientation, (m, L_a, L_b); theta^phi is summed with the operand order
    of :func:`dualbca.model.pairwise_costs`.

    u is the canonical first endpoint of the first k edges and the second
    of the rest (both occur only on square tables); each run is summed as a
    batch of its own.  theta^phi is laid out with the reduced axis first, so
    that numpy reduces it as a few elementwise minima over whole slabs;
    reducing a short inner axis goes a few elements at a time and is about
    twice as slow on tables of 4x4 to 16x16.
    """
    if 0 < k < len(tab):
        return np.concatenate((
            _marginal(tab[:k], k, p_uv[:k], p_vu[:k], over_u),
            _marginal(tab[k:], 0, p_uv[k:], p_vu[k:], over_u)))
    first = k > 0
    p_a, p_b = (p_uv, p_vu) if first else (p_vu, p_uv)
    if first == over_u:                 # minima over Y_a
        t = np.add(tab.transpose(1, 0, 2), p_a.T[:, :, None], order="C")
        t += p_b
    else:
        t = np.add(tab.transpose(2, 0, 1), p_a, order="C")
        t += p_b.T[:, :, None]
    return np.minimum.reduce(t, axis=0)


def _run_star(buf, g, idx, parts, r):
    """rdp, push, the TRW-S step and the star update at a batch of nodes.

    rdp and the TRW-S step move r * theta^phi_u into each target's
    phi_{u,v}, then push each u -> v min-marginal into v; a push only
    pushes; the star update pulls every v -> u min-marginal into u, then
    moves r * theta^phi_u into every phi_{u,v}.  What an operation leaves
    unchanged of what it gathered no other operation of the wave writes, so
    all of it is written back.
    """
    x = buf.take(idx)
    lab, kind = g.lab, g.kind
    e = x[:, :g.uv]                     # theta^phi_u
    mine = x[:, g.uv:g.vu]              # the targets' phi_{u,v}
    if g.many:
        mine = mine.reshape(len(x), -1, lab)
    if kind == RDP or kind == TRWS:
        _share(e, mine, r, g)
    for p, (pos, k) in zip(g.parts, parts):
        p_uv, p_vu = x[:, p.mine], x[:, p.back]
        a, b = p_uv, p_vu
        if p.many:              # (m, c * L) values to (m * c, L)
            a, b = a.reshape(-1, lab), b.reshape(-1, p.lab_v)
        # A star update pulls v -> u (minima over Y_v), the rest push u -> v.
        d = _marginal(p.table.take(pos, axis=0), k, a, b, kind != STAR)
        if kind == STAR:
            p_uv -= d.reshape(p_uv.shape)
            e += d.reshape(len(x), -1, lab).sum(axis=1)
        else:
            d = d.reshape(p_vu.shape)
            p_vu -= d
            x[:, p.excess] += d
    if kind == STAR:
        _share(e, mine, r, g)
    buf[idx] = x


def _share(e, mine, r, g):
    """Move r * theta^phi_u of each operation into the phi_{u,v} of each of
    its targets; theta^phi_u keeps 1 - r * (number of targets) of itself."""
    s = e if g.unit else e * r[:, :1]
    mine += s[:, None, :] if g.many else s
    e *= r[:, 1:]


def _run_pair(buf, g, idx, parts, r):
    """handshake and mplp: aggregate both nodes, then the edge's pushes."""
    x = buf.take(idx)
    (p,), ((pos, k),) = g.parts, parts
    e_u, p_uv, p_vu, e_v = x[:, :g.uv], x[:, p.mine], x[:, p.back], \
        x[:, p.excess]
    p_uv += e_u
    p_vu += e_v
    tab = p.table.take(pos, axis=0)
    e_u[...] = 0.5 * _marginal(tab, k, p_uv, p_vu, False)
    p_uv -= e_u
    if g.kind == MPLP:
        e_v[...] = 0.5 * _marginal(tab, k, p_uv, p_vu, True)
        p_vu -= e_v
    else:
        e_v[...] = _marginal(tab, k, p_uv, p_vu, True)
        p_vu -= e_v
        d = _marginal(tab, k, p_uv, p_vu, False)
        p_uv -= d
        e_u += d
    buf[idx] = x


_KERNELS = (_run_star, _run_star, _run_pair, _run_pair, _run_star, _run_star)


def run_program(model, phi, counter, emit, *args):
    """Run the program that ``emit(program, *args)`` writes on phi."""
    prog = Program(model)
    emit(prog, *args)
    prog.run(phi, counter)


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

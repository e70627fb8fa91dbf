"""Elementary reparametrization updates.

Every update mutates phi in place and, from a feasible point, keeps all
reparametrized costs non-negative and the dual value non-decreasing.

A *message* is one computation of min_s(theta^phi_uv(s, t)) for all t over
one directed edge, the unit all solver cost accounting is expressed in.
Pass a :class:`MessageCounter` to have updates charge messages to it.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .kernels import (HANDSHAKE, MPLP, PUSH, RDP, STAR, TRWS, _call, _Scratch,
                      _bind, _how, _run_pair, _run_push, _run_star, _Spec,
                      _transposed)
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
# into waves, each operation after every earlier operation it conflicts
# with.  theta^phi_x is kept in the buffer, and a push adds to it, so
# pushes into x must keep program order: a push into x also goes to no wave
# before an earlier operation that writes a row of x.  A wave runs as numpy
# batches of operations that share kind and target layout (the orientation
# and table shape of each target), and leaves the buffer bit for bit as
# running its operations one per wave, in program order, would.  For edge
# operations on square tables the orientation is not part of the layout: a
# batch holds both, the ones where u is the canonical first endpoint first,
# and the batch knows how many of them there are.  Levelling puts each
# operation in its earliest wave, then packs waves that mix layouts by
# slack: a layout runs in a wave only where one of its operations can go
# no earlier, joined by those whose slack reaches it (list scheduling by
# mobility), if that saves batches at the same depth.

_MESSAGES = (1, 1, 3, 2, 1, 1)       # messages charged per target, by kind
_BATCH_TARGETS = 256                 # most targets per batch

# A batch gathers from ``Reparametrization.buffer`` (theta^phi of every
# node, then phi, then a scratch row per directed incidence) the same K
# values for each of its m operations, into the front of the program's
# scratch array as (K, m), laid out block by block, so that each block is
# one contiguous (m, width) array of rows, one per operation (see
# ``Program._compile``).  Its kernel works in views of those blocks and of
# the scratch behind them, made once as the program is compiled
# (``kernels._bind``), and puts the K values back.  Every kind but a push
# reads and writes theta^phi_u, and every kind but the star update writes
# theta^phi_v of its targets.  Where several pushes land in one node in one
# wave, each after the first in program order adds to the scratch row of
# its incidence, and the wave ends by adding those rows to the node in
# program order.  Targets are ordered by part (shape block, and orientation
# unless the tables are square), then by row of u.


class _Batch(NamedTuple):
    """A compiled batch: what its kernel reads, and its spec.  The kernel
    is called with the batch's index, tables and weights, then ``shared``,
    the views of the scratch that the batches of its shape share (see
    ``kernels._bind``)."""

    spec: _Spec
    idx: np.ndarray         # (K, m) gather index into the buffer
    tables: list            # per part: its tables (a view of their shape
                            # block) or their positions, how many have u
                            # first, and the views its min-marginals read
    r: np.ndarray           # (m, 1) weights, and what each operation
    keep: np.ndarray        # keeps of theta^phi_u
    end: tuple              # (into, at, scratch) of the late pushes that
                            # end the wave, or None
    shared: tuple


class Program:
    """A sequence of elementary operations, run as conflict-free waves.

    Operations are appended as arrays with :meth:`_append`.  The first
    :meth:`run` levels and batches them, and compiles each batch into what
    its kernel reads: its spec, the index of its theta^phi and phi in
    ``Reparametrization.buffer``, its tables (a view of their shape block
    where their positions step evenly, else the positions), its weights as
    columns, and the views of ``scratch`` that it works in (see
    :class:`dualbca.kernels._Scratch`; a program of its own if not given).
    The compiled program gathers the buffer, and the tables it holds no
    view of, on every run, and runs on any reparametrization of the model.
    With ``replay``, as a run keeps it, the first run on a buffer records
    its kernels' numpy calls, and later runs on that buffer replay them.
    """

    def __init__(self, model, scratch=None, replay=False):
        self.model = model
        self._scratch = _Scratch() if scratch is None else scratch
        # (kind, u, count, targets, r, CSR entry of each (u, target)) of
        # every operation, in program order.
        none = np.zeros(0, dtype=np.int64)
        self._table = (none, none, none, none, np.zeros(0), none)
        self._plan = None
        self._replay = replay

    def _append(self, kind, u, count, targets, r):
        """Append operations given as arrays: u, and the kind, number of
        targets and r of each (or one for all), then all their targets in
        order.  An rdp with r = 0 is recorded as a push.  All are checked,
        by one lookup of their (u, target) pairs, before any is appended."""
        model, n = self.model, self.model.n_nodes
        u = np.asarray(u, dtype=np.int64)
        kind, count, r = (np.broadcast_to(np.asarray(x, dtype=t), u.shape)
                          for x, t in ((kind, np.int64), (count, np.int64),
                                       (r, np.float64)))
        targets = np.asarray(targets, dtype=np.int64)
        node = kind >= TRWS

        def check(bad, message):
            if np.count_nonzero(bad):
                raise ValueError(message(int(np.argmax(bad))))

        check(node & ((u < 0) | (u >= n)),
              lambda i: f"node {u[i]} out of range")
        r_bad = ~((r >= 0.0) & (r * count <= np.where(node, 1.0 + 1e-12,
                                                        1.0)))
        rdp = kind == RDP
        check(rdp & r_bad, lambda i: f"r={r[i]} outside [0, 1]")
        op = np.repeat(np.arange(len(u)), count)
        src = u[op]
        entry, ok = model.lookup(src, targets)
        check(~ok, lambda t: (
            f"a target of the TRW-S step at {src[t]} is not a neighbour"
            if node[op[t]] else
            f"({src[t]},{targets[t]}) is not an edge of the model"))
        pair = np.sort((op * len(model._inc_nbr) + entry)[node[op]])
        check(pair[1:] == pair[:-1],
              lambda i: "repeated neighbour in a TRW-S step")
        check(count == 0, lambda i: f"node operation at {u[i]} has no target "
              "edge")
        check(node & r_bad, lambda i: f"weight {r[i]} over {count[i]} edges "
              f"is not a fraction of theta^phi_{u[i]}")
        self._table = tuple(map(np.concatenate, zip(self._table, (
            np.where(rdp & (r == 0.0), PUSH, kind), u, count, targets, r,
            entry))))
        self._plan = None

    def _level(self, layout, n_layouts):
        """Wave of every operation, in program order, by its layout code."""
        model = self.model
        kind, u, count, targets, _, entry = self._table
        edge_last = [-1] * model.n_edges
        wrote = [-1] * model.n_nodes        # last wave writing a row of x
        read = [-1] * model.n_nodes         # last wave reading theta^phi_x
        waves = []
        # Per operation, as compact arrays: an edge operation's edge and
        # target, a node operation's star (a CSR range) and first target.
        node, at = kind >= TRWS, np.cumsum(count) - count
        a = np.where(node, model._inc_ptr[u], model._inc_edge[entry[at]])
        b = np.where(node, model._inc_ptr[u + 1], targets[at])
        star, ts, *ops = (array("q", x.tobytes()) for x in (
            model._inc_edge, targets, kind, u, a, b, at, count))
        for k, x, e, y, t, c in zip(*ops):
            if k == PUSH:
                w = max(edge_last[e], read[x], read[y], wrote[y] - 1) + 1
                if wrote[x] < w:
                    wrote[x] = w
                edge_last[e] = wrote[y] = w
            elif k == RDP:
                w = max(edge_last[e], read[x], read[y], wrote[y] - 1,
                        wrote[x]) + 1
                edge_last[e] = read[x] = wrote[x] = wrote[y] = w
            elif k < TRWS:
                w = max(edge_last[e], read[x], read[y], wrote[x],
                        wrote[y]) + 1
                edge_last[e] = read[x] = read[y] = wrote[x] = wrote[y] = w
            else:
                # Whatever conflicts through theta^phi_u or u's rows also
                # shares an edge of u's star.
                edges = star[e:y]
                w = max(map(edge_last.__getitem__, edges))
                if k == TRWS:       # pushes keep program order per node
                    later = ts[t:t + c]
                    w = max(w, max(map(read.__getitem__, later)),
                            max(map(wrote.__getitem__, later)) - 1) + 1
                    for z in later:
                        wrote[z] = w
                else:
                    w += 1
                for f in edges:
                    edge_last[f] = w
            waves.append(w)
        asap = np.asarray(waves, dtype=np.int64)
        depth = max(waves, default=-1) + 1
        last = np.empty(depth, dtype=np.int64)      # a layout of each wave
        last[asap] = layout
        if np.array_equal(last[asap], layout):
            return waves                # no wave mixes layouts
        # No slack if each op before the last wave has a next op a wave on.
        deg, n = np.where(node, b - a, 1), len(kind)
        edge = model._inc_edge[np.arange(deg.sum()) + np.repeat(
            np.where(node, a, entry[at]) - np.cumsum(deg) + deg, deg)]
        key, op = np.divmod(np.sort(edge * depth * n + np.repeat(
            asap * n + np.arange(n), deg)), n)
        tight = np.bincount(op[:-1][np.diff(key) == 1], minlength=n)
        if np.all(tight | (asap == depth - 1)):
            return waves
        # Pack, walking back by earliest wave.  Bounds: per edge the next
        # wave on it, per node the last to read theta^phi or to write a row.
        edge_next = [depth] * model.n_edges
        read_by, write_by = ([depth - 1] * model.n_nodes for _ in range(2))
        runs, packed = [[] for _ in range(n_layouts)], array("q")   # -wave
        by = np.argsort(asap, kind="stable")[::-1]
        cols = kind, u, a, b, at, count, layout, asap
        for k, x, e, y, t, c, g, w0 in zip(*(array("q", col[by].tobytes())
                                             for col in cols)):
            if k < TRWS:
                p = write_by[x] if k == PUSH else read_by[x]
                q = read_by[y] if k >= HANDSHAKE else write_by[y]
                w = p if p < q else q
                if edge_next[e] <= w:
                    w = edge_next[e] - 1
            else:
                edges, later = star[e:y], ts[t:t + c] if k == TRWS else ()
                w = min(min(map(edge_next.__getitem__, edges)) - 1,
                        min(map(write_by.__getitem__, later), default=depth))
            run = runs[g]   # the latest run in bound, else the earliest wave
            i = bisect_left(run, -w)
            if i == len(run):
                run.append(-w0)
            w = -run[i]
            if k < HANDSHAKE:           # a push into y
                edge_next[e] = write_by[y] = w
                if read_by[y] >= w:
                    read_by[y] = w - 1
                if k == RDP:
                    read_by[x] = write_by[x] = w - 1
                elif read_by[x] >= w:
                    read_by[x] = w - 1
            elif k < TRWS:
                edge_next[e] = w
                read_by[x] = read_by[y] = write_by[x] = write_by[y] = w - 1
            else:
                for z in later:
                    write_by[z] = w
                    if read_by[z] >= w:
                        read_by[z] = w - 1
                for f in edges:
                    edge_next[f] = w
            packed.append(w)
        packed = np.asarray(packed)[np.argsort(by)]
        cap = np.empty(n_layouts, dtype=np.int64)   # operations per batch
        cap[layout] = np.maximum(1, _BATCH_TARGETS // count)

        def batches(w):
            key = np.sort(w * n_layouts + layout)
            return len(_batch_starts(key, cap[key % n_layouts]))

        return packed.tolist() if batches(packed) < batches(asap) else waves

    def _layouts(self):
        model = self.model
        kind, u, count, targets, _, entry = self._table
        op = np.repeat(np.arange(len(kind)), count)     # of each target
        op_start = np.cumsum(count) - count
        # Part of each target: side * n_blocks + shape block, where side is
        # 1 if u is the edge's canonical first endpoint, 0 if not, and 2 (any)
        # for an edge operation on a square table.  (A node operation's
        # orientations follow its rows: freeing them would merge no batches,
        # only split its parts' kernels in two.)
        n_blocks = len(model._shape_groups)
        block = model._edge_block[model._inc_edge[entry]]
        first = targets > u[op]
        square = np.array([g.block.shape[1] == g.block.shape[2]
                           for g in model._shape_groups], dtype=bool)[block] \
            & (kind[op] < TRWS)
        part = np.where(square, 2, first) * n_blocks + block
        by = np.lexsort((entry - model._inc_ptr[u[op]], part, op))
        entry, part, first, into = entry[by], part[by], first[by], targets[by]
        # The layout of an operation: its kind, then the part of each target,
        # compared in groups of target counts up to a power of two, padded
        # with -1, in lexicographic order.  The targets of an operation come
        # in runs of one part, ascending, and each run is one integer that
        # sorts as the parts do: by part, then, the last run of its operation
        # by its length before a run that goes on, by minus its length.  A
        # run that an operation lacks is c, which sorts first.
        cut = np.flatnonzero(np.append(True, (part[1:] != part[:-1])
                                       | (op[1:] != op[:-1])))
        lens, at = np.diff(np.append(cut, len(op))), op[cut]
        on = np.append(at[1:] == at[:-1], False)
        j = np.arange(len(cut))                 # the run of its op
        j -= np.maximum.accumulate(np.where(np.roll(on, 1), 0, j))
        c = int(count.max())
        key = np.full((len(kind), j.max() + 2), c)
        key[:, 0] = np.ceil(np.log2(count)) * 6 + kind
        key[at, j + 1] = ((part[cut] + 1) * 2 + on) * (2 * c + 1) + c \
            + np.where(on, -lens, lens)
        keys, layout = _unique_rows(key)
        return op, op_start, entry, part, first, into, cut, layout, len(keys)

    def _compile(self):
        model = self.model
        kind, u, count, targets, r, entry = self._table
        n = len(kind)
        if n == 0:
            return [], 0
        op, op_start, entry, part, first, into, cut, layout, n_layouts = \
            self._layouts()
        waves = np.asarray(self._level(layout, n_layouts), dtype=np.int64)
        n_blocks = len(model._shape_groups)
        # Batches by wave and layout; within a batch, operations whose first
        # target has u first go first, so that an orientation-free part is
        # two runs.
        key = waves * n_layouts + layout
        order = np.lexsort((~first[op_start], key))
        starts = _batch_starts(key[order],
                               np.maximum(1, _BATCH_TARGETS // count[order]))
        # theta^phi_v of each target: its node's, or for a push after the
        # first into that node in its wave, the scratch row of its incidence.
        phi_at = model._unary_flat.size     # start of phi in the buffer
        excess = model.label_offsets[into]
        push = np.flatnonzero((kind[op] < HANDSHAKE) | (kind[op] == TRWS))
        node = waves[op[push]] * model.n_nodes + into[push]
        push, node = push[np.argsort(node, kind="stable")], np.sort(node)
        late = push[1:][node[1:] == node[:-1]]
        late = late[np.lexsort((late, waves[op[late]]))]   # wave, then program
        excess[late] = model._inc_back[entry[late]] + phi_at + model.phi_size
        lens = np.diff(np.append(cut, len(op)))
        run = np.repeat(np.arange(len(cut)), lens)      # of each target
        # One gather index for all operations, in batch order, of np.intp
        # (take and put then index with no cast): per operation the segments
        # theta^phi_u, then per target phi_{u,v}, phi_{v,u} and theta^phi_v
        # (empty where a kind does not read them).  A batch is a run of it,
        # laid out block by block: the theta^phi_u of its m operations,
        # then per part their phi_{u,v}, then per part their phi_{v,u}, then
        # per part their theta^phi_v, each block operation by operation.
        # Viewed as (K, m), K values per operation, each block's rows are
        # then one contiguous (m, width) array.  The operations of a batch
        # share their segments' layout, so segment j of its operation i
        # goes to m * (first segment of j's block) + i * (segments of j's
        # block per operation) + (j's place in its block).
        lab = np.diff(model.label_offsets)
        size = np.diff(np.append(starts, n))
        seg = np.cumsum(np.append(0, 1 + 3 * count[order]))
        place = np.empty(n, dtype=np.int64)     # first segment of each op
        place[order] = seg[:-1]
        m, base = np.empty((2, n), dtype=np.int64)  # of each op's batch
        m[order] = np.repeat(size, size)
        base[order] = np.repeat(seg[:-1][starts], size)
        rank = (place - base) // (1 + 3 * count)    # i in its batch
        t0 = cut[run] - op_start[op]            # first target of its part
        col = base[op] + m[op] * (1 + t0) + rank[op] * lens[run] \
            + np.arange(len(op)) - op_start[op] - t0
        start, length = np.empty((2, seg[-1]), dtype=np.intp)
        start[base + rank] = model.label_offsets[u]
        length[base + rank] = lab[u] * (kind != PUSH)
        start[col] = model._inc_phi[entry] + phi_at
        length[col] = lab[u[op]]
        col += (m * count)[op]                  # the next block of targets
        start[col] = model._inc_back[entry] + phi_at
        length[col] = lab[into]
        col += (m * count)[op]
        start[col] = excess
        length[col] = lab[into] * (kind[op] != STAR)
        del m, base, rank, t0, col
        # Each segment's values follow its start: one running sum of ones
        # that jumps at the first value of each segment.
        at, full = np.cumsum(length) - length, length > 0
        index = np.ones(at[-1] + length[-1], dtype=np.intp)
        start, length = start[full], length[full]
        index[at[full]] = start + 1 - np.append(1, start[:-1] + length[:-1])
        np.cumsum(index, out=index)
        rows = np.append(at[seg[:-1][starts]], len(index)).tolist()
        del start, length, at, full
        # Per part of each batch, its edges' tables and how many have u
        # first: targets by batch, then by run within their operation (a
        # batch's operations share them), then batch order.  Where their
        # positions in the block step evenly (one target always does), the
        # tables are a view of the block; else the positions, for a take.
        batch = np.empty(n, dtype=np.int64)
        batch[order] = np.repeat(np.arange(len(starts)), size)
        key = batch[op] * len(op) + run - run[op_start][op]
        by = np.lexsort((place[op], key))
        key = key[by]
        inner = key[1:] == key[:-1]
        cut = np.flatnonzero(np.append(True, ~inner))
        lens = np.diff(np.append(cut, len(op)))
        pos = model._edge_pos[model._inc_edge[entry[by]]]
        diff, step = np.diff(pos), np.ones(len(cut), dtype=np.int64)
        step[lens > 1] = diff[cut[lens > 1]]
        odd = inner & (diff != np.repeat(step, lens)[1:])
        even = np.bincount(np.cumsum(~inner)[odd], minlength=len(cut)) == 0
        b, code = key[cut] // len(op), part[by[cut]]
        side, blocks = code // n_blocks, [g.block for g in model._shape_groups]
        u_first = np.where(side < 2, side * lens, np.add.reduceat(
            first[op_start[order]], starts)[b])
        stop = pos[cut] + lens * step           # below 0: past the start
        # With a view, also the views of it that the batch's kernel reads.
        kinds = kind[order[starts]]             # of each batch
        tabs = []
        for z, s, e, d, ev, a, c, k, g in zip(
                (code % n_blocks).tolist(), pos[cut].tolist(), stop.tolist(),
                step.tolist(), even.tolist(), cut.tolist(), lens.tolist(),
                u_first.tolist(), kinds[b].tolist()):
            if ev:
                t = blocks[z][s:e if e >= 0 else None:d]
                tabs.append((t, k, _transposed(t, _how(g, k, c))))
            else:
                tabs.append((pos[a:a + c], k, None))
        cut = np.searchsorted(b, np.arange(len(starts) + 1)).tolist()
        # The scratch: what each batch works in (see kernels._bind), over
        # whole arrays: its gathered values, then the most that one of its
        # parts needs (outputs, gathered tables, its longest run's sum) or
        # r * theta^phi_u needs.
        la, lb = np.array([g.shape[1:] for g in blocks])[code % n_blocks].T
        lab_u, lab_v = np.where(side % 2, la, lb), np.where(side % 2, lb, la)
        g, m = kinds[b], size[b]                # of each part's batch
        t = np.where((0 < u_first) & (u_first < lens),
                     np.maximum(u_first, lens - u_first), lens)
        need = (t + lens * ~even) * la * lb + np.where(
            g == STAR, (lens + m) * lab_u, np.where(g == HANDSHAKE, m * lab_u,
                                                    lens * lab_v * (g != MPLP)))
        unit = np.logical_and.reduceat(r[order] == 1.0, starts)
        own = (kinds == STAR) | ((kinds == RDP) | (kinds == TRWS)) & ~unit
        need = np.diff(rows) + np.maximum(np.maximum.reduceat(need, cut[:-1]),
                                          lab_u[cut[:-1]] * size * own)
        # One key per batch, its shape: kind, r = 1 throughout, L_u and
        # size, then per part its shape block, L_v, targets per operation,
        # how many tables have u first and whether it holds a view of them.
        n_parts = np.diff(cut)
        keyed = np.full((len(starts), 4 + 5 * n_parts.max()), -1)
        keyed[:, :4] = np.column_stack((kinds, unit, lab_u[cut[:-1]], size))
        col = 4 + 5 * (np.arange(len(b)) - np.repeat(cut[:-1], n_parts))
        keyed[b[:, None], col[:, None] + np.arange(5)] = np.column_stack(
            (code % n_blocks, lab_v, lens // m, u_first, even))
        keys, key_of = _unique_rows(keyed)
        length = np.empty(len(keys), dtype=np.int64)    # unpadded
        length[key_of] = 4 + 5 * n_parts
        keys = [tuple(k[:n]) for k, n in zip(keys.tolist(), length.tolist())]
        # The wave's last batch adds the late pushes' scratch rows to their
        # nodes, in program order, and clears them.
        wave_of = waves[order[starts]]          # of each batch
        lab = lab[into[late]]
        step = np.arange(lab.sum()) - np.repeat(np.cumsum(lab) - lab, lab)
        dest = np.repeat(model.label_offsets[into[late]], lab) + step
        src = np.repeat(excess[late], lab) + step
        wave, at = np.unique(np.repeat(waves[op[late]], lab),
                             return_index=True)
        fix = [None] * len(starts)
        for b, d, s in zip(np.searchsorted(wave_of, wave, "right") - 1,
                           np.split(dest, at[1:]), np.split(src, at[1:])):
            fix[b] = d, s
            need[b] = max(need[b], len(s))
        work = self._scratch
        work.fit(int(need.max()))
        scratch = work.array
        # Each batch: its spec, its rows of the index, per part its edges'
        # tables, how many of them have u first and the views of them its
        # kernel reads, its weights as columns (r, and what an operation
        # keeps of theta^phi_u), what ends its wave (with the scratch the
        # late pushes are gathered into), and the views of the scratch that
        # the batches of its shape share, bound once per scratch.
        r, keep = r[order, None], (1.0 - count * r)[order, None]
        bound, batches = work.bound, []
        for a, m, end, x, y, p, q, z in zip(
                starts.tolist(), size.tolist(), fix, rows, rows[1:], cut,
                cut[1:], key_of.tolist()):
            key = keys[z]
            if key not in bound:
                bound[key] = _bind(key, blocks, scratch)
            spec, shared = bound[key]
            if end is not None:
                end = *end, scratch[:len(end[1])]
            batches.append(_Batch(spec, index[x:y].reshape(-1, m), tabs[p:q],
                                  r[a:a + m], keep[a:a + m], end, shared))
        messages = int(np.dot(np.take(_MESSAGES, kind), count))
        return batches, messages

    def run(self, phi, counter=None, costs=None):
        """Apply the program to phi, charging its messages to ``counter``.

        theta^phi of every node is first written into the buffer: ``costs``
        if given, which must be ``node_costs(model, phi)`` of this very phi
        (a record's evaluation of it), else derived from theta and phi, so
        phi written from outside a program is honoured.  Where values too
        large to update by deltas can reach theta^phi (``_exact_excess``),
        it is derived again after every batch.  A run on the buffer that
        ``_calls`` were recorded on replays them: each is bound to the
        views it was recorded with, so the pass is the recorded one, bit
        for bit; with ``replay``, a run on another buffer records anew."""
        if self._plan is None:
            self._plan, self._calls = self._compile(), (None, [])
        batches, messages = self._plan
        model, buf = self.model, phi.buffer
        nodes, exact = slice(model._unary_flat.size), model._exact_excess
        buf[nodes] = node_costs(model, phi) if costs is None else costs
        on, calls = self._calls
        if on is buf:
            for f, args in calls:
                f(*args)
        else:
            call, calls = _call, []
            if self._replay:
                def call(f, *args):         # record it, then make it
                    calls.append((f, args))
                    f(*args)
            for spec, idx, parts, r, keep, end, shared in batches:
                _KERNELS[spec.kind](call, buf, idx, parts, r, keep, *shared)
                if end is not None:         # the late pushes of the wave
                    into, at, late = end
                    call(buf.take, at, None, late, "clip")
                    call(np.add.at, buf, into, late)
                    call(buf.put, at, 0.0)
                if exact:
                    call(_derive, model, phi)
            if self._replay:                # a whole pass, recorded
                self._calls = buf, calls
        if counter is not None:
            counter.add(messages)


def _derive(model, phi):
    """Write theta^phi of every node into phi's buffer, from theta and phi."""
    phi.buffer[:model._unary_flat.size] = node_costs(model, phi)


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
    per row its index among them (sorted column by column:
    ``np.unique(axis=0)`` sorts the rows as bytes, far slower)."""
    order = np.lexsort(a.T[::-1])
    s = a[order]
    new = np.append(True, np.any(s[1:] != s[:-1], axis=1))
    which = np.empty(len(a), dtype=np.int64)
    which[order] = np.cumsum(new) - 1
    return a[order[new]], which


_KERNELS = (_run_push, _run_push, _run_pair, _run_pair, _run_push, _run_star)


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
    run_program(model, phi, counter, Program._append, MPLP, [u], 1, [v], 0.0)


def handshake_update(model, phi, u, v, counter=None):
    """Edge block update of MPLP++ / the hierarchical minorant.

    Aggregates both nodes into the edge, half-pushes toward u, then pushes
    all remaining row and column excess out to the nodes.  The result does
    not depend on the incoming phi_{v,u} and satisfies the maximal-minorant
    conditions (zero row and column minima) on the edge.
    """
    run_program(model, phi, counter, Program._append, HANDSHAKE, [u], 1, [v],
                0.0)

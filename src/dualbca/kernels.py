"""What compiled batches work in, and the kernels that run them.

A batch of a :class:`dualbca.updates.Program` gathers its values from
``Reparametrization.buffer`` into a scratch array, works there with numpy
ufuncs that write into views of it, and puts the values back.  The views
depend only on the batch's shape, so :func:`_bind` makes them once, as the
program is compiled, with its spec (:class:`_Spec`, the layout of what it
gathers), for all batches of one shape; a kernel then runs no reshape,
transpose or allocation.  It makes each numpy call as ``call(f, *args)``,
all arguments bound before the pass: ``_call`` calls it, and a run's kept
program also records it, to replay on later passes (``Program.run``).
"""
from __future__ import annotations

import functools
import operator
from typing import NamedTuple

import numpy as np

RDP, PUSH, HANDSHAKE, MPLP, TRWS, STAR = range(6)   # operation kinds
_MIN = np.minimum.reduce
_call = getattr(operator, "call", lambda f, *args: f(*args))    # 3.11: in C


class _Part(NamedTuple):
    """The targets of a batch whose edges share a shape block, and
    orientation unless the tables are square."""

    table: np.ndarray       # shape block holding the edges' tables
    lab_v: int
    mine: slice             # their phi_{u,v} among the K values, ...
    back: slice             # ... their phi_{v,u} ...
    excess: slice           # ... and their theta^phi_v


class _Spec(NamedTuple):
    """What one batch of operations shares: kind and layout.

    A batch gathers K values per operation from the buffer: theta^phi_u
    (not for a push), the targets' phi_{u,v}, their phi_{v,u}, then their
    theta^phi_v (not for a star update).  The slices below are ranges of
    those K; in the gathered (K, m) array each names the rows of one block.
    """

    kind: int
    unit: bool              # r = 1 throughout
    lab: int                # L_u
    uv: int                 # start of the phi_{u,v} among the K values
    parts: tuple


class _Scratch:
    """The array that batch kernels gather into and work in, and what each
    batch shape (see :func:`_bind`) is bound to in it.

    The programs of one run share one, and run one at a time; a batch
    leaves nothing in it that the next one reads, and the run keeps every
    shape bound in it.  A static run compiles one program; a run on dynamic
    trees compiles one every pass, whose batch shapes come back pass after
    pass, and the scratch then holds the largest batch any of them runs.
    """

    __slots__ = ("array", "bound")

    def __init__(self):
        self.array = np.empty(0)
        self.bound = {}

    def fit(self, size):
        """Hold at least ``size`` floats.  A new array starts with nothing
        bound; the programs bound to the old one keep it."""
        if size > self.array.size:
            self.array = np.empty(size)
            self.bound = {}


def _bind(key, blocks, scratch):
    """The spec of the batches of one shape and the kernel arguments they
    share: the views of ``scratch`` that they work in whatever their
    tables.  ``key`` is the shape: kind, r = 1 throughout, L_u and the
    number m of operations, then per part its shape block (an index into
    ``blocks``), L_v, targets per operation, how many tables have u first
    and whether the batch holds a view of them.

    The scratch holds the gathered values as (K, m), then work space that
    each part uses in turn: its outputs that are not gathered values (a
    push's min-marginals, a star update's pulled minima and their sum over
    each operation's targets, a handshake's third min-marginal), then its
    gathered tables where the batch holds their positions, then the sum
    that each run of each of its min-marginals reduces in turn.
    r * theta^phi_u, which rdp and TRW-S steps use before their parts and a
    star update after them, shares that space, and so do the late pushes
    that end a wave, once the batch is written back.  Where a batch holds a
    view of a part's tables, it holds the views of them that the runs read
    itself (see :func:`_how`).
    """
    kind, unit, lab, m, *rest = key
    parts = [rest[i:i + 5] for i in range(0, len(rest), 5)]
    uv = lab * (kind != PUSH)
    width = sum(lab_v * c for _, lab_v, c, _, _ in parts)   # of phi_{v,u}
    t0, a0 = uv, uv + sum(c for _, _, c, _, _ in parts) * lab
    n_k = a0 + width * (1 + (kind != STAR))
    work = n_k * m
    x = scratch[:work].reshape(n_k, m)
    e = scratch[:m * uv].reshape(m, lab) if uv else None
    own = None
    if kind == STAR or kind in (RDP, TRWS) and not unit:
        own = scratch[work:work + m * lab].reshape(m, lab)
    share = e if own is None else own
    node, wide = kind in (RDP, TRWS, STAR), None
    specs, mines, bound = [], [], []
    for z, lab_v, c, k, even in parts:
        t1, a1 = t0 + c * lab, a0 + c * lab_v
        p = _Part(blocks[z], lab_v, slice(t0, t1), slice(a0, a1),
                  slice(a0 + width, a1 + width))
        specs.append(p)
        t0, a0 = t1, a1
        n = m * c
        p_uv = scratch[m * p.mine.start:m * p.mine.stop].reshape(n, lab)
        p_vu = scratch[m * p.back.start:m * p.back.stop].reshape(n, lab_v)
        if node:                        # what adds to phi_{u,v}
            if c == 1:
                mines.append((p_uv, share))
            else:
                if wide is None:
                    wide = share[:, None]
                mines.append((p_uv.reshape(m, c, lab), wide))
        ex = None if kind == STAR else scratch[
            m * p.excess.start:m * p.excess.stop].reshape(n, lab_v)
        if kind == STAR:
            top = work + (n + m) * lab
            d = scratch[work:work + n * lab].reshape(n, lab)
        elif kind < HANDSHAKE or kind == TRWS:
            top = work + n * lab_v
            d = scratch[work:top].reshape(n, lab_v)
        elif kind == HANDSHAKE:
            top = work + m * lab
            d = scratch[work:top].reshape(m, lab)
        else:
            top, d = work, None
        _, la, lb = p.table.shape
        cell, how, memo = la * lb, _how(kind, k, n), {}
        if even:
            tab = gathered = None
        else:
            tab = scratch[top:top + n * cell].reshape(n, la, lb)
            top += n * cell
            gathered = _transposed(tab, how)
        t = scratch[top:top + (max(k, n - k) if 0 < k < n else n) * cell]
        if kind == STAR:
            views = (_runs(k, t, la, lb, p_uv, p_vu, False, d, how, memo),
                     p_uv, d, d.reshape(m, c, lab),
                     scratch[work + n * lab:work + (n + m) * lab].reshape(
                         m, lab))
        elif kind < HANDSHAKE or kind == TRWS:
            views = _runs(k, t, la, lb, p_uv, p_vu, True, d, how,
                          memo), p_vu, ex, d
        else:                           # d: a handshake's third min-marginal
            views = (p_uv, p_vu, ex,
                     _runs(k, t, la, lb, p_uv, p_vu, False, e, how, memo),
                     _runs(k, t, la, lb, p_uv, p_vu, True, ex, how, memo),
                     None if d is None else _runs(k, t, la, lb, p_uv, p_vu,
                                                  False, d, how, memo), d)
        bound.append((p.table, tab, gathered, *views))
    spec = _Spec(kind, bool(unit), lab, uv, tuple(specs))
    if kind == STAR:
        return spec, (x, e, own, tuple(mines), tuple(bound))
    if kind in (HANDSHAKE, MPLP):
        return spec, (x, e, *bound[0])
    return spec, (x, None if kind == PUSH else (e, own, tuple(mines)),
                  tuple(bound))


def _runs(k, t, la, lb, p_uv, p_vu, over_u, out, how, memo):
    """The runs of a min-marginal over (m, la, lb) tables, u the first
    endpoint of the first k of them, with its sum in ``t`` (see
    :func:`_marginal`).  Each reads the tables through the view that
    ``how`` lists as (rows, transposition), those of minima over Y_u last.
    ``memo`` keeps the views of one part that its min-marginals share: per
    run and reduced axis, the rows added first, the sum and the rows added
    last."""
    n = len(out)
    spans = ((0, k), (k, n)) if 0 < k < n else ((0, n),)
    at = len(how) - len(spans) if over_u else 0     # see _how
    runs = []
    for lo, hi in spans:
        first = lo == 0 < k
        over_a = first == over_u                # minima over Y_a
        if (lo, over_a) not in memo:
            a, b = (p_uv, p_vu) if first else (p_vu, p_uv)   # p_a, p_b
            c = hi - lo
            if c < n:
                a, b = a[lo:hi], b[lo:hi]
            memo[lo, over_a] = (
                a.T[:, :, None] if over_a else a,
                t[:c * la * lb].reshape((la, c, lb) if over_a else (lb, c, la)),
                b if over_a else b.T[:, :, None])
        runs.append((at, *memo[lo, over_a], out if hi - lo == n
                     else out[lo:hi], over_a))
        at += 1
    return tuple(runs)


@functools.lru_cache(maxsize=4096)
def _how(kind, k, n):
    """The views of a part's n tables, u the first endpoint of the first k
    of them, that the min-marginals of a kernel of this kind read: per
    view the rows and their transposition, the reduced axis first.  A
    push's one min-marginal reduces over Y_u, a star update's over Y_v, a
    handshake's or an MPLP update's over both, those over Y_u last, one
    view per run; on the first k tables Y_u is the first axis."""
    views = []
    for over_u in ((False,) if kind == STAR else (True,) if kind in (
            RDP, PUSH, TRWS) else (False, True)):
        for lo, hi in ((0, k), (k, n)) if 0 < k < n else ((0, n),):
            view = (None if hi - lo == n else slice(lo, hi),
                    (1, 0, 2) if (lo == 0 < k) == over_u else (2, 0, 1))
            if view not in views:
                views.append(view)
    return tuple(views)


def _transposed(tables, how):
    """The views of ``tables`` that ``how`` lists."""
    return tuple([(tables if rows is None else tables[rows]).transpose(order)
                  for rows, order in how])


def _marginal(call, runs, tables):
    """Minima over Y_u (the u -> v messages) or over Y_v of theta^phi of a
    batch of edges, run by run, each into its rows of one (m, L) output.

    The tables are in canonical orientation, (m, L_a, L_b), and theta^phi
    is summed in the operand order of :func:`dualbca.model.energy`,
    (theta_ab + phi_{a,b}) + phi_{b,a}.  u is the canonical first endpoint
    of the edges of one run and the second of the other's (both occur only
    on square tables).
    Each run holds which of ``tables`` it reads (its rows, transposed so
    that the reduced axis comes first), the row it adds to them, broadcast
    along the other axis, the sum it reduces, the row it adds last, its
    output, and whether it reduces over Y_a.  Minima over Y_a reduce
    theta_ab + phi_{a,b} first and add the phi_{b,a} row to the result:
    rounding to nearest is monotone, so min_s fl(q_s + c) = fl(min_s q_s +
    c), bit for bit (signed zeros included), for one table-sized add less.
    With the reduced axis first, numpy reduces the sum as a few
    elementwise minima over whole slabs; reducing a short inner axis goes
    a few elements at a time and is about twice as slow on tables of 4x4
    to 16x16.
    """
    for i, add, t, last, out, over_a in runs:
        call(np.add, tables[i], add, t)
        if over_a:
            call(_MIN, t, 0, None, out)
            call(np.add, out, last, out)
        else:
            call(np.add, t, last, t)
            call(_MIN, t, 0, None, out)


def _run_push(call, buf, idx, tables, r, keep, x, node, parts):
    """rdp, push and the TRW-S step at a batch of nodes.

    rdp and the TRW-S step move r * theta^phi_u into each target's
    phi_{u,v}, so that theta^phi_u keeps 1 - r * (number of targets) of
    itself; then each pushes its u -> v min-marginals into v, as a push
    does.  What an operation leaves unchanged of what it gathered no other
    operation of the wave writes, so all of it is written back.  ``node``
    (none for a push) holds theta^phi_u as (m, L_u), r * theta^phi_u (none
    where r = 1), and each part's phi_{u,v} with what adds to it.  Each
    part holds its shape block, the scratch its tables are gathered into
    and the views of them (none where the batch holds views of its own),
    its min-marginal runs, its phi_{v,u} and theta^phi_v as
    (m * c, L_v), and the min-marginals' output.  ``tables`` has the
    batch's own: per part (its tables or their positions, how many have u
    first, and the views of them that its min-marginals read).
    """
    call(buf.take, idx, None, x, "clip")
    if node is not None:
        e, own, mines = node
        if own is not None:
            call(np.multiply, e, r, own)
        for mine, share in mines:
            call(np.add, mine, share, mine)
        call(np.multiply, e, keep, e)
    for (block, tab, gathered, runs, p_vu, ex, d), (at, _, views) in zip(
            parts, tables):
        if tab is not None:
            call(block.take, at, 0, tab, "clip")
            views = gathered
        _marginal(call, runs, views)
        call(np.subtract, p_vu, d, p_vu)
        call(np.add, ex, d, ex)
    call(buf.__setitem__, idx, x)


def _run_star(call, buf, idx, tables, r, keep, x, e, own, mines, parts):
    """The star update at a batch of nodes: pull every v -> u min-marginal
    into u, then move r * theta^phi_u into every phi_{u,v}.  Each part
    holds its tables as a push batch's do, its min-marginal runs, its
    phi_{u,v} as (m * c, L_u), the min-marginals' output as (m * c, L_u)
    and as (m, c, L_u), and their sum over each operation's targets."""
    call(buf.take, idx, None, x, "clip")
    for (block, tab, gathered, runs, p_uv, d, per_op, pulled), (at, _, views) \
            in zip(parts, tables):
        if tab is not None:
            call(block.take, at, 0, tab, "clip")
            views = gathered
        _marginal(call, runs, views)
        call(np.subtract, p_uv, d, p_uv)
        call(np.add.reduce, per_op, 1, None, pulled)
        call(np.add, e, pulled, e)
    call(np.multiply, e, r, own)
    for mine, share in mines:
        call(np.add, mine, share, mine)
    call(np.multiply, e, keep, e)
    call(buf.__setitem__, idx, x)


def _run_pair(call, buf, idx, tables, r, keep, x, e_u, block, tab, gathered,
              p_uv, p_vu, e_v, to_u, to_v, back, d):
    """handshake and mplp: aggregate both nodes, then the edge's pushes.
    The first two min-marginals go straight into theta^phi_u and
    theta^phi_v, a handshake's third (``back``, none for mplp) into
    ``d``."""
    (at, _, views), = tables
    call(buf.take, idx, None, x, "clip")
    call(np.add, p_uv, e_u, p_uv)
    call(np.add, p_vu, e_v, p_vu)
    if tab is not None:
        call(block.take, at, 0, tab, "clip")
        views = gathered
    _marginal(call, to_u, views)
    call(np.multiply, e_u, 0.5, e_u)
    call(np.subtract, p_uv, e_u, p_uv)
    _marginal(call, to_v, views)
    if back is None:
        call(np.multiply, e_v, 0.5, e_v)
        call(np.subtract, p_vu, e_v, p_vu)
    else:
        call(np.subtract, p_vu, e_v, p_vu)
        _marginal(call, back, views)
        call(np.subtract, p_uv, d, p_uv)
        call(np.add, e_u, d, e_u)
    call(buf.__setitem__, idx, x)

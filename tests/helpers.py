"""One-operation updates and views that only the tests call.

Each update runs a :class:`dualbca.updates.Program` of one operation, or
computes the same quantity from :mod:`dualbca.model`, so that tests can
check the elementary updates one at a time.  :func:`rdp`, :func:`push`,
:func:`handshake`, :func:`mplp`, :func:`trws` and :func:`star` append one
operation to a program through ``Program._append``; :func:`ops` lists a
program's operations and :func:`waves` the wave of each, as its compile
levels them.  :func:`unary_costs` and :func:`pairwise_costs` compute
theta^phi of one node and of one edge from :func:`rows` of phi, in the
operand order of the whole-model evaluation.  :func:`has_edge`,
:func:`edge_id`, :func:`pairwise_table` and :func:`is_zero` read a model
or a reparametrization through ``GraphicalModel.lookup`` and the flat
arrays.  :func:`batch_count` reads how many batches a compiled program
runs, :func:`marginal` runs the min-marginal kernel on arrays of its own,
and :func:`check_greedy_classes` checks a colour-class block order.
:func:`kruskal_forest` is the plain Kruskal spanning forest that the array
forest of :mod:`dualbca.covers` is checked against, and
:func:`edge_chunks` builds the whole theta^phi tables that the whole-model
evaluation of :mod:`dualbca.model` is checked against.  :func:`block_dual`
sums a block's minima with the oracle's own cost functions, and
:func:`count_shortest_paths` counts shortest paths by a plain BFS.
"""
from collections import deque
from functools import partial
from itertools import accumulate

import numpy as np

from dualbca import oracle
from dualbca.blocks import emit_tbca
from dualbca.model import _CHUNK_CELLS, Reparametrization
from dualbca import kernels
from dualbca.updates import (HANDSHAKE, MPLP, PUSH, RDP, STAR, TRWS,
                             run_program)


def ops(prog):
    """(kind, u, v, r) of every operation, in program order; v is the
    tuple of target neighbours for a node operation."""
    kind, u, count, targets, r, _ = prog._table
    ts, count = targets.tolist(), count.tolist()
    return [(k, u, tuple(ts[t:t + c]) if k >= TRWS else ts[t], r)
            for k, u, c, r, t in zip(kind.tolist(), u.tolist(), count,
                                     r.tolist(),
                                     accumulate(count, initial=0))]


def waves(prog):
    """Wave index of every operation, in program order, as the program's
    compile levels them."""
    if len(prog._table[0]) == 0:
        return []
    return list(prog._level(*prog._layouts()[-2:]))


def rdp(prog, u, v, r=1.0):
    """Move fraction r of theta^phi_u into edge uv, then push the u -> v
    min-marginal into v.  r = 1 is the dynamic-programming push; r = 0
    moves nothing of theta^phi_u and is recorded as a push."""
    prog._append(RDP, [u], 1, [v], r)


def push(prog, u, v):
    """Subtract the u -> v min-marginal from phi_{v,u}."""
    prog._append(PUSH, [u], 1, [v], 0.0)


def handshake(prog, u, v):
    """The edge block update of MPLP++ (see ``updates.handshake_update``)."""
    prog._append(HANDSHAKE, [u], 1, [v], 0.0)


def mplp(prog, u, v):
    """The edge block update of MPLP (see ``updates.mplp_update``)."""
    prog._append(MPLP, [u], 1, [v], 0.0)


def trws(prog, u, later, r):
    """The TRW-S step at u: add r * theta^phi_u, computed once, to
    phi_{u,v} of every v in ``later``, then push each u -> v min-marginal
    into v.  One message per v."""
    later = list(later)
    prog._append(TRWS, [u], len(later), later, r)


def star(prog, u, r):
    """The star update of msd and cmp at u: pull the row minima of every
    incident edge into u, then add r * theta^phi_u to each of u's rows.
    One message per neighbour."""
    model = prog.model
    nbrs = model.neighbors(u) if 0 <= u < model.n_nodes else ()
    prog._append(STAR, [u], len(nbrs), nbrs, r)


def rows(phi, u):
    """View of node u's phi rows, shape (deg(u), L_u), in adjacency order."""
    model = phi.model
    off = np.append(0, (model._degree * np.diff(model.label_offsets)).cumsum())
    return phi.values[off[u]:off[u + 1]].reshape(-1, model.labels[u])


def unary_costs(model, phi, u):
    """Reparametrized unary vector theta^phi_u = theta_u - sum_v phi_{u,v}.

    One reduction over theta_u stacked on u's phi rows: the neighbours are
    subtracted one at a time in adjacency order, the same rounding as
    ``model.node_costs``.
    """
    if phi is None:
        return model.unary[u].copy()
    return np.subtract.reduce(
        np.concatenate((model.unary[u][None], rows(phi, u))), axis=0)


def pairwise_costs(model, phi, u, v):
    """Reparametrized pairwise table theta^phi_uv oriented as (Y_u, Y_v).

    Always evaluated in canonical edge orientation, as
    (theta_ab + phi_{a,b}) + phi_{b,a}, so the two query directions are
    transposes of each other bit-exactly.
    """
    e, o_uv, o_vu = model.incidence(u, v)
    a, b, o_ab, o_ba = (u, v, o_uv, o_vu) if u < v else (v, u, o_vu, o_uv)
    out = model.pairwise[e].copy()
    if phi is not None:
        out += phi.values[o_ab:o_ab + model.labels[a]][:, None]
        out += phi.values[o_ba:o_ba + model.labels[b]]
    return out if u < v else out.T


def has_edge(model, u, v):
    return bool(model.lookup(u, v)[1])


def edge_id(model, u, v):
    entry, found = model.lookup(u, v)
    if not found:
        raise ValueError(f"({u},{v}) is not an edge of the model")
    return int(model._inc_edge[entry])


def pairwise_table(model, u, v):
    """Pairwise cost table oriented as (labels of u, labels of v)."""
    t = model.pairwise[edge_id(model, u, v)]
    return t if u < v else t.T


def is_zero(phi):
    return not phi.values.any()


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
        push(prog, v, u)


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
    rows(phi, u)[k] += w[:, None] * excess


def message(model, phi, u, v, counter=None):
    """Directed min-marginal u -> v: min over Y_u of theta^phi_uv per label
    of v."""
    model.incidence(u, v)                   # rejects a non-edge
    if counter is not None:
        counter.add()
    return pairwise_costs(model, phi, u, v).min(axis=0)


def push_min_into(model, phi, u, v, counter=None):
    """Subtract the u->v min-marginal from phi_{v,u}, moving it into node v."""
    run_program(model, phi, counter, push, u, v)


def dp_update(model, phi, u, v, counter=None):
    """Dynamic-programming push over the directed edge u -> v.

    Empties theta^phi_u into the edge, then moves the edge's min-marginal
    into v.  One message.
    """
    run_program(model, phi, counter, rdp, u, v)


def rdp_update(model, phi, u, v, r, counter=None):
    """Redistribution DP over u -> v: push fraction r of theta^phi_u forward.

    r=1 is exactly :func:`dp_update`; r=0 only moves the edge min-marginal.
    """
    run_program(model, phi, counter, rdp, u, v, r)


def tbca_tree(model, phi, block, counter=None, plus=False):
    """Tree-BCA update on a tree (or chain) block; see :func:`emit_tbca`."""
    run_program(model, phi, counter, partial(emit_tbca, plus=plus), block)


def batch_count(prog):
    """Number of batches the program runs a pass in; compiles it (by a run
    on a zero reparametrization) if it has not run yet."""
    if prog._plan is None:
        prog.run(Reparametrization(prog.model))
    batches, _ = prog._plan
    return len(batches)


def marginal(tab, k, p_uv, p_vu, over_u, out=None):
    """The min-marginals over Y_u (``over_u``) or Y_v of a batch of edges
    with canonical tables ``tab``, u first in the first k (see
    ``kernels._marginal``), bound to a sum buffer of their own and written
    into ``out`` (new if not given), which is returned."""
    if out is None:
        out = np.empty((len(tab), (p_vu if over_u else p_uv).shape[1]))
    how = kernels._how(kernels.PUSH if over_u else kernels.STAR, k, len(tab))
    runs = kernels._runs(k, np.empty(tab.size), *tab.shape[1:], p_uv, p_vu,
                         over_u, out, how, {})
    kernels._marginal(kernels._call, runs, kernels._transposed(tab, how))
    return out


def check_greedy_classes(classes, visit):
    """Assert that ``classes`` (lists of node tuples) are the greedy colour
    classes of their paths visited in order of ``visit``: each class is in
    canonical order and shares no node, and each path of class k shares a
    node with a path of every earlier class visited before it."""
    for k, c in enumerate(classes):
        assert c == sorted(c)
        nodes = [u for p in c for u in p]
        assert len(nodes) == len(set(nodes))
        for p in c:
            for earlier in classes[:k]:
                assert any(set(p) & set(q) and visit(q) < visit(p)
                           for q in earlier)


def kruskal_forest(n, edges, keys):
    """Kruskal's spanning forest of the pairs ``edges`` on nodes 0..n-1,
    least key first, ties by position: {union-find root: the tree's edges
    in the order picked}."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    picked = []
    for i in sorted(range(len(edges)), key=lambda i: (keys[i], i)):
        a, b = edges[i]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            picked.append((a, b))
    trees = {}
    for a, b in picked:
        trees.setdefault(find(a), []).append((a, b))
    return trees


def edge_chunks(model, phi):
    """Yield (edge ids, theta^phi tables) in canonical orientation.

    Tables come as ``(m, L_a, L_b)`` stacks of the edges of one shape that
    fill at most ``_CHUNK_CELLS`` table cells (at least one edge), summed
    as (theta_ab + phi_{a,b}) + phi_{b,a}.  With ``phi=None`` they are
    views of the model's tables: read them, do not write them.
    """
    vals = None if phi is None else phi.values
    for g in model._shape_groups:
        k_a, k_b = g.block.shape[1:]
        size = max(1, _CHUNK_CELLS // (k_a * k_b))
        for s in range(0, len(g.edges), size):
            c = slice(s, s + size)
            t = g.block[c]
            if vals is not None:
                t = t + vals[g.off_ab[c, None] + np.arange(k_a)][:, :, None]
                t += vals[g.off_ba[c, None] + np.arange(k_b)][:, None, :]
            yield g.edges[c], t


def block_dual(model, phi, block):
    """Dual restricted to a block: node minima plus edge minima."""
    total = sum(oracle.unary_costs(model, phi, u).min() for u in block.nodes)
    total += sum(oracle.pairwise_costs(model, phi, u, v).min()
                 for (u, v) in block.edges)
    return float(total)


def count_shortest_paths(adjacency, src, dst):
    """Number of distinct shortest paths src -> dst; 0 when disconnected.

    ``adjacency`` maps node -> iterable of neighbors (or is a sequence
    indexed by node).
    """
    if src == dst:
        return 1
    dist = {src: 0}
    count = {src: 1}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if dst in dist and dist[u] >= dist[dst]:
            continue
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                count[v] = 0
                queue.append(v)
            if dist[v] == dist[u] + 1:
                count[v] += count[u]
    return count.get(dst, 0)

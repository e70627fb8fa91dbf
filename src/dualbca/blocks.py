"""Composite block updates over trees, with the chain as the path case.

A block is a connected acyclic subgraph of the model: a chain (nodes in
chain order) or a tree (nodes in ascending order).  All updates here reach
the block optimum of the dual restricted to the block; the
hierarchical-minorant and "++" variants additionally leave every block edge
with zero row and column minima (the maximal-minorant certificate).

Each update is written once, as a tree emitter that appends its elementary
edge operations to a :class:`~dualbca.updates.Program`.  A chain runs
through it as a path-shaped tree: every choice between nodes or edges goes
by position in ``block.nodes``, so a chain is walked in chain order.  The
block update functions run a program of one block, and the solvers compile
all blocks of a pass into one program.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .updates import HANDSHAKE, RDP, run_program


@dataclass(frozen=True)
class Block:
    kind: str                # "edge" | "chain" | "tree"
    nodes: tuple             # chain: in chain order; tree: any order
    edges: tuple             # model edges, canonical (u, v) with u < v

    def __post_init__(self):
        if self.kind not in ("edge", "chain", "tree"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(
            (a, b) if a < b else (b, a) for a, b in self.edges))


def chain_block(model, nodes):
    """Block for the chain visiting ``nodes`` in order."""
    return chain_blocks(model, [nodes])[0]


def chain_blocks(model, paths):
    """Blocks for the chains visiting each node sequence of ``paths`` in
    order, their edges checked with one lookup."""
    paths = [list(map(int, p)) for p in paths]
    for p in paths:
        if len(p) < 2:
            raise ValueError("a chain needs at least two nodes")
        if len(set(p)) != len(p):
            raise ValueError("chain revisits a node")
    _require_edges(model, [u for p in paths for u in p[:-1]],
                   [v for p in paths for v in p[1:]])
    return [Block("edge" if len(p) == 2 else "chain", p, zip(p, p[1:]))
            for p in paths]


def tree_block(model, edges):
    """Block for the tree spanned by ``edges`` (checked connected, acyclic)."""
    edges = np.sort(np.array(list(edges), dtype=np.int64).reshape(-1, 2),
                    axis=1)
    if not edges.size:
        raise ValueError("a tree block needs at least one edge")
    nodes, local = np.unique(edges, return_inverse=True)
    a, b = local.reshape(-1, 2).T
    if np.unique(a * nodes.size + b).size < a.size:
        raise ValueError("duplicate edge in tree block")
    _require_edges(model, *edges.T)
    if a.size != nodes.size - 1:
        raise ValueError("tree block has a cycle or is disconnected")
    if not minimum_forest(nodes.size, a, b)[0].all():
        raise ValueError("tree block has a cycle")
    return Block("tree", nodes.tolist(), edges.tolist())


def _require_edges(model, u, v):
    """Raise at the first pair (u[i], v[i]) that is no edge of the model."""
    found = model.lookup(u, v)[1]
    if not found.all():
        i = int(found.argmin())
        raise ValueError(f"({u[i]},{v[i]}) is not an edge of the model")


def minimum_forest(n, a, b):
    """Borůvka's minimum spanning forest of nodes ``0..n-1`` and edges
    (a[i], b[i]) ranked by i: which edges it picks, and each node's
    component label.  The forest is unique, so these are Kruskal's edges.

    In each round every component takes its least-ranked outgoing edge
    (one minimum over both endpoints) and hooks onto the component at its
    other end, two that took the same edge onto the smaller label; pointer
    jumping then finds the new roots.  The rounds run on ranks n, 2n, 4n,
    ... at a time: the forest of a prefix is part of the whole forest, and
    a dense graph's later edges mostly just close cycles.
    """
    m = len(a)
    picked = np.zeros(m, dtype=bool)
    label = np.arange(n)
    start, step = 0, n
    while start < m:
        rank = np.arange(start, min(start + step, m))
        start, step = start + step, 2 * step
        while True:
            ca, cb = label[a[rank]], label[b[rank]]
            out = ca != cb
            if not out.any():
                break
            rank = rank[out]
            best = np.full(n, m)
            np.minimum.at(best, np.concatenate((ca[out], cb[out])),
                          np.concatenate((rank, rank)))
            c = np.flatnonzero(best < m)
            e = best[c]
            picked[e] = True
            to = label[a[e]] + label[b[e]] - c
            label[c] = to
            mutual = (label[to] == c) & (c < to)
            label[c[mutual]] = c[mutual]
            while True:
                up = label[label]
                if (up == label).all():
                    break
                label = up
    return picked, label


def _require_chain(block):
    if block.kind not in ("edge", "chain"):
        raise ValueError(f"expected a chain block, got {block.kind}")


def _block_adjacency(block):
    """Neighbour positions of every position in ``block.nodes``, ascending."""
    at = {u: i for i, u in enumerate(block.nodes)}
    adj = [[] for _ in block.nodes]
    for a, b in block.edges:
        adj[at[a]].append(at[b])
        adj[at[b]].append(at[a])
    for nbrs in adj:
        nbrs.sort()
    return adj


def _walk(adj, root, reverse=False):
    """(node, parent) pairs of the tree ``adj`` in depth-first pre-order from
    ``root``, whose parent is -1; children in adjacency order, or reversed."""
    order, stack = [], [(root, -1)]
    while stack:
        u, p = stack.pop()
        order.append((u, p))
        for w in (adj[u] if reverse else reversed(adj[u])):
            if w != p:
                stack.append((w, u))
    return order


def tbca_chain(model, phi, block, counter=None):
    """Tree-BCA update on a chain.

    Forward DP sweep collects all costs at the chain end, then a reverse
    redistribution sweep runs rDP with r = (n - i)/n at node i.  Exactly
    2(n-1) messages on an n-node chain.
    """
    _require_chain(block)
    run_program(model, phi, counter, emit_tbca, block)


def tbca_pp_chain(model, phi, block, counter=None):
    """TBCA with the maximality correction.

    After each backward rDP on an edge, the remaining row excess is pushed
    out as well, so every chain edge ends with zero row and column minima.
    """
    _require_chain(block)
    run_program(model, phi, counter,
                lambda prog, b: emit_tbca(prog, b, plus=True), block)


def emit_tbca(prog, *blocks, plus=False):
    """Append the (plus-)TBCA update of each block to ``prog``, in one call.

    Costs are collected at the root ``block.nodes[-1]`` (a chain's end, a
    tree's highest index) along a depth-first post-order; the reverse sweep
    redistributes with r = (j-1)/n at the j-th backward step, which on a
    chain is r = (n - i)/n at node i.
    """
    u, v, r = [], [], []
    for block in blocks:
        nodes, n = block.nodes, len(block.nodes)
        walk = _walk(_block_adjacency(block), n - 1)[1:]
        c, p = [nodes[i] for i, _ in walk], [nodes[j] for _, j in walk]
        m, k = len(walk), 1 + plus
        bu, bv, br = [0] * k * m, [0] * k * m, [0.0] * k * m
        bu[::k], bv[::k], br[::k] = p, c, [j / n for j in range(m)]
        if plus:        # each backward rdp, then a push back
            bu[1::2], bv[1::2] = c, p
        u += c[::-1] + bu           # children before parents, then back
        v += p[::-1] + bv
        r += [1.0] * m + br
    if u:
        prog._append(RDP, u, 1, v, r)


def hm_chain(model, phi, block, counter=None):
    """Hierarchical minorant update on a chain; see :func:`emit_hm`."""
    _require_chain(block)
    run_program(model, phi, counter, emit_hm, block)


def hm_tree(model, phi, block, counter=None):
    """Hierarchical minorant update on a tree (or chain) block."""
    run_program(model, phi, counter, emit_hm, block)


def emit_hm(prog, *blocks):
    """Append the hierarchical minorant update of each block to ``prog``.

    DP pushes every cost toward the mid edge, a handshake resolves it, and
    the two sides are processed in turn, the lower-position side first.
    Pushes already performed at an enclosing level are not repeated.  The
    operations depend only on positions in ``block.nodes``, so a chain's
    are worked out once per length (from those of its halves, see
    :func:`_hm_chain`), and the blocks' operations are appended in one
    call.
    """
    memo, ops, at = {}, [], [0]
    for block in blocks:
        if block.kind == "tree":
            ops.append(_hm(_block_adjacency(block)))
        else:
            ops.append(_hm_chain(len(block.nodes), memo))
        at.append(at[-1] + len(block.nodes))
    if ops:
        nodes = np.fromiter((u for b in blocks for u in b.nodes), np.int64)
        kind, a, b = np.concatenate(ops).T
        at = np.repeat(at[:-1], list(map(len, ops)))
        prog._append(kind, nodes[a + at], 1, nodes[b + at], kind == RDP)


def _hm_chain(n, memo, left=True, right=True):
    """The operations of :func:`_hm` on a chain of ``n`` nodes, as
    positions along it, where only the ends marked fresh (``left``, at
    position 0, and ``right``, at n - 1) push toward the mid edge.  The mid
    edge is (n // 2 - 1, n // 2), the most even split with ties to the
    lower position; the left half then pushes from its right end only, the
    right half from its left end only.  ``memo`` keeps the operations by
    (n, left, right), for the halves that chains of other lengths share."""
    key = n, left, right
    if key not in memo:
        if n < 3:
            ops = np.array([(HANDSHAKE, 0, 1)][:n - 1],
                           dtype=np.int64).reshape(-1, 3)
        else:
            mid = n // 2
            ops = [(RDP, i, i + 1) for i in range(mid) if left]
            ops += [(RDP, i, i - 1) for i in range(n - 1, mid, -1) if right]
            ops.append((HANDSHAKE, mid - 1, mid))
            ops = np.concatenate((ops, _hm_chain(mid, memo, False, True),
                                  _hm_chain(n - mid, memo, True, False)
                                  + (0, mid, mid)))
        memo[key] = ops
    return memo[key]


def _hm(adj):
    """(kind, position of u, position of v) of every operation of the
    hierarchical minorant update of the tree ``adj``, which it empties."""
    ops = []
    # Sub-blocks still to do, as (root, top): below the top, root is the
    # endpoint the enclosing handshake changed, and every edge of the
    # sub-block already holds a DP message toward it.  Each handshake drops
    # its edge from adj, which splits the sub-block in two.
    todo = [(0, True)]
    while todo:
        root, top = todo.pop()
        if not adj[root]:
            continue
        order = _walk(adj, root)
        n = len(order)
        if n == 2:
            ops.append((HANDSHAKE, min(order[1]), max(order[1])))
            continue
        size = {u: 1 for u, _ in order}
        for u, p in order[:0:-1]:
            size[p] += size[u]
        # The mid edge splits the sub-block most evenly; ties by position.
        _, a, b = min((max(size[u], n - size[u]), min(u, p), max(u, p))
                      for u, p in order[1:])
        if top:
            # Push every edge toward b, children in position order.
            ops += [(RDP, u, w)
                    for u, w in reversed(_walk(adj, b, reverse=True)[1:])]
        else:
            # Only the edges between root and b point away from b; every
            # other message toward root also points toward b and is valid.
            parent = dict(order)
            path = [b]
            while path[-1] != root:
                path.append(parent[path[-1]])
            path.reverse()
            ops += [(RDP, u, w) for u, w in zip(path, path[1:])]
        ops.append((HANDSHAKE, a, b))
        adj[a].remove(b)
        adj[b].remove(a)
        todo += [(b, False), (a, False)]
    return np.array(ops, dtype=np.int64).reshape(-1, 3)

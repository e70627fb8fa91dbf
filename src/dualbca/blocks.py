"""Composite block updates over chains and trees.

A block is a connected acyclic subgraph of the model.  All updates here
reach the block optimum of the dual restricted to the block; the
hierarchical-minorant and "++" variants additionally leave every block edge
with zero row and column minima (the maximal-minorant certificate).

Each update is written once, as an emitter that appends its elementary edge
operations to a :class:`~dualbca.updates.Program`; the block update functions
run a program of one block, and the solvers compile all blocks of a pass into
one program.
"""
from __future__ import annotations

from dataclasses import dataclass

from .updates import run_program


@dataclass(frozen=True)
class Block:
    kind: str                # "edge" | "chain" | "tree"
    nodes: tuple             # chain: in chain order; tree: any order
    edges: tuple             # model edges, canonical (u, v) with u < v

    def __post_init__(self):
        if self.kind not in ("edge", "chain", "tree"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges",
                           tuple(tuple(sorted(e)) for e in self.edges))


def chain_block(model, nodes):
    """Block for the chain visiting ``nodes`` in order."""
    nodes = [int(u) for u in nodes]
    if len(nodes) < 2:
        raise ValueError("a chain needs at least two nodes")
    if len(set(nodes)) != len(nodes):
        raise ValueError("chain revisits a node")
    edges = []
    for a, b in zip(nodes, nodes[1:]):
        model.edge_id(a, b)
        edges.append((a, b))
    kind = "edge" if len(nodes) == 2 else "chain"
    return Block(kind, nodes, edges)


def tree_block(model, edges):
    """Block for the tree spanned by ``edges`` (checked connected, acyclic)."""
    edges = [tuple(sorted((int(a), int(b)))) for a, b in edges]
    if not edges:
        raise ValueError("a tree block needs at least one edge")
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate edge in tree block")
    for a, b in edges:
        model.edge_id(a, b)
    nodes = sorted({u for e in edges for u in e})
    if len(edges) != len(nodes) - 1:
        raise ValueError("tree block has a cycle or is disconnected")
    # Connectivity check by union-find.
    parent = {u: u for u in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            raise ValueError("tree block has a cycle")
        parent[ra] = rb
    return Block("tree", nodes, edges)


def _require_chain(block):
    if block.kind not in ("edge", "chain"):
        raise ValueError(f"expected a chain block, got {block.kind}")


def _block_adjacency(block):
    adj = {u: [] for u in block.nodes}
    for a, b in block.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def tbca_chain(model, phi, block, counter=None):
    """Tree-BCA update on a chain.

    Forward DP sweep collects all costs at the chain end, then a reverse
    redistribution sweep runs rDP with r = (n - i)/n at node i.  Exactly
    2(n-1) messages on an n-node chain.
    """
    _require_chain(block)
    run_program(model, phi, counter, emit_tbca, block, False)


def tbca_pp_chain(model, phi, block, counter=None):
    """TBCA with the maximality correction.

    After each backward rDP on an edge, the remaining row excess is pushed
    out as well, so every chain edge ends with zero row and column minima.
    """
    _require_chain(block)
    run_program(model, phi, counter, emit_tbca, block, True)


def tbca_tree(model, phi, block, counter=None, plus=False):
    """Tree analog of the chain TBCA update.

    Costs are collected at the root (the highest-index node) along a DFS
    post-order; the reverse sweep redistributes with r = (j-1)/n at the j-th
    backward step, matching the chain schedule when the tree is a path.
    """
    run_program(model, phi, counter, _emit_tbca_tree, block, plus)


def emit_tbca(prog, block, plus=False):
    """Append the (plus-)TBCA update of a chain or tree block to ``prog``."""
    if block.kind == "tree":
        _emit_tbca_tree(prog, block, plus)
        return
    nodes = block.nodes
    n = len(nodes)
    for a, b in zip(nodes, nodes[1:]):
        prog.rdp(a, b)
    for i in range(n, 1, -1):          # chain positions n..2, 1-based
        u, v = nodes[i - 1], nodes[i - 2]
        prog.rdp(u, v, (n - i) / n)
        if plus:
            prog.push(v, u)


def _emit_tbca_tree(prog, block, plus):
    adj = _block_adjacency(block)
    nodes = block.nodes
    n = len(nodes)
    root = max(nodes)
    # Iterative DFS post-order of edges (child -> parent).
    order, stack, seen = [], [(root, -1)], {root}
    while stack:
        u, p = stack.pop()
        if p >= 0:
            order.append((u, p))
        for w in sorted(adj[u], reverse=True):
            if w not in seen:
                seen.add(w)
                stack.append((w, u))
    order.reverse()                    # children before parents
    for c, p in order:
        prog.rdp(c, p)
    for j, (c, p) in enumerate(reversed(order), start=1):
        prog.rdp(p, c, (j - 1) / n)
        if plus:
            prog.push(c, p)


def hm_chain(model, phi, block, counter=None):
    """Hierarchical minorant update on a chain.

    DP pushes costs from both ends to the mid edge, a handshake resolves the
    mid edge, and the two halves are processed recursively.  Pushes already
    performed at an enclosing level are not repeated.
    """
    run_program(model, phi, counter, emit_hm_chain, block)


def emit_hm_chain(prog, block):
    """Append the hierarchical minorant update of a chain block to ``prog``."""
    _require_chain(block)
    _emit_hm_chain(prog, list(block.nodes), True, True)


def _emit_hm_chain(prog, nodes, left_fresh, right_fresh):
    n = len(nodes)
    if n <= 1:
        return
    if n == 2:
        prog.handshake(nodes[0], nodes[1])
        return
    i_l = n // 2                       # 1-based mid-points (i_l, i_l + 1)
    if left_fresh:
        for i in range(i_l):           # push start .. through the mid edge
            prog.rdp(nodes[i], nodes[i + 1])
    if right_fresh:
        for i in range(n - 1, i_l, -1):  # push end .. down to the mid edge
            prog.rdp(nodes[i], nodes[i - 1])
    prog.handshake(nodes[i_l - 1], nodes[i_l])
    # Left half keeps its leftward history, right half its rightward one;
    # only the ends refreshed by the handshake need new pushes.
    _emit_hm_chain(prog, nodes[:i_l], left_fresh=False, right_fresh=True)
    _emit_hm_chain(prog, nodes[i_l:], left_fresh=True, right_fresh=False)


def tree_centroid(adj, nodes):
    """Node whose removal leaves subtrees of size <= floor(n/2); lowest index wins."""
    n = len(nodes)
    size, parent = _subtree_sizes_from(adj, nodes[0])
    best = None
    for u in nodes:
        components = [n - size[u]]
        components += [size[w] for w in adj[u] if parent[w] == u]
        if max(components) <= n // 2 and (best is None or u < best):
            best = u
    return best


def _subtree_sizes_from(adj, root):
    """Map child -> subtree size for the tree rooted at ``root``."""
    size, order = {}, []
    stack, seen = [(root, -1)], {root}
    parent = {root: -1}
    while stack:
        u, p = stack.pop()
        order.append(u)
        parent[u] = p
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append((w, u))
    for u in reversed(order):
        size[u] = 1 + sum(size[w] for w in adj[u] if parent.get(w) == u)
    return size, parent


def hm_tree(model, phi, block, counter=None):
    """Hierarchical minorant on a tree.

    Picks the centroid and the neighbor splitting the tree most evenly as
    the central edge, DP-pushes every branch toward it, handshakes it, and
    recurses into the two sides.
    """
    if block.kind == "chain":
        block = tree_block(model, block.edges)
    run_program(model, phi, counter, _emit_hm_tree, _block_adjacency(block),
               list(block.nodes))


def _emit_hm_tree(prog, adj, nodes):
    n = len(nodes)
    if n <= 1:
        return
    if n == 2:
        prog.handshake(nodes[0], nodes[1])
        return
    c = tree_centroid(adj, nodes)
    size, _ = _subtree_sizes_from(adj, c)
    # Neighbor whose side is closest to half the tree; ties by lowest index.
    d = min(adj[c], key=lambda w: (max(size[w], n - size[w]), w))
    # DP from the leaves toward the central edge endpoints, per side.
    for side_root, banned in ((c, d), (d, c)):
        order = []
        stack, seen = [(side_root, -1)], {side_root, banned}
        while stack:
            u, p = stack.pop()
            if p >= 0:
                order.append((u, p))
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, u))
        for u, p in reversed(order):
            prog.rdp(u, p)
    prog.handshake(c, d)
    side_c = _component_nodes(adj, c, without=d)
    side_d = _component_nodes(adj, d, without=c)
    _emit_hm_tree(prog, _restrict(adj, side_c), sorted(side_c))
    _emit_hm_tree(prog, _restrict(adj, side_d), sorted(side_d))


def _component_nodes(adj, start, without):
    seen = {start, without}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    seen.discard(without)
    return seen


def _restrict(adj, keep):
    return {u: [w for w in adj[u] if w in keep] for u in keep}

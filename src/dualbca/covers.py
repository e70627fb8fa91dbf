"""Constructing collections of blocks for the solvers to iterate over.

Three static families (maximal monotonic chains, strictly-shortest-path
chains, greedily re-weighted spanning trees) plus gap-scored dynamic trees.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import chain_block, find, tree_block, union
from .model import edge_chunks, node_costs, node_minima


@dataclass(frozen=True)
class BlockSchedule:
    origin: str              # mmc | ssp | static_trees | dynamic_trees | rows_columns
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))


def compute_mmc_cover(model, order=None):
    """Edge-disjoint maximal monotonic chains covering all edges.

    Greedily grows a chain from the smallest node (in ``order``) that still
    has an uncovered edge to a larger neighbor, always stepping to the
    smallest larger neighbor, until no extension exists; repeats until all
    edges are covered.
    """
    n = model.n_nodes
    order = list(range(n)) if order is None else list(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the node indices")
    pos = [0] * n
    for i, u in enumerate(order):
        pos[u] = i
    # Ad[u]: uncovered neighbors later than u in the order, smallest first.
    ad = [sorted((v for v in model.neighbors(u) if pos[v] > pos[u]),
                 key=lambda v: pos[v]) for u in range(n)]
    chains = []
    for start in sorted(range(n), key=lambda u: pos[u]):
        while ad[start]:
            chain = [start]
            tail = start
            while ad[tail]:
                nxt = ad[tail].pop(0)
                chain.append(nxt)
                tail = nxt
            chains.append(chain_block(model, chain))
    return BlockSchedule("mmc", chains)


def rows_columns_cover(model):
    """Row and column chains of a grid model (requires grid_shape)."""
    if model.grid_shape is None:
        raise ValueError("model carries no grid shape")
    h, w = model.grid_shape
    chains = []
    for r in range(h):
        if w > 1:
            chains.append(chain_block(model, [r * w + c for c in range(w)]))
    for c in range(w):
        if h > 1:
            chains.append(chain_block(model, [r * w + c for r in range(h)]))
    return BlockSchedule("rows_columns", chains)


def _bfs_live_paths(model, start, alive):
    """Level-synchronous BFS of the full graph from ``start``.

    Returns, per node: the full-graph distance (-1 when unreached); the
    number of those shortest paths whose edges are all ``alive`` (one flag
    per edge), capped at 2; and, where that count is positive, the edge of
    the last step of one such path (-1 elsewhere).  Each level gathers its
    frontier's CSR entries at once and sums the live path counts reaching
    each new node with one bincount.  The BFS stops at a frontier
    without live paths, as no node beyond it can get one, and once it has
    reached every node.
    """
    ptr, nbr, edge = model._inc_ptr, model._inc_nbr, model._inc_edge
    n = model.n_nodes
    dist = np.full(n, -1, dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)
    via = np.full(n, -1, dtype=np.int64)
    dist[start] = 0
    count[start] = 1
    frontier = np.array([start], dtype=np.int64)
    level = 0
    seen = 1
    while seen < n and count[frontier].any():
        level += 1
        lens = model._degree[frontier]
        ends = np.cumsum(lens)
        entry = np.repeat(ptr[frontier] - ends + lens, lens) + np.arange(ends[-1])
        paths = np.repeat(count[frontier], lens) * alive[edge[entry]]
        new = dist[nbr[entry]] < 0
        entry, paths = entry[new], paths[new]
        reached = nbr[entry]
        dist[reached] = level
        frontier = np.flatnonzero(dist == level)
        seen += frontier.size
        count[frontier] = np.minimum(
            np.bincount(reached, weights=paths)[frontier], 2)
        step = entry[paths > 0]
        via[nbr[step]] = edge[step]
    return dist, count, via


def compute_ssp_cover(model, seed=0):
    """Partition of the edges into strictly-shortest-path chains.

    Repeatedly picks a random start vertex with uncovered incident edges,
    finds the most distant vertex (lowest index on ties) reached by a
    unique shortest path in the residual (uncovered) graph, extracts that
    path as a chain and removes its edges.  A chain additionally may not be
    longer than the start-to-end distance in the full graph: if a direct
    shorter connection exists the detour is not treated as a shortest path.
    In complete graphs this reduces to single-edge blocks.

    One BFS of the full graph per chain decides both conditions: it counts,
    over the full graph's shortest paths, those whose edges are all
    uncovered.  A residual path is a full-graph path, so the residual
    distance is never below the full one; the count is therefore positive
    exactly when the two distances are equal, and then it is the number of
    residual shortest paths.  An end is strict exactly when the count is 1.
    """
    if model.n_edges == 0:
        return BlockSchedule("ssp", [])
    rng = np.random.default_rng(seed)
    alive = np.ones(model.n_edges, dtype=bool)
    degree = model._degree.copy()
    chains = []
    while alive.any():
        start = int(rng.choice(np.flatnonzero(degree > 0)))
        dist, count, via = _bfs_live_paths(model, start, alive)
        ends = np.flatnonzero((count == 1) & (dist >= 1))
        node = int(ends[np.argmax(dist[ends])])  # argmax returns lowest index on ties
        path = [node]
        while node != start:
            a, b = model.edges[via[node]]
            node = a if b == node else b
            path.append(node)
        path.reverse()
        alive[via[path[1:]]] = False
        degree[path[:-1]] -= 1
        degree[path[1:]] -= 1
        chains.append(chain_block(model, path))
    return BlockSchedule("ssp", chains)


def _spanning_forest(model, keys):
    """Kruskal spanning forest minimizing the per-edge sort keys, as one tree
    block per connected component, ordered by the component's root."""
    parent = list(range(model.n_nodes))
    picked = [model.edges[e]
              for e in sorted(range(model.n_edges), key=keys.__getitem__)
              if union(parent, *model.edges[e])]
    trees = {}
    for u, v in picked:
        trees.setdefault(find(parent, u), []).append((u, v))
    return [tree_block(model, edges) for _, edges in sorted(trees.items())]


def compute_static_trees(model):
    """Spanning trees re-weighted by inclusion counts until all edges covered.

    On a disconnected graph each round yields one tree per component.
    """
    if model.n_edges == 0:
        return BlockSchedule("static_trees", [])
    times_used = [0] * model.n_edges
    trees = []
    while min(times_used) == 0:
        forest = _spanning_forest(
            model, [(times_used[e], e) for e in range(model.n_edges)])
        for tree in forest:
            for u, v in tree.edges:
                times_used[model.edge_id(u, v)] += 1
        trees.extend(forest)
    return BlockSchedule("static_trees", trees)


def gap_scores(model, phi, y):
    """Local primal-dual gaps: per-node and per-edge excess of y over the minima."""
    costs = node_costs(model, phi)
    node_gap = costs[model.label_offsets[:-1] + y] - node_minima(model, costs)
    edge_gap = np.zeros(model.n_edges)
    ends = np.array(model.edges, dtype=np.int64).reshape(-1, 2)
    for ids, t in edge_chunks(model, phi):
        at_y = t[np.arange(len(ids)), y[ends[ids, 0]], y[ends[ids, 1]]]
        edge_gap[ids] = at_y - t.min(axis=(1, 2))
    return node_gap, edge_gap


def compute_dynamic_forest(model, phi, y):
    """Maximum-gap spanning trees, one per connected component.

    Edge weight = edge gap + both endpoint node gaps; ties by edge index.
    """
    node_gap, edge_gap = gap_scores(model, phi, y)
    weight = [edge_gap[e] + node_gap[u] + node_gap[v]
              for e, (u, v) in enumerate(model.edges)]
    return _spanning_forest(model, [(-weight[e], e)
                                    for e in range(model.n_edges)])

"""Constructing collections of blocks for the solvers to iterate over.

Four static families (maximal monotonic chains, a grid's rows and columns,
strictly-shortest-path chains, greedily re-weighted spanning trees) plus
gap-scored dynamic trees.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import Block, chain_blocks, minimum_forest
from .model import _edge_terms, check_labeling


@dataclass(frozen=True)
class BlockSchedule:
    origin: str              # mmc | ssp | static_trees | dynamic_trees | rows_columns
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))


def check_order(model, order):
    """``order`` as a list of ints, once it is a permutation of the node
    indices given as whole numbers of whatever type; None is input order."""
    n = model.n_nodes
    if order is None:
        return list(range(n))
    order = list(order)
    if sorted(order) != list(range(n)):
        raise ValueError("node order must be a permutation of the node "
                         "indices")
    return [int(u) for u in order]


def compute_mmc_cover(model, order=None):
    """Edge-disjoint maximal monotonic chains covering all edges.

    Greedily grows a chain from the smallest node (in ``order``) that still
    has an uncovered edge to a larger neighbor, always stepping to the
    smallest larger neighbor, until no extension exists; repeats until all
    edges are covered.
    """
    n = model.n_nodes
    order = check_order(model, order)
    pos = [0] * n
    for i, u in enumerate(order):
        pos[u] = i
    # Ad[u]: uncovered neighbors later than u in the order, smallest first.
    ad = [sorted((v for v in model.neighbors(u) if pos[v] > pos[u]),
                 key=lambda v: pos[v]) for u in range(n)]
    chains = []
    for start in order:
        while ad[start]:
            chain = [start]
            tail = start
            while ad[tail]:
                nxt = ad[tail].pop(0)
                chain.append(nxt)
                tail = nxt
            chains.append(chain)
    return BlockSchedule("mmc", chain_blocks(model, chains))


def rows_columns_cover(model):
    """Row and column chains of a grid model (requires grid_shape)."""
    if model.grid_shape is None:
        raise ValueError("model carries no grid shape")
    h, w = model.grid_shape
    rows = [range(r * w, (r + 1) * w) for r in range(h)] if w > 1 else []
    columns = [range(c, h * w, w) for c in range(w)] if h > 1 else []
    return BlockSchedule("rows_columns", chain_blocks(model, rows + columns))


def _bfs_live_paths(model, start, alive):
    """Level-synchronous BFS of the full graph from ``start``.

    Returns, per node: the full-graph distance (-1 when unreached); the
    number of those shortest paths whose edges are all ``alive`` (one flag
    per edge), capped at 2; and, where that count is positive, the edge of
    the last step of one such path (-1 elsewhere).  Each level gathers its
    frontier's CSR entries at once and sums the live path counts reaching
    each new node with one bincount.

    A node with exactly one live path has a predecessor with exactly one,
    so the BFS stops after the first level that holds no such node, or once
    it has reached every node.  Everything it returns is exact up to the
    last level it built; nodes beyond it read as unreached, and none of
    them has exactly one live path.
    """
    ptr, nbr, edge = model._inc_ptr, model._inc_nbr, model._inc_edge
    n = model.n_nodes
    live = alive[edge]                  # per CSR entry
    dist = np.full(n, -1, dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)
    via = np.full(n, -1, dtype=np.int64)
    dist[start] = 0
    count[start] = 1
    frontier, paths = np.array([start]), np.ones(1)  # and its path counts
    level = 0
    seen = 1
    while seen < n and 1.0 in paths.tolist():
        level += 1
        lens = model._degree[frontier]
        ends = lens.cumsum()
        entry = (ptr[frontier] - ends + lens).repeat(lens) + np.arange(ends[-1])
        reached = nbr[entry]
        new = (dist[reached] < 0).nonzero()[0]
        entry, reached = entry[new], reached[new]
        step = paths.repeat(lens)[new] * live[entry]
        dist[reached] = level
        frontier = (dist == level).nonzero()[0]
        seen += frontier.size
        paths = np.minimum(np.bincount(reached, weights=step)[frontier], 2)
        count[frontier] = paths
        step = step.nonzero()[0]
        via[reached[step]] = edge[entry[step]]
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
    left = model.n_edges
    ends_sum = model.ends.sum(axis=1).tolist()
    chains = []
    while left:
        start = int(rng.choice((degree > 0).nonzero()[0]))
        dist, count, via = _bfs_live_paths(model, start, alive)
        # The farthest strict end, lowest index on ties: only the start has
        # distance 0, and it has a strict neighbour.
        node = int((dist * (count == 1)).argmax())
        path = [node]
        while node != start:
            node = ends_sum[via[node]] - node   # the other end of via[node]
            path.append(node)
        path.reverse()
        at = np.array(path)
        alive[via[at[1:]]] = False
        degree[at[:-1]] -= 1
        degree[at[1:]] -= 1
        left -= len(path) - 1
        chains.append(path)
    return BlockSchedule("ssp", chain_blocks(model, chains))


def _forest(model, keys):
    """(tree blocks, edge ids) of the minimum spanning forest under the
    per-edge keys, ties by edge id.

    The trees come in order of their components' smallest nodes, and each
    lists its edges in the order of the keys, the order in which Kruskal's
    algorithm picks them; the edge ids are those of the trees in turn.
    """
    n = model.n_nodes
    order = np.argsort(keys, kind="stable")
    a, b = (x[order] for x in model.ends.T)
    picked, label = minimum_forest(n, a, b)
    low = np.full(n, n)
    np.minimum.at(low, label, np.arange(n))
    low = low[label]                # the smallest node of each component
    tree = low[a[picked]]
    ids = order[picked][np.argsort(tree, kind="stable")]
    nodes = np.flatnonzero(model._degree)
    nodes = nodes[np.argsort(low[nodes], kind="stable")].tolist()
    size = np.unique(tree, return_counts=True)[1]
    at = np.append(0, size.cumsum()).tolist()
    edges = model.ends[ids].tolist()
    return [Block("tree", nodes[i + k:j + k + 1], edges[i:j])
            for k, (i, j) in enumerate(zip(at, at[1:]))], ids


def compute_static_trees(model):
    """Spanning trees re-weighted by inclusion counts until all edges covered.

    On a disconnected graph each round yields one tree per component.
    """
    times_used = np.zeros(model.n_edges, dtype=np.int64)
    trees = []
    while model.n_edges and times_used.min() == 0:
        forest, ids = _forest(model, times_used)
        times_used[ids] += 1
        trees.extend(forest)
    return BlockSchedule("static_trees", trees)


def gap_scores(model, phi, y, evaluation):
    """Local primal-dual gaps: per-node and per-edge excess of y over the
    minima of theta^phi in ``evaluation``, ``model._evaluate`` of phi."""
    y = check_labeling(model, y)
    costs, at = evaluation.costs, model.label_offsets[:-1]
    node_gap = costs[at + y] - costs[at + evaluation.y]
    return node_gap, _edge_terms(model, y, phi) - evaluation.edge_min


def compute_dynamic_forest(model, phi, y, evaluation):
    """Maximum-gap spanning trees, one per connected component.

    Edge weight = edge gap + both endpoint node gaps; ties by edge index.
    """
    node_gap, edge_gap = gap_scores(model, phi, y, evaluation)
    a, b = model.ends.T
    keys = -(edge_gap + node_gap[a] + node_gap[b])
    return BlockSchedule("dynamic_trees", _forest(model, keys)[0])

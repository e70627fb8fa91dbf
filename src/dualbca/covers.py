"""Constructing collections of blocks for the solvers to iterate over.

Three static families (maximal monotonic chains, strictly-shortest-path
chains, greedily re-weighted spanning trees) plus gap-scored dynamic trees.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import chain_block, find, tree_block, union
from .model import edge_chunks, node_costs, node_minima


@dataclass(frozen=True)
class BlockSchedule:
    origin: str              # mmc | ssp | static_trees | dynamic_trees | rows_columns
    blocks: tuple
    coverage: frozenset = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        cov = frozenset(e for b in self.blocks for e in b.edges)
        object.__setattr__(self, "coverage", cov)


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


def _bfs_dist_count(indptr, indices, src, n, alive=None):
    """BFS distances from ``src`` (-1 when unreached) and shortest-path
    counts capped at 2 (only ==1 matters).

    Level-synchronous: each level gathers all CSR entries of its frontier at
    once and sums the path counts reaching each new node with one bincount.
    With ``alive`` (one flag per CSR entry) dead entries are skipped.
    """
    dist = np.full(n, -1, dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)
    dist[src] = 0
    count[src] = 1
    frontier = np.array([src], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        starts = indptr[frontier]
        lens = indptr[frontier + 1] - starts
        ends = np.cumsum(lens)
        entry = np.repeat(starts - ends + lens, lens) + np.arange(ends[-1])
        paths = np.repeat(count[frontier], lens)
        if alive is not None:
            keep = alive[entry]
            entry, paths = entry[keep], paths[keep]
        nbr = indices[entry]
        new = dist[nbr] < 0
        nbr, paths = nbr[new], paths[new]
        dist[nbr] = level
        frontier = np.flatnonzero(dist == level)
        count[frontier] = np.minimum(
            np.bincount(nbr, weights=paths)[frontier], 2)
    return dist, count


def _csr(n, src, dst):
    """Directed CSR adjacency from parallel endpoint arrays."""
    order = np.argsort(src, kind="stable")
    src = src[order]
    dst = dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, dst.astype(np.int64)


def compute_ssp_cover(model, seed=0):
    """Partition of the edges into strictly-shortest-path chains.

    Repeatedly picks a random start vertex with uncovered incident edges,
    finds the most distant vertex reached by a unique shortest path in the
    residual (uncovered) graph, extracts that path as a chain and removes
    its edges.  A chain additionally may not be longer than the start-to-end
    distance in the full graph: if a direct shorter connection exists the
    detour is not treated as a shortest path.  In complete graphs this
    reduces to single-edge blocks.
    """
    n = model.n_nodes
    if model.n_edges == 0:
        return BlockSchedule("ssp", [])
    rng = np.random.default_rng(seed)
    e_u = np.array([u for u, _ in model.edges], dtype=np.int64)
    e_v = np.array([v for _, v in model.edges], dtype=np.int64)
    edge_ids = np.arange(model.n_edges)
    # One CSR of the full graph; the residual graph is its entries whose
    # edge is still alive, in the same order.
    indptr, indices = _csr(n, np.concatenate([e_u, e_v]),
                           np.concatenate([e_v, e_u]))
    entry_edge = np.concatenate([edge_ids, edge_ids])[
        np.argsort(np.concatenate([e_u, e_v]), kind="stable")]

    alive = np.ones(model.n_edges, dtype=bool)
    degree = np.zeros(n, dtype=np.int64)
    np.add.at(degree, e_u, 1)
    np.add.at(degree, e_v, 1)
    chains = []
    full = {}               # start -> distances in the full graph (int32)
    while alive.any():
        live = alive[entry_edge]
        candidates = np.flatnonzero(degree > 0)
        start = int(rng.choice(candidates))
        dist, count = _bfs_dist_count(indptr, indices, start, n, live)
        if start not in full:
            full[start] = _bfs_dist_count(
                indptr, indices, start, n)[0].astype(np.int32)
        dist_full = full[start]
        strict = (dist >= 1) & (count == 1) & (dist == dist_full)
        ends = np.flatnonzero(strict)
        end = int(ends[np.argmax(dist[ends])])  # argmax returns lowest index on ties
        # Trace the unique shortest path back from the end.
        path = [end]
        node = end
        while node != start:
            for k in range(indptr[node], indptr[node + 1]):
                w = indices[k]
                if live[k] and dist[w] == dist[node] - 1 and count[w] == 1:
                    node = int(w)
                    break
            path.append(node)
        path.reverse()
        for a, b in zip(path, path[1:]):
            e = model.edge_id(a, b)
            alive[e] = False
            degree[a] -= 1
            degree[b] -= 1
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

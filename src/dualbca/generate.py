"""Synthetic instance generation across three connectivity regimes:
4-connected grids, grids with extra long-range edges, and complete graphs.
Deterministic per seed.
"""
from __future__ import annotations

import numpy as np

from .model import GraphicalModel

REGIMES = ("sparse_grid", "denser", "complete")


def _grid_edges(height, width):
    """Edges of the 4-connected grid as an (m, 2) array: node by node in
    row-major order, the edge to the right neighbour before the one below."""
    u = np.arange(height * width)
    ends = np.stack((np.stack((u, u + 1), axis=1),
                     np.stack((u, u + width), axis=1)), axis=1)
    return ends[np.stack((u % width + 1 < width, u + width < u.size), axis=1)]


def _truncated_linear(rng, n_edges, labels):
    """Truncated-linear tables lam * min(|s - t|, max(1, labels // 2)), with
    one weight lam ~ U(0.5, 2) per edge, drawn in edge order."""
    lam = rng.uniform(0.5, 2.0, n_edges)
    s = np.arange(labels)
    steps = np.minimum(np.abs(s[:, None] - s), max(1, labels // 2))
    return lam[:, None, None] * steps.astype(float)


def generate_instance(regime, *, height=4, width=4, n_nodes=None, labels=3,
                      connectivity=0.3, seed=0):
    """Random instance of the requested connectivity regime.

    sparse_grid: height x width 4-connected grid, random unaries and
        truncated-linear pairwise costs.
    denser: the same grid plus random long-range truncated-linear edges up
        to ``connectivity`` (fraction of all node pairs).
    complete: K_n (``n_nodes`` nodes) with uniform random tables.

    Tables are drawn in bulk, unaries node by node, then pairwise tables
    edge by edge.  Sizes below 1, and a connectivity outside [0, 1], are
    rejected.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    sizes = dict(height=height, width=width)
    if regime == "complete" and n_nodes is not None:
        sizes = dict(n_nodes=n_nodes)
    for name, value in {**sizes, "labels": labels}.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if not 0.0 <= connectivity <= 1.0:
        raise ValueError(f"connectivity must be in [0, 1], got {connectivity} "
                         "(above 1 its edge target exceeds the complete graph)")
    rng = np.random.default_rng(seed)
    if regime == "complete":
        n = int(n_nodes if n_nodes is not None else height * width)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        unary = rng.uniform(0.0, 5.0, (n, labels))
        pairwise = rng.uniform(0.0, 1.0, (len(edges), labels, labels))
        return GraphicalModel([labels] * n, edges, unary, pairwise)

    n = height * width
    edges = _grid_edges(height, width)
    grid_shape = (height, width)
    if regime == "denser":
        target = round(connectivity * n * (n - 1) / 2)
        # Every node pair that is not a grid edge, in lexicographic order.
        u, v = np.triu_indices(n, 1)
        free = ((v != u + 1) | (v % width == 0)) & (v != u + width)
        u, v = u[free], v[free]
        extra = max(0, target - len(edges))
        picked = np.sort(rng.choice(len(u), size=extra, replace=False))
        edges = np.concatenate((edges, np.stack((u[picked], v[picked]),
                                                axis=1)))
        grid_shape = None          # long-range edges break the grid structure
    unary = rng.uniform(0.0, 5.0, (n, labels))
    pairwise = _truncated_linear(rng, len(edges), labels)
    return GraphicalModel([labels] * n, edges, unary, pairwise,
                          grid_shape=grid_shape)


def random_model(rng, n_nodes=5, max_labels=3, edge_prob=0.6, scale=1.0):
    """Small random model for property tests: random graph, uniform tables."""
    labels = [int(rng.integers(1, max_labels + 1)) for _ in range(n_nodes)]
    edges = [(u, v) for u in range(n_nodes) for v in range(u + 1, n_nodes)
             if rng.random() < edge_prob]
    unary = [rng.uniform(0.0, scale, labels[u]) for u in range(n_nodes)]
    pairwise = [rng.uniform(0.0, scale, (labels[u], labels[v]))
                for (u, v) in edges]
    return GraphicalModel(labels, edges, unary, pairwise)


def random_tree_model(rng, n_nodes=6, labels=3, scale=1.0):
    """Random tree-structured model (random Prufer-style attachment)."""
    edges = [(int(rng.integers(0, u)), u) for u in range(1, n_nodes)]
    lab = [labels] * n_nodes
    unary = [rng.uniform(0.0, scale, labels) for _ in range(n_nodes)]
    pairwise = [rng.uniform(0.0, scale, (labels, labels)) for _ in edges]
    return GraphicalModel(lab, edges, unary, pairwise)


def random_phi(rng, model, scale=1.0):
    """Random reparametrization (not necessarily feasible).

    One uniform draw, in edge order: per edge (u, v) the values of
    phi_{u,v}, then those of phi_{v,u}.
    """
    from .model import Reparametrization
    phi = Reparametrization(model)
    entry = model.lookup(*model.ends.T)[0]
    start = np.stack((model._inc_phi[entry], model._inc_back[entry]), axis=1)
    size = np.array(model.labels)[model.ends].ravel()
    ends = size.cumsum()
    at = (start.ravel() - ends + size).repeat(size) + np.arange(size.sum())
    phi.values[at] = rng.uniform(-scale, scale, at.size)
    return phi

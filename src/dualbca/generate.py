"""Synthetic instance generation across three connectivity regimes:
4-connected grids, grids with extra long-range edges, and complete graphs.
Deterministic per seed.
"""
from __future__ import annotations

import numpy as np

from .model import GraphicalModel

REGIMES = ("sparse_grid", "denser", "complete")


def _grid_edges(height, width):
    edges = []
    for r in range(height):
        for c in range(width):
            u = r * width + c
            if c + 1 < width:
                edges.append((u, u + 1))
            if r + 1 < height:
                edges.append((u, u + width))
    return edges


def _truncated_linear(rng, k_u, k_v):
    lam = rng.uniform(0.5, 2.0)
    trunc = max(1, max(k_u, k_v) // 2)
    s = np.arange(k_u)[:, None]
    t = np.arange(k_v)[None, :]
    return lam * np.minimum(np.abs(s - t), trunc).astype(float)


def generate_instance(regime, *, height=4, width=4, n_nodes=None, labels=3,
                      connectivity=0.3, seed=0):
    """Random instance of the requested connectivity regime.

    sparse_grid: height x width 4-connected grid, random unaries and
        truncated-linear pairwise costs.
    denser: the same grid plus random long-range truncated-linear edges up
        to ``connectivity`` (fraction of all node pairs).
    complete: K_n (``n_nodes`` nodes) with uniform random tables.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    rng = np.random.default_rng(seed)
    if regime == "complete":
        n = int(n_nodes if n_nodes is not None else height * width)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        lab = [labels] * n
        unary = [rng.uniform(0.0, 5.0, labels) for _ in range(n)]
        pairwise = rng.uniform(0.0, 1.0, (len(edges), labels, labels))
        return GraphicalModel(lab, edges, unary, pairwise)

    n = height * width
    edges = _grid_edges(height, width)
    grid_shape = (height, width)
    if regime == "denser":
        target = round(connectivity * n * (n - 1) / 2)
        existing = set(edges)
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if (u, v) not in existing]
        extra = max(0, target - len(edges))
        if extra > len(all_pairs):
            raise ValueError("connectivity target exceeds the complete graph")
        picked = rng.choice(len(all_pairs), size=extra, replace=False)
        edges = edges + [all_pairs[i] for i in sorted(picked)]
        grid_shape = None          # long-range edges break the grid structure
    lab = [labels] * n
    unary = [rng.uniform(0.0, 5.0, labels) for _ in range(n)]
    pairwise = np.empty((len(edges), labels, labels))
    for table in pairwise:
        table[...] = _truncated_linear(rng, labels, labels)
    return GraphicalModel(lab, edges, unary, pairwise, grid_shape=grid_shape)


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
    """Random reparametrization (not necessarily feasible)."""
    from .model import Reparametrization
    phi = Reparametrization(model)
    for (u, v) in model.edges:
        phi[u, v] += rng.uniform(-scale, scale, model.labels[u])
        phi[v, u] += rng.uniform(-scale, scale, model.labels[v])
    return phi

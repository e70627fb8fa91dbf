"""Independent ground truth: exhaustive minimization, Viterbi on chains,
minorant certification.

Everything here is deliberately written against the definitions, not against
the solver code paths it is used to check.
"""
from __future__ import annotations

import numpy as np

ENUMERATION_GUARD = 10_000_000


class StateSpaceTooLarge(ValueError):
    pass


class MinorantHypothesisError(ValueError):
    """The block is not in a state where the minorant check applies."""


def unary_costs(model, phi, u):
    """theta^phi_u = theta_u - sum over neighbours v of phi_{u,v}."""
    out = model.unary[u].copy()
    if phi is not None:
        for v in model.neighbors(u):
            out -= phi[u, v]
    return out


def pairwise_costs(model, phi, u, v):
    """theta^phi_uv(s, t) = theta_uv(s, t) + phi_{u,v}(s) + phi_{v,u}(t).

    Summed for the edge's canonical endpoints (a, b) as (theta_ab +
    phi_{a,b}) + phi_{b,a}, so that (v, u) is the transpose of (u, v) bit
    for bit."""
    e = model.incidence(u, v)[0]
    a, b = model.edges[e]
    out = model.pairwise[e].copy()
    if phi is not None:
        out += phi[a, b][:, None]
        out += phi[b, a][None, :]
    return out if a == u else out.T.copy()


def energy_table(model, phi=None, nodes=None, edges=None):
    """Dense tensor of energies over all labelings of ``nodes``.

    Restricting ``nodes``/``edges`` evaluates the energy of a subgraph.
    Axis i of the result enumerates the labels of nodes[i]; C-order
    flattening therefore lists labelings lexicographically.
    """
    nodes = list(range(model.n_nodes)) if nodes is None else list(nodes)
    edges = model.edges if edges is None else edges
    shape = tuple(model.labels[u] for u in nodes)
    if float(np.prod([float(s) for s in shape])) > ENUMERATION_GUARD:
        raise StateSpaceTooLarge(f"{shape} exceeds the enumeration guard")
    axis = {u: i for i, u in enumerate(nodes)}
    for (u, v) in edges:
        if u not in axis or v not in axis:
            raise ValueError(f"edge ({u},{v}) leaves the node set")
    return _add_pairwise(model, phi, nodes, edges, axis, shape)


def _add_pairwise(model, phi, nodes, edges, axis, shape):
    table = np.zeros(shape)
    for u in nodes:
        view = [None] * len(nodes)
        view[axis[u]] = slice(None)
        table = table + unary_costs(model, phi, u)[tuple(view)]
    for (u, v) in edges:
        t = pairwise_costs(model, phi, u, v)
        view = [None] * len(nodes)
        view[axis[u]] = slice(None)
        view[axis[v]] = slice(None)
        if axis[u] > axis[v]:
            t = t.T
        table = table + t[tuple(view)]
    return table


def brute_force_min(model, phi=None, nodes=None, edges=None):
    """Exact minimum energy and its lexicographically smallest argmin."""
    nodes = list(range(model.n_nodes)) if nodes is None else list(nodes)
    table = energy_table(model, phi, nodes, edges)
    flat = int(np.argmin(table))
    y = np.unravel_index(flat, table.shape)
    return float(table.min()), np.array(y, dtype=np.int64)


def chain_min(model, nodes, phi=None):
    """Viterbi minimum of the energy restricted to a chain of nodes."""
    nodes = list(nodes)
    best = unary_costs(model, phi, nodes[0]).copy()
    for a, b in zip(nodes, nodes[1:]):
        t = pairwise_costs(model, phi, a, b)
        best = (best[:, None] + t).min(axis=0) + unary_costs(model, phi, b)
    return float(best.min())


def check_minorant(model, block, phi, tol=1e-9):
    """Certify that the node costs form a tight modular lower bound on the block.

    Requires the block to be a tree whose edge minima sum to zero (the state
    every block-optimal update leaves behind); raises
    :class:`MinorantHypothesisError` otherwise.  Verifies by enumeration that
    g(y) = sum_u theta^phi_u(y_u) never exceeds the block energy and shares
    its minimum.
    """
    if block.kind not in ("edge", "chain", "tree"):
        raise ValueError("unknown block kind")
    if len(block.edges) != len(block.nodes) - 1:
        raise ValueError("minorant checks apply to tree blocks only")
    edge_min_sum = sum(pairwise_costs(model, phi, u, v).min()
                       for (u, v) in block.edges)
    if abs(edge_min_sum) > tol:
        raise MinorantHypothesisError(
            f"block edge minima sum to {edge_min_sum}, not 0")
    nodes = list(block.nodes)
    axis = {u: i for i, u in enumerate(nodes)}
    shape = tuple(model.labels[u] for u in nodes)
    full = _add_pairwise(model, phi, nodes, block.edges, axis, shape)
    g = _add_pairwise(model, phi, nodes, (), axis, shape)
    if np.any(g > full + tol):
        return False
    return abs(g.min() - full.min()) <= tol


def check_maximal_minorant(model, block, phi, tol=1e-9):
    """True iff every block edge has zero row and column minima (within tol)."""
    for (u, v) in block.edges:
        t = pairwise_costs(model, phi, u, v)
        if np.abs(t.min(axis=0)).max() > tol or np.abs(t.min(axis=1)).max() > tol:
            return False
    return True

"""Elementary reparametrization updates.

Every update mutates phi in place and, from a feasible point, keeps all
reparametrized costs non-negative and the dual value non-decreasing.

A *message* is one computation of min_s(theta^phi_uv(s, t)) for all t over
one directed edge, the unit all solver cost accounting is expressed in.
Pass a :class:`MessageCounter` to have updates charge messages to it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import pairwise_costs, unary_costs


class MessageCounter:
    """Per-run accumulator of directed min-marginal computations."""

    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def add(self, k=1):
        self.total += k


@dataclass(frozen=True)
class WeightScheme:
    """Distribution weights for node-adjacent updates.

    kind: one of "msd", "cmp", "dp", "trws".  The anisotropic kinds ("dp",
    "trws") additionally need a total node order (a permutation of node
    indices); "later than u" is judged by position in that order.
    """

    kind: str
    order: tuple = None

    def __post_init__(self):
        if self.kind not in ("msd", "cmp", "dp", "trws"):
            raise ValueError(f"unknown weight scheme {self.kind!r}")
        if self.order is not None:
            object.__setattr__(self, "order", tuple(self.order))

    def positions(self, n_nodes):
        if self.order is None:
            raise ValueError(f"{self.kind} weights need a node order")
        if sorted(self.order) != list(range(n_nodes)):
            raise ValueError("order must be a permutation of the node indices")
        pos = [0] * n_nodes
        for i, u in enumerate(self.order):
            pos[u] = i
        return pos


def weights_for(scheme: WeightScheme, model, u):
    """Per-neighbor distribution weights w_{u,v} for node u."""
    nb = model.neighbors(u)
    if scheme.kind == "msd":
        return dict.fromkeys(nb, 1.0 / max(len(nb), 1))
    if scheme.kind == "cmp":
        return dict.fromkeys(nb, 1.0 / (len(nb) + 1))
    pos = scheme.positions(model.n_nodes)
    later = [v for v in nb if pos[v] > pos[u]]
    if scheme.kind == "dp":
        return {v: (1.0 if pos[v] > pos[u] else 0.0) for v in nb}
    n_in = len(nb) - len(later)
    n_out = len(later)
    denom = max(n_in, n_out)
    return {v: (1.0 / denom if pos[v] > pos[u] and denom else 0.0) for v in nb}


def star_costs(phi, rows, part):
    """theta^phi of a star part's edges, oriented (m, Y_u, Y_v).

    ``rows`` is the centre node's phi block (see ``Reparametrization.rows``).
    Evaluated in canonical orientation with the operand order of
    :func:`pairwise_costs`, so each table equals it bit for bit.
    """
    mine, theirs = rows[part.rows], phi.values[part.back]
    if part.first:
        t = part.block[part.pos] + mine[:, :, None]
        t += theirs[:, None, :]
        return t
    t = part.block[part.pos] + theirs[:, :, None]
    t += mine[:, None, :]
    return t.transpose(0, 2, 1)


def message(model, phi, u, v, counter=None):
    """Directed min-marginal u -> v: min over Y_u of theta^phi_uv per label of v."""
    if counter is not None:
        counter.add()
    return pairwise_costs(model, phi, u, v).min(axis=0)


def push_min_into(model, phi, u, v, counter=None):
    """Subtract the u->v min-marginal from phi_{v,u}, moving it into node v."""
    p_vu = phi[v, u]
    p_vu -= message(model, phi, u, v, counter)


def node_aggregate(model, phi, u, counter=None):
    """Pull each incident edge's row minima into node u (one message per edge).

    Afterwards min_l theta^phi_uv(s, l) = 0 for every neighbor v and label s,
    which is the block optimum of the node-adjacent block of u.  The star is
    updated in one batch: each message v -> u reads and writes only
    phi_{u,v}, so the messages do not interact.
    """
    rows = phi.rows(u)
    for part in model.star(u):
        rows[part.rows] -= star_costs(phi, rows, part).min(axis=2)
    if counter is not None:
        counter.add(len(rows))


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
    rows = phi.rows(u)
    rows[k] += w[:, None] * excess


def mplp_update(model, phi, u, v, counter=None):
    """Edge block update of MPLP (aggregate, then two half-min pushes).

    The second push uses the edge costs as updated by the first one; this
    ordering attains the exact 2-node block optimum.
    """
    model.edge_id(u, v)
    p_uv, p_vu = phi[u, v], phi[v, u]
    p_uv += unary_costs(model, phi, u)
    p_vu += unary_costs(model, phi, v)
    p_uv -= 0.5 * pairwise_costs(model, phi, u, v).min(axis=1)
    p_vu -= 0.5 * pairwise_costs(model, phi, u, v).min(axis=0)
    if counter is not None:
        counter.add(2)


def handshake_update(model, phi, u, v, counter=None):
    """Edge block update of MPLP++ / the hierarchical minorant.

    Aggregates both nodes into the edge, half-pushes toward u, then pushes
    all remaining row and column excess out to the nodes.  The result does
    not depend on the incoming phi_{v,u} and satisfies the maximal-minorant
    conditions (zero row and column minima) on the edge.
    """
    model.edge_id(u, v)
    p_uv, p_vu = phi[u, v], phi[v, u]
    p_uv += unary_costs(model, phi, u)
    p_vu += unary_costs(model, phi, v)
    p_uv -= 0.5 * pairwise_costs(model, phi, u, v).min(axis=1)
    p_vu -= pairwise_costs(model, phi, u, v).min(axis=0)
    p_uv -= pairwise_costs(model, phi, u, v).min(axis=1)
    if counter is not None:
        counter.add(3)


def dp_update(model, phi, u, v, counter=None):
    """Dynamic-programming push over the directed edge u -> v.

    Empties theta^phi_u into the edge, then moves the edge's min-marginal
    into v.  One message.
    """
    model.edge_id(u, v)
    p_uv = phi[u, v]
    p_uv += unary_costs(model, phi, u)
    push_min_into(model, phi, u, v, counter)


def rdp_update(model, phi, u, v, r, counter=None):
    """Redistribution DP over u -> v: push fraction r of theta^phi_u forward.

    r=1 is exactly :func:`dp_update`; r=0 only moves the edge min-marginal.
    """
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r={r} outside [0, 1]")
    model.edge_id(u, v)
    if r != 0.0:
        p_uv = phi[u, v]
        p_uv += r * unary_costs(model, phi, u)
    push_min_into(model, phi, u, v, counter)

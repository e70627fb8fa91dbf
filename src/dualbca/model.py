"""Pairwise discrete energy model, reparametrizations and the constrained dual.

The energy of a labeling y is the sum of unary costs theta_u(y_u) and
pairwise costs theta_uv(y_u, y_v).  A reparametrization phi assigns one real
vector per directed edge incidence (u,v); it shifts costs between nodes and
edges without changing any labeling's energy.  All solver state lives in phi:
reparametrized costs are always computed on the fly from (theta, phi).

Layout.  The model fixes where everything lives, once:

* the unary tables are views into one flat buffer, node after node;
* the pairwise tables are views into one ``(m, L_a, L_b)`` block per shape;
* phi is one flat buffer in which node u owns deg(u)*L_u values, one row of
  L_u per neighbour in ``adjacency[u]`` order (a directed-incidence CSR,
  whose neighbours, edges and phi starts are also kept as flat arrays).

Whole-model evaluation works on these buffers with numpy reductions, and the
programs of :mod:`dualbca.updates` gather and scatter them in batches.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Absolute tolerance shared by all zero / feasibility tests in the package.
FEAS_TOL = 1e-9

# Finite stand-in for forbidden assignments.  Never use true infinity: it
# poisons the min/sum arithmetic of message passing.
COST_CAP = 1e12

# Whole-model evaluation visits the pairwise tables this many edges at a
# time, which bounds its temporaries to a few tables' worth of memory.
_EDGE_CHUNK = 256


class _ShapeGroup(NamedTuple):
    block: np.ndarray       # (m, L_a, L_b) pairwise tables
    edges: np.ndarray       # edge ids, ascending
    a: np.ndarray           # canonical endpoints of the edges
    b: np.ndarray
    off_ab: np.ndarray      # start of phi_{a,b} in the phi buffer
    off_ba: np.ndarray      # start of phi_{b,a}


class GraphicalModel:
    """Immutable graph with unary and pairwise cost tables.

    Nodes are ``0..n-1``; node ``u`` has ``labels[u]`` labels.  Edges are
    unordered pairs stored canonically as ``(u, v)`` with ``u < v``.  All
    costs must be finite and non-negative (shift your input if needed; the
    non-negativity is what keeps the constrained dual well defined).

    ``pairwise`` is a sequence of tables in edge order; an ``(|E|, L, L')``
    array of same-shaped tables becomes the model's table block as it is.
    """

    def __init__(self, labels, edges, unary, pairwise, grid_shape=None):
        self.labels = tuple(int(k) for k in labels)
        self.n_nodes = n = len(self.labels)
        if any(k <= 0 for k in self.labels):
            raise ValueError("every node needs at least one label")

        canon = []
        for (u, v) in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has an endpoint out of range")
            canon.append((u, v) if u < v else (v, u))
        if len(set(canon)) != len(canon):
            raise ValueError("duplicate edge")
        self.edges = tuple(canon)
        self.n_edges = len(self.edges)

        if len(unary) != n or len(pairwise) != self.n_edges:
            raise ValueError("cost table count does not match nodes/edges")
        unary = [np.asarray(t, dtype=np.float64) for t in unary]
        if not isinstance(pairwise, np.ndarray):
            pairwise = [np.asarray(t, dtype=np.float64) for t in pairwise]
        for u, t in enumerate(unary):
            if t.shape != (self.labels[u],):
                raise ValueError(f"unary table of node {u} has shape {t.shape}")
        for e, (u, v) in enumerate(self.edges):
            if pairwise[e].shape != (self.labels[u], self.labels[v]):
                raise ValueError(f"pairwise table of edge ({u},{v}) has shape "
                                 f"{pairwise[e].shape}")

        lab = np.array(self.labels, dtype=np.int64)
        self.label_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lab, out=self.label_offsets[1:])
        flat = np.concatenate(unary) if unary else np.zeros(0)
        self._unary_flat = flat
        self.unary = tuple(np.split(flat, self.label_offsets[1:-1])) if n else ()

        shapes = {}
        for e, (u, v) in enumerate(self.edges):
            shapes.setdefault((self.labels[u], self.labels[v]), []).append(e)
        if isinstance(pairwise, np.ndarray) and len(shapes) == 1:
            # Same-shaped tables given as one (|E|, L_a, L_b) array are
            # used as the block, without a copy.
            blocks = [(np.ascontiguousarray(pairwise, dtype=np.float64),
                       range(self.n_edges))]
        else:
            blocks = [(np.stack([pairwise[e] for e in ids]), ids)
                      for ids in shapes.values()]
        placed = [None] * self.n_edges       # edge -> (block, position)
        for block, ids in blocks:
            for i, e in enumerate(ids):
                placed[e] = (block, i)
        self.pairwise = tuple(block[i] for block, i in placed)
        for t in (flat, *(block for block, _ in blocks)):
            if not np.all(np.isfinite(t)):
                raise ValueError("costs must be finite (use COST_CAP for forbidden pairs)")
            if np.any(t < 0):
                raise ValueError("costs must be non-negative (pre-shift your input)")

        # Directed incidences in CSR order: node by node, neighbours
        # ascending.  Incidence i of edge e is (a, b) for i = e, (b, a) for
        # i = e + |E|; ``at[i]`` is its CSR entry.
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        src = np.concatenate((ends[:, 0], ends[:, 1]))
        dst = np.concatenate((ends[:, 1], ends[:, 0]))
        csr = np.lexsort((dst, src))
        at = np.empty_like(csr)
        at[csr] = np.arange(csr.size)
        deg = np.bincount(src, minlength=n)
        src = src[csr]
        self._inc_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=self._inc_ptr[1:])
        self._inc_nbr = dst[csr]
        self._inc_edge = csr % max(self.n_edges, 1)
        nbr = self._inc_nbr.tolist()
        ptr = self._inc_ptr.tolist()
        self.adjacency = tuple(tuple(nbr[ptr[u]:ptr[u + 1]]) for u in range(n))

        # phi layout: node u owns deg(u) rows of L_u values.
        phi_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg * lab, out=phi_off[1:])
        self.phi_size = int(phi_off[-1])
        self._phi_off = phi_off.tolist()
        self._phi_start = phi_off[:-1]
        self._degree = deg
        # Start of phi_{u,v}, then of phi_{v,u}, per CSR entry (u, v).
        self._inc_phi = phi_off[src] + (np.arange(src.size)
                                        - self._inc_ptr[src]) * lab[src]
        self._inc_back = self._inc_phi[at[(csr + self.n_edges) % max(src.size, 1)]]
        # (u, v) -> (edge id, start of phi_{u,v}, start of phi_{v,u}).
        self._incidence = dict(zip(
            zip(src.tolist(), nbr),
            zip(self._inc_edge.tolist(), self._inc_phi.tolist(),
                self._inc_back.tolist())))

        # Label slot (index into the flat unary buffer) of every unary
        # value and then of every phi value, so that one bincount over
        # (theta, -phi) computes all of theta^phi.
        self._cost_slot = np.empty(flat.size + self.phi_size, dtype=np.int64)
        self._cost_slot[:flat.size] = np.arange(flat.size)
        slot = self._cost_slot[flat.size:]
        owner = np.repeat(np.arange(n), deg * lab)
        slot[:] = np.arange(self.phi_size)
        slot -= phi_off[owner]
        slot %= lab[owner]
        slot += self.label_offsets[owner]

        self._label_groups = []
        for k in sorted(set(self.labels)):
            nodes = np.flatnonzero(lab == k)
            self._label_groups.append(
                (nodes, self.label_offsets[nodes][:, None] + np.arange(k)))

        self._shape_groups = []
        # Edge -> (index of its shape group, position in the block).
        self._edge_block = np.empty(self.n_edges, dtype=np.int64)
        self._edge_pos = np.empty(self.n_edges, dtype=np.int64)
        for g, (block, ids) in enumerate(blocks):
            ids = np.array(ids, dtype=np.int64)
            a, b = ends[ids, 0], ends[ids, 1]
            off_ab = self._inc_phi[at[ids]]
            off_ba = self._inc_back[at[ids]]
            self._edge_block[ids] = g
            self._edge_pos[ids] = np.arange(len(ids))
            self._shape_groups.append(_ShapeGroup(block, ids, a, b, off_ab,
                                                  off_ba))

        # Optional (height, width) hint set by the grid generators; lets
        # solvers pick row/column chain covers.
        self.grid_shape = tuple(grid_shape) if grid_shape is not None else None

    def neighbors(self, u):
        return self.adjacency[u]

    def has_edge(self, u, v):
        return (u, v) in self._incidence

    def incidence(self, u, v):
        """(edge id, start of phi_{u,v}, start of phi_{v,u}) in the phi buffer."""
        try:
            return self._incidence[u, v]
        except KeyError:
            raise ValueError(f"({u},{v}) is not an edge of the model") from None

    def edge_id(self, u, v):
        return self.incidence(u, v)[0]

    def pairwise_table(self, u, v):
        """Pairwise cost table oriented as (labels of u, labels of v)."""
        e = self.edge_id(u, v)
        t = self.pairwise[e]
        return t if u < v else t.T


class Reparametrization:
    """Dual vector phi: one value per (directed incidence, label) pair.

    ``phi[u, v]`` is a writable view of the vector ``phi_{u,v}`` over the
    labels of ``u``, defined for every edge ``uv`` of the model.  All values
    live in the flat buffer ``values`` laid out by the model; a
    reparametrization is owned by exactly one solver run at a time.

    ``buffer`` holds a copy of the model's unary buffer, then ``values``,
    then one zero, so that :class:`dualbca.updates.Program` gathers theta,
    phi and the zero it pads short rows with by one index.
    """

    __slots__ = ("model", "buffer", "values")

    def __init__(self, model: GraphicalModel):
        self.model = model
        self.buffer = np.concatenate((model._unary_flat,
                                      np.zeros(model.phi_size + 1)))
        self.values = self.buffer[model._unary_flat.size:-1]

    def __getitem__(self, uv):
        _, start, _ = self.model._incidence[uv]
        return self.values[start:start + self.model.labels[uv[0]]]

    def __setitem__(self, uv, value):
        self[uv][...] = value

    def rows(self, u):
        """View of node u's phi rows, shape (deg(u), L_u), in adjacency order."""
        off = self.model._phi_off
        return self.values[off[u]:off[u + 1]].reshape(-1, self.model.labels[u])

    def copy(self):
        out = Reparametrization.__new__(Reparametrization)
        out.model = self.model
        out.buffer = self.buffer.copy()
        out.values = out.buffer[self.model._unary_flat.size:-1]
        return out

    def is_zero(self):
        return not self.values.any()


def unary_costs(model, phi, u):
    """Reparametrized unary vector theta^phi_u = theta_u - sum_v phi_{u,v}.

    One reduction over theta_u stacked on u's phi rows: the neighbours are
    subtracted one at a time in adjacency order, the same rounding as
    :func:`node_costs`.
    """
    if phi is None:
        return model.unary[u].copy()
    return np.subtract.reduce(
        np.concatenate((model.unary[u][None], phi.rows(u))), axis=0)


def pairwise_costs(model, phi, u, v):
    """Reparametrized pairwise table theta^phi_uv oriented as (Y_u, Y_v).

    Always evaluated in canonical edge orientation, as
    (theta_ab + phi_{a,b}) + phi_{b,a}, so the two query directions are
    transposes of each other bit-exactly.
    """
    e, o_uv, o_vu = model.incidence(u, v)
    t = model.pairwise[e]
    if phi is None:
        return t.copy() if u < v else t.T.copy()
    p_uv = phi.values[o_uv:o_uv + model.labels[u]]
    p_vu = phi.values[o_vu:o_vu + model.labels[v]]
    if u < v:
        out = t + p_uv[:, None]
        out += p_vu
        return out
    out = t + p_vu[:, None]
    out += p_uv
    return out.T


def check_labeling(model, y):
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (model.n_nodes,):
        raise ValueError("labeling must assign one label per node")
    bad = np.flatnonzero((y < 0) | (y >= np.diff(model.label_offsets)))
    if bad.size:
        u = int(bad[0])
        raise ValueError(f"label {y[u]} out of range for node {u}")
    return y


def node_costs(model, phi):
    """theta^phi of every node, concatenated in node order.

    Entry ``label_offsets[u] + s`` is theta^phi_u(s).  bincount adds its
    weights in input order, so each entry is theta_u(s) minus the incident
    phi one at a time in adjacency order, bit for bit as in
    :func:`unary_costs`.  With ``phi=None`` this is the model's own unary
    buffer: read it, do not write it.
    """
    if phi is None:
        return model._unary_flat
    return np.bincount(model._cost_slot,
                       weights=np.concatenate((model._unary_flat, -phi.values)),
                       minlength=model._unary_flat.size)


def node_minima(model, costs):
    """Per-node minima of a :func:`node_costs` vector."""
    if model.n_nodes == 0:
        return np.zeros(0)
    return np.minimum.reduceat(costs, model.label_offsets[:-1])


def edge_chunks(model, phi):
    """Yield (edge ids, theta^phi tables) in canonical orientation.

    Tables come as ``(m, L_a, L_b)`` stacks of at most ``_EDGE_CHUNK`` edges
    of one shape.  With ``phi=None`` they are views of the model's tables:
    read them, do not write them.
    """
    vals = None if phi is None else phi.values
    for g in model._shape_groups:
        k_a, k_b = g.block.shape[1:]
        for s in range(0, len(g.edges), _EDGE_CHUNK):
            c = slice(s, s + _EDGE_CHUNK)
            t = g.block[c]
            if vals is not None:
                t = t + vals[g.off_ab[c, None] + np.arange(k_a)][:, :, None]
                t += vals[g.off_ba[c, None] + np.arange(k_b)][:, None, :]
            yield g.edges[c], t


def _sum_in_order(*terms):
    """Left-to-right float sum: the rounding of a Python loop over the terms."""
    values = np.concatenate(terms)
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def energy(model, y, phi=None):
    """Energy of labeling ``y`` under theta (phi=None) or theta^phi.

    The two agree for every y: the phi contributions telescope out.  Node
    terms are added in node order, then edge terms in edge order.
    """
    y = check_labeling(model, y)
    node_terms = node_costs(model, phi)[model.label_offsets[:-1] + y]
    edge_terms = np.zeros(model.n_edges)
    for g in model._shape_groups:
        y_a, y_b = y[g.a], y[g.b]
        vals = g.block[np.arange(len(g.edges)), y_a, y_b]
        if phi is not None:
            vals = vals + phi.values[g.off_ab + y_a]
            vals += phi.values[g.off_ba + y_b]
        edge_terms[g.edges] = vals
    return _sum_in_order(node_terms, edge_terms)


def dual_value(model, phi):
    """Lower bound D(phi): sum of node-wise and edge-wise minima of theta^phi.

    Minima are added in node order, then in edge order.
    """
    return _dual(model, phi, node_costs(model, phi))


def _dual(model, phi, costs):
    edge_min = np.zeros(model.n_edges)
    for ids, t in edge_chunks(model, phi):
        edge_min[ids] = t.min(axis=(1, 2))
    return _sum_in_order(node_minima(model, costs), edge_min)


def check_feasible(model, phi, tol=FEAS_TOL):
    """True iff every reparametrized cost is >= -tol (constrained dual)."""
    if tol < 0:
        raise ValueError("tol must be non-negative")
    costs = node_costs(model, phi)
    if costs.size and costs.min() < -tol:
        return False
    return all(t.min() >= -tol for _, t in edge_chunks(model, phi))


def primal_round(model, phi):
    """Independent per-node rounding: y_u = argmin theta^phi_u, lowest index wins."""
    return _round(model, node_costs(model, phi))


def _dual_and_rounding(model, phi):
    """(:func:`dual_value`, :func:`primal_round`) from one evaluation of
    theta^phi."""
    costs = node_costs(model, phi)
    return _dual(model, phi, costs), _round(model, costs)


def _round(model, costs):
    y = np.zeros(model.n_nodes, dtype=np.int64)
    for nodes, slots in model._label_groups:
        y[nodes] = costs[slots].argmin(axis=1)
    return y

"""Pairwise discrete energy model, reparametrizations and the constrained dual.

The energy of a labeling y is the sum of unary costs theta_u(y_u) and
pairwise costs theta_uv(y_u, y_v).  A reparametrization phi assigns one real
vector per directed edge incidence (u,v); it shifts costs between nodes and
edges without changing any labeling's energy.  All solver state lives in phi.
Evaluation computes reparametrized costs from (theta, phi); the programs of
:mod:`dualbca.updates` keep each node's theta^phi next to phi, written when
a program starts to run (from a record's evaluation of phi, or derived from
(theta, phi)) and updated by its operations.

Layout.  The model fixes where everything lives, once:

* the unary tables are views into one flat buffer, node after node;
* the pairwise tables are views into one ``(m, L_a, L_b)`` block per shape;
* phi is one flat buffer in which node u owns deg(u)*L_u values, one row of
  L_u per neighbour in ascending order (a directed-incidence CSR, whose
  neighbours, edges and phi starts are also kept as flat arrays).

The model is built from whole arrays.  :meth:`GraphicalModel.lookup` finds
the CSR entries of an array of pairs (u, v) by one binary search of the
sorted keys u*n + v; the scalar accessors are calls to it.

Whole-model evaluation works on these buffers with numpy reductions, and the
programs of :mod:`dualbca.updates` gather and scatter them in batches.
"""
from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

# Absolute tolerance shared by all zero / feasibility tests in the package.
FEAS_TOL = 1e-9

# Finite stand-in for forbidden assignments.  Never use true infinity: it
# poisons the min/sum arithmetic of message passing.
COST_CAP = 1e12

# Whole-model evaluation visits the pairwise tables of one shape this many
# table cells at a time (at least one table), which bounds its temporaries
# to a few hundred kilobytes: 1,024 edges of 4x4, 256 of 8x8, 64 of 16x16.
_CHUNK_CELLS = 16384


class _ShapeGroup(NamedTuple):
    block: np.ndarray       # (m, L_a, L_b) pairwise tables
    edges: np.ndarray       # edge ids, ascending
    off_ab: np.ndarray      # start of phi_{a,b} in the phi buffer
    off_ba: np.ndarray      # start of phi_{b,a}
    a: np.ndarray           # first endpoint of each edge
    b: np.ndarray           # second endpoint
    cells: np.ndarray       # start of each table in the flat block


class GraphicalModel:
    """Immutable graph with unary and pairwise cost tables.

    Nodes are ``0..n-1``; node ``u`` has ``labels[u]`` labels.  Edges are
    unordered pairs stored canonically as ``(u, v)`` with ``u < v``: the
    ``(|E|, 2)`` array ``ends``, and ``edges`` as a tuple of pairs.  All
    costs must be finite and non-negative (shift your input if needed; the
    non-negativity is what keeps the constrained dual well defined).

    ``edges`` is given as pairs or an ``(|E|, 2)`` array, ``pairwise`` as a
    sequence of tables in edge order; an ``(|E|, L, L')`` array of
    same-shaped tables becomes the model's table block as it is.
    """

    def __init__(self, labels, edges, unary, pairwise, grid_shape=None):
        given = np.asarray(labels)
        lab = _whole(given, lambda u: f"label count {given[u]} of node {u}",
                     copy=False)
        self.labels = tuple(lab.tolist())
        self.n_nodes = n = len(self.labels)
        if any(k <= 0 for k in self.labels):
            raise ValueError("every node needs at least one label")

        ends = np.asarray(edges).reshape(len(edges), 2)
        given = _whole(ends, lambda i: "edge ({},{}) has an endpoint that"
                       .format(*ends[i // 2].tolist()), copy=False)
        u, v = given.T
        self.ends = np.stack((np.minimum(u, v), np.maximum(u, v)), axis=1)
        self.n_edges = m = len(self.ends)
        a, b = self.ends.T
        bad = np.flatnonzero((a == b) | (a < 0) | (b >= n))
        if bad.size:
            u, v = given[bad[0]].tolist()
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            raise ValueError(f"edge ({u},{v}) has an endpoint out of range")

        # Directed incidences in CSR order: node by node, neighbours
        # ascending.  Incidence i of edge e is (a, b) for i = e, (b, a) for
        # i = e + |E|; ``at[i]`` is its CSR entry.
        src, dst = np.concatenate((a, b)), np.concatenate((b, a))
        key = src * n + dst
        csr = key.argsort()
        key = key[csr]
        if np.any(key[1:] == key[:-1]):
            raise ValueError("duplicate edge")
        # u * n + v of every entry (u, v), ascending, then n * n, a key
        # past every pair (see :meth:`lookup`).
        self._inc_key = np.append(key, n * n)
        at = np.empty_like(csr)
        at[csr] = np.arange(csr.size)
        self._degree = deg = np.bincount(src, minlength=n)
        src = src[csr]
        self._inc_ptr = np.append(0, deg.cumsum())
        self._inc_nbr = dst[csr]
        self._inc_edge = csr % max(m, 1)

        if len(unary) != n or len(pairwise) != m:
            raise ValueError("cost table count does not match nodes/edges")
        unary = [np.asarray(t, dtype=np.float64) for t in unary]
        for u, t in enumerate(unary):
            if t.shape != (self.labels[u],):
                raise ValueError(f"unary table of node {u} has shape {t.shape}")
        if isinstance(pairwise, np.ndarray) and pairwise.ndim == 3:
            shape = np.broadcast_to(pairwise.shape[1:], (m, 2))
        else:
            pairwise = [np.asarray(t, dtype=np.float64) for t in pairwise]
            shape = np.array([t.shape if t.ndim == 2 else (0, 0)
                              for t in pairwise], dtype=np.int64).reshape(m, 2)
        bad = np.flatnonzero(np.any(shape != lab[self.ends], axis=1))
        if bad.size:
            e = bad[0]
            raise ValueError(f"pairwise table of edge ({a[e]},{b[e]}) has "
                             f"shape {pairwise[e].shape}")

        self._label_counts = lab
        self.label_offsets = np.append(0, lab.cumsum())
        self._unary_flat = flat = np.concatenate(unary) if n else np.zeros(0)
        self.unary = tuple(np.split(flat, self.label_offsets[1:-1])) if n else ()

        # phi layout: node u owns deg(u) rows of L_u values.
        phi_off = np.append(0, (deg * lab).cumsum())
        self.phi_size = int(phi_off[-1])
        # Start of phi_{u,v}, then of phi_{v,u}, per CSR entry (u, v).
        self._inc_phi = phi_off[src] + (np.arange(src.size)
                                        - self._inc_ptr[src]) * lab[src]
        self._inc_back = self._inc_phi[at[(csr + m) % max(src.size, 1)]]

        # Label slot (index into the flat unary buffer) of every unary
        # value and then of every phi value, so that one bincount over
        # (theta, -phi) computes all of theta^phi.
        owner = np.repeat(np.arange(n), deg * lab)
        slot = (np.arange(self.phi_size) - phi_off[owner]) % lab[owner]
        self._cost_slot = np.append(np.arange(flat.size),
                                    slot + self.label_offsets[owner])

        self._label_groups = [
            (nodes, self.label_offsets[nodes][:, None] + np.arange(k))
            for k in sorted(set(self.labels))
            for nodes in [np.flatnonzero(lab == k)]]

        # Shape groups in order of first appearance; within one, edges
        # ascending.  Edge e is entry _edge_pos[e] of group _edge_block[e].
        _, first, group = np.unique(lab[a] * (lab.max(initial=0) + 1) + lab[b],
                                    return_index=True, return_inverse=True)
        self._edge_block = np.argsort(first.argsort())[group]
        self._edge_pos = np.empty(m, dtype=np.int64)
        by = self._edge_block.argsort(kind="stable")
        self._shape_groups = []
        for i in np.split(by, np.bincount(self._edge_block).cumsum())[:-1]:
            self._edge_pos[i] = np.arange(len(i))
            # Same-shaped tables given as one (|E|, L_a, L_b) array are
            # used as the block, without a copy.
            block = (np.ascontiguousarray(pairwise, dtype=np.float64)
                     if isinstance(pairwise, np.ndarray)
                     else np.stack([pairwise[e] for e in i.tolist()]))
            self._shape_groups.append(_ShapeGroup(
                block, i, self._inc_phi[at[i]], self._inc_back[at[i]], a[i],
                b[i], np.arange(len(i)) * block[0].size))
        blocks = [g.block for g in self._shape_groups]
        for t in (flat, *blocks):
            if not np.all(np.isfinite(t)):
                raise ValueError("costs must be finite (use COST_CAP for forbidden pairs)")
            if np.any(t < 0):
                raise ValueError("costs must be non-negative (pre-shift your input)")
        # Costs reach theta^phi as unaries and as the minima of table rows and
        # columns.  Where one of them is so large that an ulp of it exceeds
        # FEAS_TOL, as COST_CAP is, programs derive theta^phi afresh from
        # theta and phi rather than update it by deltas.
        big = FEAS_TOL / np.finfo(np.float64).eps
        self._exact_excess = bool(flat.max(initial=0.0) >= big or any(
            b.max(initial=0.0) >= big and max(
                b.min(axis=a).max(initial=0.0) for a in (1, 2)) >= big
            for b in blocks))

        # Optional (height, width) hint set by the grid generators; lets
        # solvers pick row/column chain covers, so its 4-grid must be
        # exactly the model's edges.
        self.grid_shape = shape = None if grid_shape is None \
            else tuple(grid_shape)
        if shape is not None:
            if min(shape) < 1 or shape[0] * shape[1] != n:
                raise ValueError(f"grid shape {shape} does not hold {n} nodes")
            w, at = shape[1], np.arange(n).reshape(shape)
            extra = np.flatnonzero((b - a != w) & ((b - a != 1) | (b % w == 0)))
            if extra.size:
                raise ValueError(f"edge ({a[extra[0]]},{b[extra[0]]}) is not "
                                 f"an edge of grid shape {shape}")
            u, v = np.append(at[:, :-1], at[:-1]), np.append(at[:, 1:], at[1:])
            _, found = self.lookup(u, v)
            if not found.all():
                i = np.argmin(found)
                raise ValueError(f"grid shape {shape} needs edge ({u[i]},"
                                 f"{v[i]}), which the model lacks")

    @cached_property
    def edges(self):
        return tuple(map(tuple, self.ends.tolist()))

    @cached_property
    def pairwise(self):
        """The tables in edge order, as views into the shape blocks."""
        blocks = [g.block for g in self._shape_groups]
        return tuple(blocks[g][i] for g, i in zip(self._edge_block.tolist(),
                                                  self._edge_pos.tolist()))

    def lookup(self, u, v):
        """CSR entries of the pairs (u, v), arrays or scalars, and which are
        edges.  A pair with an endpoint out of range searches for n*n, so it
        cannot alias an edge; the entry of a non-edge means nothing."""
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        n = self.n_nodes
        valid = (np.minimum(u, v) >= 0) & (np.maximum(u, v) < n)
        key = np.where(valid, u * n + v, n * n)
        entry = self._inc_key.searchsorted(key)
        return entry, valid & (self._inc_key[entry] == key)

    def neighbors(self, u):
        ptr = self._inc_ptr
        return tuple(self._inc_nbr[ptr[u]:ptr[u + 1]].tolist())

    def incidence(self, u, v):
        """(edge id, start of phi_{u,v}, start of phi_{v,u}) in the phi buffer."""
        i, found = self.lookup(u, v)
        if not found:
            raise ValueError(f"({u},{v}) is not an edge of the model")
        return (int(self._inc_edge[i]), int(self._inc_phi[i]),
                int(self._inc_back[i]))


class Reparametrization:
    """Dual vector phi: one value per (directed incidence, label) pair.

    ``phi[u, v]`` is a writable view of the vector ``phi_{u,v}`` over the
    labels of ``u``, defined for every edge ``uv`` of the model.  A
    reparametrization is one flat ``buffer``, owned by exactly one solver
    run at a time: theta^phi of every node (laid out as the unary buffer),
    then phi as the model lays it out, then a zero scratch row per
    directed incidence, so that :class:`dualbca.updates.Program` gathers
    all it reads by one index.  ``values`` is a view of its phi.  A program
    writes theta^phi when it starts to run (see
    :meth:`dualbca.updates.Program.run`) and keeps it up to date; nothing
    else reads it.
    """

    __slots__ = ("model", "buffer")

    def __init__(self, model: GraphicalModel):
        self.model = model
        at = model._unary_flat.size
        self.buffer = np.zeros(at + 2 * model.phi_size)
        self.buffer[:at] = model._unary_flat

    @property
    def values(self):
        at = self.model._unary_flat.size
        return self.buffer[at:at + self.model.phi_size]

    def __getitem__(self, uv):
        start = self.model.incidence(*uv)[1]
        return self.values[start:start + self.model.labels[uv[0]]]

    def __setitem__(self, uv, value):
        self[uv][...] = value

    def copy(self):
        out = Reparametrization.__new__(Reparametrization)
        out.model, out.buffer = self.model, self.buffer.copy()
        return out


def check_labeling(model, y):
    """``y`` as a new int64 array, once every label is a whole number in
    range, of whatever dtype.  NaN is out of range."""
    given = np.asarray(y)
    if given.shape != (model.n_nodes,):
        raise ValueError("labeling must assign one label per node")
    bad = np.flatnonzero(np.logical_not((given >= 0)
                                        & (given < model._label_counts)))
    if bad.size:
        u = int(bad[0])
        raise ValueError(f"label {given[u]} out of range for node {u}")
    return _whole(given, lambda u: f"label {given[u]} of node {u}")


def _whole(given, name, copy=True):
    """The array ``given`` as int64 (``copy`` as for ``astype``), once every
    entry is a whole number (NaN and infinities are not).  Else a
    ValueError names the first entry that is not, by ``name`` of its flat
    index."""
    if given.dtype.kind == "i":         # signed integers are whole
        return given.astype(np.int64, copy=copy)
    with np.errstate(invalid="ignore"):
        out = given.astype(np.int64, copy=copy)
    bad = np.flatnonzero(out != given)
    if bad.size:
        raise ValueError(f"{name(int(bad[0]))} is not a whole number")
    return out


def node_costs(model, phi):
    """theta^phi of every node, concatenated in node order.

    Entry ``label_offsets[u] + s`` is theta^phi_u(s).  bincount adds its
    weights in input order, so each entry is theta_u(s) minus the incident
    phi one at a time in adjacency order.  With ``phi=None`` this is the
    model's own unary buffer: read it, do not write it.
    """
    if phi is None:
        return model._unary_flat
    return np.bincount(model._cost_slot,
                       weights=np.concatenate((model._unary_flat, -phi.values)),
                       minlength=model._unary_flat.size)


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
    node_terms = node_costs(model, phi).take(model.label_offsets[:-1] + y)
    return _sum_in_order(node_terms, _edge_terms(model, y, phi))


def _edge_terms(model, y, phi):
    """Per edge theta^phi_ab(y_a, y_b) of a checked labeling ``y``, summed
    as (theta_ab + phi_{a,b}) + phi_{b,a}; theta_ab(y_a, y_b) with
    ``phi=None``.  A group's entries are one flat take from its block."""
    out = np.empty(model.n_edges)
    for g in model._shape_groups:
        y_a, y_b = y.take(g.a), y.take(g.b)
        vals = g.block.ravel().take(g.cells + y_a * g.block.shape[2] + y_b)
        if phi is not None:
            vals += phi.values.take(g.off_ab + y_a)
            vals += phi.values.take(g.off_ba + y_b)
        out[g.edges] = vals
    return out


def dual_value(model, phi):
    """Lower bound D(phi): sum of node-wise and edge-wise minima of theta^phi.

    Minima are added in node order, then in edge order.
    """
    return _evaluate(model, phi).dual


def _edge_minima(model, phi):
    """Per edge the minimum of theta^phi, taken as the kernels take
    min-marginals (:func:`dualbca.kernels._marginal`): per chunk of the
    edges of one shape that fill at most ``_CHUNK_CELLS`` table cells (at
    least one edge), theta_ab + phi_{a,b} with the tables
    viewed as (L_a, L_b, m), its minima over Y_a, plus phi_{b,a}, then the
    minima over Y_b.  Rounding to nearest is monotone, so this is bit for
    bit the minimum of (theta_ab + phi_{a,b}) + phi_{b,a} as
    :func:`_edge_terms` sums it, up to the sign of a zero minimum, which
    no sum of a node minimum and edge minima can show (see
    :func:`_evaluate`).  Every reduction runs over a leading axis,
    as whole-slab elementwise minima."""
    vals = phi.values
    out = np.empty(model.n_edges)
    for g in model._shape_groups:
        n, k_a, k_b = g.block.shape
        tables = g.block.transpose(1, 2, 0)
        c = min(n, max(1, _CHUNK_CELLS // (k_a * k_b)))
        at_a, at_b = np.arange(k_a)[:, None], np.arange(k_b)[:, None]
        work, low = np.empty((k_a, k_b, c)), np.empty((k_b, c))
        for s in range(0, n, c):
            e = min(n, s + c)
            t, q = work[:, :, :e - s], low[:, :e - s]
            np.add(tables[:, :, s:e], vals.take(g.off_ab[s:e] + at_a)[:, None],
                   out=t)
            np.minimum.reduce(t, axis=0, out=q)
            q += vals.take(g.off_ba[s:e] + at_b)
            out[g.edges[s:e]] = np.minimum.reduce(q, axis=0)
    return out


def check_feasible(model, phi, tol=FEAS_TOL):
    """True iff every reparametrized cost is >= -tol (constrained dual)."""
    if tol < 0:
        raise ValueError("tol must be non-negative")
    return bool(node_costs(model, phi).min(initial=np.inf) >= -tol
                and _edge_minima(model, phi).min(initial=np.inf) >= -tol)


def primal_round(model, phi):
    """Independent per-node rounding: y_u = argmin theta^phi_u, lowest index wins."""
    return _round(model, node_costs(model, phi))


class _Evaluation(NamedTuple):
    costs: np.ndarray       # node_costs
    y: np.ndarray           # the rounding of primal_round
    edge_min: np.ndarray    # _edge_minima
    dual: float             # dual_value


def _evaluate(model, phi):
    """The one whole-model evaluation of theta^phi that a per-pass record,
    :func:`dual_value` and the gaps of dynamic trees read.  A node's
    minimum is its cost at the label it rounds to: the costs of a
    reparametrization are bincount sums from +0.0, which hold no -0.0, so
    the first minimum that argmin finds is the minimum, bit for bit, and
    the sum starts from a node minimum that no signed zero of an edge
    minimum can change."""
    costs = node_costs(model, phi)
    y = _round(model, costs)
    edge_min = _edge_minima(model, phi)
    return _Evaluation(costs, y, edge_min, _sum_in_order(
        costs.take(model.label_offsets[:-1] + y), edge_min))


def _round(model, costs):
    y = np.zeros(model.n_nodes, dtype=np.int64)
    for nodes, slots in model._label_groups:
        y[nodes] = costs[slots].argmin(axis=1)
    return y

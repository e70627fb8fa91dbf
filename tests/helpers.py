"""One-operation updates that only the tests call.

Each runs a :class:`dualbca.updates.Program` of one operation, or computes
the same quantity from :mod:`dualbca.model`, so that tests can check the
elementary updates one at a time.  :func:`batch_count` reads how many
batches a compiled program runs, and :func:`check_greedy_classes` checks a
colour-class block order.
"""
import numpy as np

from dualbca.blocks import emit_tbca
from dualbca.model import Reparametrization, pairwise_costs, unary_costs
from dualbca.updates import Program, run_program


def node_aggregate(model, phi, u, counter=None):
    """Pull each incident edge's row minima into node u (one message per edge).

    Afterwards min_l theta^phi_uv(s, l) = 0 for every neighbor v and label s,
    which is the block optimum of the node-adjacent block of u.  The
    messages are the pushes v -> u, which read and write only phi_{u,v} and
    so run as one wave of a :class:`Program`.
    """
    run_program(model, phi, counter, _emit_aggregate, u)


def _emit_aggregate(prog, u):
    for v in prog.model.neighbors(u):
        prog.push(v, u)


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


def message(model, phi, u, v, counter=None):
    """Directed min-marginal u -> v: min over Y_u of theta^phi_uv per label
    of v."""
    model.incidence(u, v)                   # rejects a non-edge
    if counter is not None:
        counter.add()
    return pairwise_costs(model, phi, u, v).min(axis=0)


def push_min_into(model, phi, u, v, counter=None):
    """Subtract the u->v min-marginal from phi_{v,u}, moving it into node v."""
    run_program(model, phi, counter, Program.push, u, v)


def dp_update(model, phi, u, v, counter=None):
    """Dynamic-programming push over the directed edge u -> v.

    Empties theta^phi_u into the edge, then moves the edge's min-marginal
    into v.  One message.
    """
    run_program(model, phi, counter, Program.rdp, u, v)


def rdp_update(model, phi, u, v, r, counter=None):
    """Redistribution DP over u -> v: push fraction r of theta^phi_u forward.

    r=1 is exactly :func:`dp_update`; r=0 only moves the edge min-marginal.
    """
    run_program(model, phi, counter, Program.rdp, u, v, r)


def tbca_tree(model, phi, block, counter=None, plus=False):
    """Tree-BCA update on a tree (or chain) block; see :func:`emit_tbca`."""
    run_program(model, phi, counter, emit_tbca, block, plus)


def batch_count(prog):
    """Number of batches the program runs a pass in; compiles it (by a run
    on a zero reparametrization) if it has not run yet."""
    if prog._plan is None:
        prog.run(Reparametrization(prog.model))
    batches, _ = prog._plan
    return len(batches)


def check_greedy_classes(classes, visit):
    """Assert that ``classes`` (lists of node tuples) are the greedy colour
    classes of their paths visited in order of ``visit``: each class is in
    canonical order and shares no node, and each path of class k shares a
    node with a path of every earlier class visited before it."""
    for k, c in enumerate(classes):
        assert c == sorted(c)
        nodes = [u for p in c for u in p]
        assert len(nodes) == len(set(nodes))
        for p in c:
            for earlier in classes[:k]:
                assert any(set(p) & set(q) and visit(q) < visit(p)
                           for q in earlier)

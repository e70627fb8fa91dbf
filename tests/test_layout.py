"""The flat phi layout and the batched kernels against per-node and
per-edge loops written here from the definitions.

Models mix label counts, include isolated nodes and COST_CAP entries.
The contract is agreement within 1e-9 relative to each value's size, not
bit identity, even where the vectorized code happens to round as the
loops do.
"""
import numpy as np
import pytest

from dualbca.covers import gap_scores
from dualbca.generate import generate_instance, random_phi
from dualbca.model import (_CHUNK_CELLS, COST_CAP, GraphicalModel,
                           Reparametrization, _evaluate, node_costs,
                           check_feasible, dual_value, energy, primal_round)
from dualbca.solve import SolverConfig, run
from dualbca.updates import MessageCounter
from helpers import (edge_chunks, is_zero, message, node_aggregate,
                     node_distribute, pairwise_table, push_min_into)

TOL = 1e-9


def close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.all(np.abs(a - b) <= TOL * np.maximum(1.0, np.abs(b)))


def hostile_model(rng, n_nodes=8):
    """Mixed label counts 1..4, the last two nodes isolated, 20% of the
    unary and pairwise entries at COST_CAP."""
    labels = [int(k) for k in rng.integers(1, 5, n_nodes)]
    edges = [(u, v) for u in range(n_nodes - 2) for v in range(u + 1, n_nodes - 2)
             if rng.random() < 0.6]

    def table(shape):
        t = rng.uniform(0.0, 2.0, shape)
        t[rng.random(shape) < 0.2] = COST_CAP
        return t

    return GraphicalModel(labels, edges, [table(k) for k in labels],
                          [table((labels[u], labels[v])) for u, v in edges])


def ref_unary(model, phi, u):
    out = model.unary[u].copy()
    for v in model.neighbors(u):
        out -= phi[u, v]
    return out


def ref_pairwise(model, phi, e):
    u, v = model.edges[e]
    return model.pairwise[e] + phi[u, v][:, None] + phi[v, u][None, :]


def cases(seed, count=25):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        model = hostile_model(rng, n_nodes=int(rng.integers(3, 10)))
        yield rng, model, random_phi(rng, model, scale=2.0)


def test_layout_views():
    rng, model, phi = next(cases(0))
    for (u, v) in model.edges:
        assert np.shares_memory(phi[u, v], phi.values)
        assert pairwise_table(model, u, v).shape == (model.labels[u],
                                                    model.labels[v])
    assert phi.values.size == sum(
        len(model.neighbors(u)) * model.labels[u] for u in range(model.n_nodes))
    copy = phi.copy()
    copy.values[:] = 0.0
    assert is_zero(copy) and not is_zero(phi)


def test_table_array_is_the_block():
    rng = np.random.default_rng(6)
    edges = [(0, 1), (1, 2), (0, 2)]
    tables = rng.uniform(0.0, 1.0, (3, 2, 2))
    unary = [np.zeros(2)] * 3
    adopted = GraphicalModel([2] * 3, edges, unary, tables)
    copied = GraphicalModel([2] * 3, edges, unary, list(tables))
    for e in range(3):
        assert np.shares_memory(adopted.pairwise[e], tables)
        assert not np.shares_memory(copied.pairwise[e], tables)
        assert np.array_equal(adopted.pairwise[e], copied.pairwise[e])


def test_whole_model_functions_match_loops():
    for rng, model, phi in cases(1):
        units = [ref_unary(model, phi, u) for u in range(model.n_nodes)]
        pairs = [ref_pairwise(model, phi, e) for e in range(model.n_edges)]
        dual = sum(t.min() for t in units) + sum(t.min() for t in pairs)
        assert close(dual_value(model, phi), dual)

        y = np.array([int(rng.integers(k)) for k in model.labels])
        e_y = sum(t[y[u]] for u, t in enumerate(units)) + \
            sum(t[y[u], y[v]] for (u, v), t in zip(model.edges, pairs))
        assert close(energy(model, y, phi), e_y)
        assert close(energy(model, y), energy(model, y, phi))

        assert primal_round(model, phi).tolist() == \
            [int(np.argmin(t)) for t in units]

        lowest = min(min(t.min() for t in units),
                     min((t.min() for t in pairs), default=np.inf))
        for tol in (0.0, 0.5 * abs(lowest), 2.0 * abs(lowest)):
            assert check_feasible(model, phi, tol) == (lowest >= -tol)

        node_gap, edge_gap = gap_scores(model, phi, y, _evaluate(model, phi))
        assert close(node_gap, [t[y[u]] - t.min() for u, t in enumerate(units)])
        assert close(edge_gap, [t[y[u], y[v]] - t.min()
                                for (u, v), t in zip(model.edges, pairs)])


def ref_record(model, phi):
    """The node costs, the rounding, the edge minima, the dual and the
    rounding's energy as a per-pass record took them with
    ``t.min(axis=(1, 2))`` over :func:`edge_chunks`, and :func:`ref_unary`,
    a minimum and an argmin per node, each sum left to right from its first
    term."""
    nodes = [ref_unary(model, phi, u) for u in range(model.n_nodes)]
    costs = np.concatenate(nodes)
    edge_min = np.zeros(model.n_edges)
    for ids, t in edge_chunks(model, phi):
        edge_min[ids] = t.min(axis=(1, 2))
    y = np.array([int(np.argmin(c)) for c in nodes])
    return (costs, y, edge_min, total([c.min() for c in nodes]
                                      + list(edge_min)),
            total([model.unary[u][y[u]] for u in range(model.n_nodes)]
                  + [t[y[u], y[v]] for (u, v), t in zip(model.edges,
                                                       model.pairwise)]))


def total(terms):
    """The sum of ``terms``, left to right from the first."""
    out = terms[0]
    for x in terms[1:]:
        out += x
    return float(out)


def ref_gaps(model, phi, y):
    """The node and edge gaps of ``y`` as :func:`dualbca.covers.gap_scores`
    took them: a minimum per node, and per edge its :func:`edge_chunks`
    table at y less ``t.min(axis=(1, 2))``."""
    costs = node_costs(model, phi)
    at = model.label_offsets
    node_gap = np.array([costs[at[u] + y[u]] - costs[at[u]:at[u + 1]].min()
                         for u in range(model.n_nodes)])
    edge_gap = np.zeros(model.n_edges)
    for ids, t in edge_chunks(model, phi):
        a, b = model.ends[ids].T
        edge_gap[ids] = t[np.arange(len(ids)), y[a], y[b]] - t.min(axis=(1, 2))
    return node_gap, edge_gap


def forest_order(model, node_gap, edge_gap):
    """The order in which the dynamic forest visits the edges."""
    a, b = model.ends.T
    return np.argsort(-(edge_gap + node_gap[a] + node_gap[b]), kind="stable")


def signed_zeros(rng, phi, share):
    """phi with about ``share`` of its entries set to +0.0 or -0.0."""
    at = rng.random(phi.values.size) < share
    phi.values[at] = np.where(rng.random(at.sum()) < 0.5, 0.0, -0.0)
    return phi


def test_record_is_bit_for_bit_the_per_edge_minima():
    # The evaluation that solve.run records and dynamic trees read, field
    # by field, dual_value, primal_round and energy, and gap_scores and
    # check_feasible, against edge_chunks minima.  Integer costs make ties
    # and zero minima; phi holds signed zeros.  One model has no edges.
    rng = np.random.default_rng(8)
    models = [m for _, m, _ in cases(9, count=12)]
    for _ in range(6):
        m = hostile_model(rng, n_nodes=int(rng.integers(3, 10)))
        models.append(GraphicalModel(
            m.labels, m.edges, [np.floor(t) for t in m.unary],
            [np.floor(t) for t in m.pairwise]))
    models.append(GraphicalModel([3, 1], [], [np.array([1.0, 0.0, 2.0]),
                                              np.zeros(1)], []))
    for model in models:
        for share in (0.0, 0.4, 1.0):
            for phi in (signed_zeros(rng, Reparametrization(model), share),
                        signed_zeros(rng, random_phi(rng, model, 2.0), share),
                        signed_zeros(rng, run(model, SolverConfig(
                            "trws", max_passes=2))[0], share)):
                costs, y, edge_min, dual, e = ref_record(model, phi)
                ev = _evaluate(model, phi)
                for got, want in zip(ev, (costs, y, edge_min, dual)):
                    assert np.asarray(got).tobytes() == \
                        np.asarray(want).tobytes()
                assert dual_value(model, phi).hex() == dual.hex()
                assert primal_round(model, phi).tobytes() == y.tobytes()
                assert energy(model, y).hex() == e.hex()
                for y in (y, rng.integers(0, model.labels)):
                    gaps = gap_scores(model, phi, y, ev)
                    ref = ref_gaps(model, phi, y)
                    for got, want in zip(gaps, ref):
                        assert np.array_equal(got, want)
                    assert np.array_equal(forest_order(model, *gaps),
                                          forest_order(model, *ref))
                lowest = min([node_costs(model, phi).min()] + [
                    t.min() for _, t in edge_chunks(model, phi)])
                for tol in (0.0, abs(lowest)):
                    assert check_feasible(model, phi, tol) == (lowest >= -tol)


def chunked_models(rng):
    """Models whose shape groups span several chunks of ``_CHUNK_CELLS``
    table cells: K_60 with 4 labels (1,770 edges, 1,024 to a chunk), a
    12x12 grid with 16 labels (264 edges, 64 to a chunk), and a 20x20 grid
    whose nodes have 8 or 16 labels (760 edges in four shape groups, 64,
    128 or 256 to a chunk)."""
    yield generate_instance("complete", n_nodes=60, labels=4, seed=3)
    yield generate_instance("sparse_grid", height=12, width=12, labels=16,
                            seed=4)
    edges = generate_instance("sparse_grid", height=20, width=20).edges
    labels = rng.choice([8, 16], 400).tolist()
    yield GraphicalModel(labels, edges,
                         [rng.uniform(0.0, 5.0, k) for k in labels],
                         [rng.uniform(0.0, 2.0, (labels[u], labels[v]))
                          for u, v in edges])


def test_record_across_chunks_is_bit_for_bit_per_edge():
    # The evaluation's edge minima, the dual, energy with and without phi,
    # gap_scores and check_feasible, against tables built edge by edge,
    # where one shape's edges take several chunks of the evaluation.
    rng = np.random.default_rng(13)
    for model in chunked_models(rng):
        spans = [len(g.edges) * g.block[0].size / _CHUNK_CELLS
                 for g in model._shape_groups]
        assert max(spans) > 1
        for phi in (Reparametrization(model), random_phi(rng, model, 2.0),
                    run(model, SolverConfig("trws", max_passes=2))[0]):
            units = [ref_unary(model, phi, u) for u in range(model.n_nodes)]
            pairs = [ref_pairwise(model, phi, e) for e in range(model.n_edges)]
            y = np.array([int(np.argmin(t)) for t in units])
            edge_min = np.array([t.min() for t in pairs])
            ev = _evaluate(model, phi)
            assert ev.costs.tobytes() == np.concatenate(units).tobytes()
            assert ev.y.tobytes() == y.tobytes()
            assert ev.edge_min.tobytes() == edge_min.tobytes()
            assert ev.dual.hex() == total([t.min() for t in units]
                                          + list(edge_min)).hex()
            assert dual_value(model, phi).hex() == ev.dual.hex()
            other = rng.integers(0, model.labels)
            for z in (y, other):
                ends = [(z[u], z[v]) for u, v in model.edges]
                assert energy(model, z).hex() == total(
                    [model.unary[u][z[u]] for u in range(model.n_nodes)]
                    + [t[s] for t, s in zip(model.pairwise, ends)]).hex()
                assert energy(model, z, phi).hex() == total(
                    [t[z[u]] for u, t in enumerate(units)]
                    + [t[s] for t, s in zip(pairs, ends)]).hex()
                node_gap, edge_gap = gap_scores(model, phi, z, ev)
                assert node_gap.tobytes() == np.array(
                    [t[z[u]] - t.min() for u, t in enumerate(units)]).tobytes()
                assert edge_gap.tobytes() == np.array(
                    [t[s] - t.min() for t, s in zip(pairs, ends)]).tobytes()
            lowest = min(min(t.min() for t in units), edge_min.min())
            for tol in (0.0, abs(lowest)):
                assert check_feasible(model, phi, tol) == (lowest >= -tol)


def test_node_aggregate_matches_per_edge_sequence():
    for rng, model, phi in cases(2):
        for u in range(model.n_nodes):
            batched, looped = phi.copy(), phi.copy()
            c_batched, c_looped = MessageCounter(), MessageCounter()
            node_aggregate(model, batched, u, c_batched)
            for v in model.neighbors(u):
                looped[u, v] -= message(model, looped, v, u, c_looped)
            assert close(batched.values, looped.values)
            assert c_batched.total == c_looped.total == len(model.neighbors(u))


def test_node_distribute_matches_per_edge_sequence():
    for rng, model, phi in cases(3):
        for u in range(model.n_nodes):
            nb = model.neighbors(u)
            picked = [v for v in nb if rng.random() < 0.7]
            w = rng.dirichlet(np.ones(len(picked) + 1))[:len(picked)]
            weights = dict(zip(picked[::-1], w))      # any key order
            batched, looped = phi.copy(), phi.copy()
            counter = MessageCounter()
            node_distribute(model, batched, u, weights, counter)
            excess = ref_unary(model, looped, u)
            for v, w_v in weights.items():
                looped[u, v] += w_v * excess
            assert close(batched.values, looped.values)
            assert counter.total == 0


def test_node_distribute_rejects_non_neighbours():
    rng, model, phi = next(cases(4))
    isolated = model.n_nodes - 1
    with pytest.raises(ValueError):
        node_distribute(model, phi, isolated, {0: 0.5})
    node_distribute(model, phi, isolated, {})


def ref_trws_pass(model, phi, order, counter):
    """Two directed sweeps with one push per edge toward later nodes."""
    for sweep in (order, order[::-1]):
        pos = {u: i for i, u in enumerate(sweep)}
        for u in sweep:
            later = [v for v in model.neighbors(u) if pos[v] > pos[u]]
            if not later:
                continue
            w = 1.0 / max(len(model.neighbors(u)) - len(later), len(later))
            excess = ref_unary(model, phi, u)
            for v in later:
                phi[u, v] += w * excess
                push_min_into(model, phi, u, v, counter)


def test_trws_batched_sweeps_match_per_edge_sequence():
    rng = np.random.default_rng(5)
    for i in range(15):
        model = hostile_model(rng, n_nodes=int(rng.integers(3, 10)))
        order = None if i % 3 == 0 else \
            [int(u) for u in rng.permutation(model.n_nodes)]
        phi, _, trace = run(model, SolverConfig(method="trws", max_passes=3,
                                                node_order=order))
        ref, counter = Reparametrization(model), MessageCounter()
        for _ in range(3):
            ref_trws_pass(model, ref, order or list(range(model.n_nodes)),
                          counter)
        assert close(phi.values, ref.values)
        assert trace[-1].messages == counter.total

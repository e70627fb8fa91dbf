from array import array
from functools import partial

import numpy as np
import pytest

from dualbca import blocks as blk
from dualbca.model import (COST_CAP, GraphicalModel, Reparametrization,
                           check_feasible, dual_value, primal_round)
from dualbca.generate import random_model, random_phi
from dualbca.oracle import brute_force_min
from dualbca.solve import METHODS, SolverConfig, _Run
from dualbca.updates import (HANDSHAKE, MPLP, PUSH, RDP, STAR, TRWS,
                             MessageCounter, Program, handshake_update,
                             mplp_update)
from helpers import (batch_count, dp_update, handshake, is_zero, mplp,
                     node_aggregate, node_distribute, ops, pairwise_costs,
                     push, rdp, rdp_update, star, trws, unary_costs, waves)
from test_waves import check_packing, models


def edge_model(t_u, t_v, t_uv):
    return GraphicalModel([len(t_u), len(t_v)], [(0, 1)],
                          [np.asarray(t_u, float), np.asarray(t_v, float)],
                          [np.asarray(t_uv, float)])


def random_edge_model(rng, max_labels=4):
    k_u = int(rng.integers(1, max_labels + 1))
    k_v = int(rng.integers(1, max_labels + 1))
    return edge_model(rng.uniform(0, 2, k_u), rng.uniform(0, 2, k_v),
                      rng.uniform(0, 2, (k_u, k_v)))


class TestNodeAggregate:
    def test_hand_example(self):
        m = edge_model([0, 0], [0, 0], [[2, 3], [1, 4]])
        phi = Reparametrization(m)
        node_aggregate(m, phi, 0)
        assert unary_costs(m, phi, 0).tolist() == [2.0, 1.0]
        assert pairwise_costs(m, phi, 0, 1).min(axis=1).tolist() == [0.0, 0.0]

    def test_fixed_point(self):
        m = edge_model([0, 0], [0, 0], [[0, 3], [1, 0]])
        phi = Reparametrization(m)
        node_aggregate(m, phi, 0)
        assert is_zero(phi)

    def test_dual_nondecreasing(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            m = random_model(rng, n_nodes=4)
            phi = Reparametrization(m)
            before = dual_value(m, phi)
            u = int(rng.integers(m.n_nodes))
            node_aggregate(m, phi, u)
            assert dual_value(m, phi) >= before - 1e-9
            assert check_feasible(m, phi)

    def test_message_count(self):
        rng = np.random.default_rng(11)
        m = random_model(rng, n_nodes=5, edge_prob=0.8)
        phi = Reparametrization(m)
        counter = MessageCounter()
        node_aggregate(m, phi, 0, counter)
        assert counter.total == len(m.neighbors(0))


class TestNodeDistribute:
    def test_all_zero_weights_noop(self):
        m = edge_model([1, 2], [0, 0], [[0, 1], [1, 0]])
        phi = Reparametrization(m)
        node_distribute(m, phi, 0, {1: 0.0})
        assert is_zero(phi)

    def test_full_push(self):
        m = edge_model([2, 0], [0, 0], [[0, 1], [1, 0]])
        phi = Reparametrization(m)
        node_distribute(m, phi, 0, {1: 1.0})
        assert unary_costs(m, phi, 0).tolist() == [0.0, 0.0]
        assert phi[0, 1].tolist() == [2.0, 0.0]

    def test_dual_unchanged_after_aggregate(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            m = random_model(rng, n_nodes=4, edge_prob=0.8)
            phi = Reparametrization(m)
            u = int(rng.integers(m.n_nodes))
            nb = m.neighbors(u)
            if not nb:
                continue
            node_aggregate(m, phi, u)
            before = dual_value(m, phi)
            y_before = primal_round(m, phi)[u]
            w = rng.dirichlet(np.ones(len(nb) + 1))[:len(nb)]
            node_distribute(m, phi, u, dict(zip(nb, w)))
            assert dual_value(m, phi) == pytest.approx(before, abs=1e-9)
            assert primal_round(m, phi)[u] == y_before

    def test_weight_sum_violation_rejected(self):
        m = edge_model([1, 0], [0, 0], [[0, 1], [1, 0]])
        phi = Reparametrization(m)
        with pytest.raises(ValueError):
            node_distribute(m, phi, 0, {1: 1.5})

    def test_negative_weight_rejected(self):
        m = edge_model([1, 0], [0, 0], [[0, 1], [1, 0]])
        phi = Reparametrization(m)
        with pytest.raises(ValueError):
            node_distribute(m, phi, 0, {1: -0.1})


class TestWeightsFor:
    # The distribution weights the node methods write into their programs.
    def star_model(self):
        # node 0 with neighbors 1..4
        edges = [(0, v) for v in range(1, 5)]
        return GraphicalModel([2] * 5, edges, [np.zeros(2)] * 5,
                              [np.zeros((2, 2))] * 4)

    @staticmethod
    def node_steps(model, method, u):
        """(targets, weight) of every node operation at u, in pass order."""
        prog = _Run(model, SolverConfig(method, max_passes=1)).program()
        return [(v, r) for _, x, v, r in ops(prog) if x == u]

    def test_msd(self):
        assert self.node_steps(self.star_model(), "msd", 0) == \
            [((1, 2, 3, 4), 0.25)]

    def test_cmp(self):
        assert self.node_steps(self.star_model(), "cmp", 0) == \
            [((1, 2, 3, 4), 0.2)]

    def test_trws_interior_grid_node(self):
        # 3x3 grid, row-major: node 4 has N_in = N_out = 2
        edges = []
        for r in range(3):
            for c in range(3):
                u = 3 * r + c
                if c < 2:
                    edges.append((u, u + 1))
                if r < 2:
                    edges.append((u, u + 3))
        m = GraphicalModel([2] * 9, edges, [np.zeros(2)] * 9,
                           [np.zeros((2, 2))] * len(edges))
        # forward sweep to the later neighbours, backward to the earlier
        assert self.node_steps(m, "trws", 4) == [((5, 7), 0.5), ((1, 3), 0.5)]


class TestMplpUpdate:
    def test_hand_example(self):
        m = edge_model([0, 0], [0, 0], [[0, 2], [3, 1]])
        phi = Reparametrization(m)
        mplp_update(m, phi, 0, 1)
        assert unary_costs(m, phi, 0) == pytest.approx([0.0, 0.5])
        assert unary_costs(m, phi, 1) == pytest.approx([0.0, 0.25])

    def test_fixed_point_zero_minima(self):
        m = edge_model([0, 0], [0, 0], [[0, 1], [1, 0]])
        phi = Reparametrization(m)
        mplp_update(m, phi, 0, 1)
        assert is_zero(phi)

    def test_two_node_block_optimum(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = random_edge_model(rng)
            phi = Reparametrization(m)
            mplp_update(m, phi, 0, 1)
            opt, _ = brute_force_min(m)
            assert dual_value(m, phi) == pytest.approx(opt, abs=1e-9)
            assert check_feasible(m, phi)

    def test_message_count(self):
        m = edge_model([0, 0], [0, 0], [[0, 2], [3, 1]])
        phi = Reparametrization(m)
        counter = MessageCounter()
        mplp_update(m, phi, 0, 1, counter)
        assert counter.total == 2


class TestHandshakeUpdate:
    def test_hand_example(self):
        m = edge_model([0, 0], [0, 0], [[0, 2], [3, 1]])
        phi = Reparametrization(m)
        handshake_update(m, phi, 0, 1)
        assert unary_costs(m, phi, 0) == pytest.approx([0.0, 0.5])
        assert unary_costs(m, phi, 1) == pytest.approx([0.0, 0.5])
        assert pairwise_costs(m, phi, 0, 1) == pytest.approx(
            np.array([[0.0, 1.5], [2.5, 0.0]]))

    def test_idempotent(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            m = random_edge_model(rng)
            phi = Reparametrization(m)
            handshake_update(m, phi, 0, 1)
            u0, u1 = unary_costs(m, phi, 0), unary_costs(m, phi, 1)
            pw = pairwise_costs(m, phi, 0, 1)
            handshake_update(m, phi, 0, 1)
            assert unary_costs(m, phi, 0) == pytest.approx(u0, abs=1e-9)
            assert unary_costs(m, phi, 1) == pytest.approx(u1, abs=1e-9)
            assert pairwise_costs(m, phi, 0, 1) == pytest.approx(pw, abs=1e-9)

    def test_dominates_mplp(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            m = random_edge_model(rng)
            phi_hs, phi_mp = Reparametrization(m), Reparametrization(m)
            handshake_update(m, phi_hs, 0, 1)
            mplp_update(m, phi_mp, 0, 1)
            for u in (0, 1):
                assert np.all(unary_costs(m, phi_hs, u)
                              >= unary_costs(m, phi_mp, u) - 1e-12)

    def test_zero_row_and_column_minima(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            m = random_edge_model(rng)
            phi = Reparametrization(m)
            handshake_update(m, phi, 0, 1)
            pw = pairwise_costs(m, phi, 0, 1)
            assert pw.min(axis=0) == pytest.approx(np.zeros(pw.shape[1]),
                                                   abs=1e-9)
            assert pw.min(axis=1) == pytest.approx(np.zeros(pw.shape[0]),
                                                   abs=1e-9)

    def test_invariant_to_reverse_phi(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            m = random_edge_model(rng)
            phi_a, phi_b = Reparametrization(m), Reparametrization(m)
            # keep the perturbed start feasible: only lower phi_{v,u}
            phi_b[1, 0] -= rng.uniform(0, 2, m.labels[1])
            handshake_update(m, phi_a, 0, 1)
            handshake_update(m, phi_b, 0, 1)
            for u in (0, 1):
                assert unary_costs(m, phi_a, u) == pytest.approx(
                    unary_costs(m, phi_b, u), abs=1e-9)
            assert pairwise_costs(m, phi_a, 0, 1) == pytest.approx(
                pairwise_costs(m, phi_b, 0, 1), abs=1e-9)

    def test_message_count(self):
        m = edge_model([0, 0], [0, 0], [[0, 2], [3, 1]])
        phi = Reparametrization(m)
        counter = MessageCounter()
        handshake_update(m, phi, 0, 1, counter)
        assert counter.total == 3


class TestDpUpdate:
    def test_hand_example(self):
        m = edge_model([1, 0], [0, 0], [[0, 2], [3, 1]])
        phi = Reparametrization(m)
        dp_update(m, phi, 0, 1)
        assert unary_costs(m, phi, 0).tolist() == [0.0, 0.0]
        assert unary_costs(m, phi, 1).tolist() == [1.0, 1.0]
        assert pairwise_costs(m, phi, 0, 1).tolist() == [[0.0, 2.0],
                                                         [2.0, 0.0]]

    def test_zero_costs_noop(self):
        m = edge_model([0, 0], [0, 0], [[0, 0], [0, 0]])
        phi = Reparametrization(m)
        dp_update(m, phi, 0, 1)
        assert is_zero(phi)

    def test_postconditions(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            m = random_edge_model(rng)
            phi = Reparametrization(m)
            before = dual_value(m, phi)
            dp_update(m, phi, 0, 1)
            assert np.all(np.abs(unary_costs(m, phi, 0)) <= 1e-9)
            col_min = pairwise_costs(m, phi, 0, 1).min(axis=0)
            assert np.all(np.abs(col_min) <= 1e-9)
            assert dual_value(m, phi) >= before - 1e-9

    def test_message_count(self):
        m = edge_model([1, 0], [0, 0], [[0, 2], [3, 1]])
        phi = Reparametrization(m)
        counter = MessageCounter()
        dp_update(m, phi, 0, 1, counter)
        assert counter.total == 1


class TestRdpUpdate:
    def test_r_one_equals_dp(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            m = random_edge_model(rng)
            phi_a, phi_b = Reparametrization(m), Reparametrization(m)
            dp_update(m, phi_a, 0, 1)
            rdp_update(m, phi_b, 0, 1, 1.0)
            assert phi_a[0, 1] == pytest.approx(phi_b[0, 1])
            assert phi_a[1, 0] == pytest.approx(phi_b[1, 0])

    def test_half_push(self):
        m = edge_model([2, 0], [0, 0], [[0, 0], [0, 0]])
        phi = Reparametrization(m)
        rdp_update(m, phi, 0, 1, 0.5)
        # half of (2,0) moved forward, min-push returns the zero row minima
        assert phi[0, 1] == pytest.approx([1.0, 0.0])
        assert unary_costs(m, phi, 0) == pytest.approx([1.0, 0.0])

    def test_r_out_of_range_rejected(self):
        m = edge_model([1, 0], [0, 0], [[0, 1], [1, 0]])
        phi = Reparametrization(m)
        with pytest.raises(ValueError):
            rdp_update(m, phi, 0, 1, 1.5)
        with pytest.raises(ValueError):
            rdp_update(m, phi, 0, 1, -0.1)


def test_all_updates_preserve_feasibility():
    rng = np.random.default_rng(20)
    for _ in range(30):
        m = random_model(rng, n_nodes=4, edge_prob=0.8)
        phi = Reparametrization(m)
        for (u, v) in m.edges:
            mplp_update(m, phi, u, v)
            handshake_update(m, phi, u, v)
            dp_update(m, phi, u, v)
            rdp_update(m, phi, v, u, 0.3)
            assert check_feasible(m, phi)
        before = dual_value(m, phi)
        for u in range(m.n_nodes):
            node_aggregate(m, phi, u)
            nb = m.neighbors(u)
            if nb:
                node_distribute(m, phi, u, {v: 1.0 / (len(nb) + 1)
                                            for v in nb})
        assert check_feasible(m, phi)
        assert dual_value(m, phi) >= before - 1e-9


def append_op(prog, kind, u, v, r):
    """Append an operation as listed by ``helpers.ops`` to ``prog``."""
    if kind == STAR:
        star(prog, u, r)
    elif kind == TRWS:
        trws(prog, u, v, r)
    elif kind == RDP:
        rdp(prog, u, v, r)
    else:
        add = {PUSH: push, HANDSHAKE: handshake, MPLP: mplp}
        add[kind](prog, u, v)


@pytest.mark.parametrize("method,tree_mode",
                         [(m, "static") for m in METHODS]
                         + [("tbca", "dynamic"), ("tbcapp", "dynamic")])
def test_pass_is_bit_identical_to_its_ops_one_at_a_time(method, tree_mode):
    # The waves and batches of a compiled pass leave the buffer, phi and
    # the kept theta^phi, bit for bit as its operations do when each runs
    # in a wave of its own, in program order; with a small cap theta^phi
    # is updated by the operations, not derived afresh.
    rng = np.random.default_rng(30)
    for model in models(1) + models(2) + models(1, cap=5.0):
        prog = _Run(model, SolverConfig(method, tree_mode=tree_mode)).program()
        assert_bit_identical_to_one_at_a_time(prog, model, rng)


def assert_bit_identical_to_one_at_a_time(prog, model, rng):
    phi = random_phi(rng, model, scale=2.0)
    ref = phi.copy()
    prog.run(phi)
    one = Program(model)
    for op in ops(prog):
        append_op(one, *op)
    one._level = lambda layout, n_layouts: array("q", range(len(ops(prog))))
    one.run(ref)
    assert np.array_equal(phi.buffer, ref.buffer)


def path_model(rng, n, labels=3):
    edges = [(i, i + 1) for i in range(n - 1)]
    return GraphicalModel([labels] * n, edges,
                          [rng.uniform(0, 2, labels) for _ in range(n)],
                          [rng.uniform(0, 2, (labels, labels))
                           for _ in edges])


@pytest.mark.parametrize("kind", [RDP, HANDSHAKE])
def test_square_tables_batch_both_orientations_together(kind):
    # Edge operations on square tables with alternating orientations: one
    # batch per wave, bit for bit as one operation at a time.
    rng = np.random.default_rng(32)
    model = path_model(rng, 13)
    prog = Program(model)
    for parity in (0, 1):
        for i in range(parity, 12, 2):
            u, v = (i, i + 1) if (i // 2) % 2 == 0 else (i + 1, i)
            if kind == RDP:
                rdp(prog, u, v, 0.25 + 0.75 * (i % 3 == 0))
            else:
                handshake(prog, u, v)
    assert max(waves(prog)) + 1 == 2
    assert batch_count(prog) == 2
    assert_bit_identical_to_one_at_a_time(prog, model, rng)


def slack_model(rng, cap):
    """Chains of 8, 3 and 5 nodes and a tree in which nodes 16 and 17 have
    three children each; 2 to 4 labels per node, so that tables come in
    several shapes and both orientations, and ``cap`` in 20% of the cells.
    Returns the model, the chains' blocks and the tree's block."""
    chains = [range(0, 8), range(8, 11), range(11, 16)]
    tree = [(16, 17), (16, 18), (16, 19), (17, 20), (17, 21), (17, 22),
            (18, 23)]
    edges = [(a, b) for c in chains for a, b in zip(c, c[1:])] + tree
    labels = [2 + u % 2 + (u % 3 == 0) for u in range(24)]

    def table(shape):
        t = rng.uniform(0.0, 2.0, shape)
        t[rng.random(shape) < 0.2] = cap
        return t

    model = GraphicalModel(labels, edges, [table(k) for k in labels],
                           [table((labels[u], labels[v])) for u, v in edges])
    return (model, [blk.chain_block(model, c) for c in chains],
            blk.tree_block(model, tree))


@pytest.mark.parametrize("cap", [COST_CAP, 5.0], ids=["exact", "deltas"])
def test_packing_saves_batches_where_operations_have_slack(cap):
    # HM over chains of unequal length in one pass, and TBCA++ on a tree:
    # the operations of the shorter chains and branches can wait for the
    # longer ones.  Packed, each program runs in fewer batches than in its
    # earliest waves, at the same depth, with pushes into one node sharing
    # a wave, and bit for bit as its operations one at a time.  With
    # COST_CAP cells theta^phi is derived afresh after every batch.
    rng = np.random.default_rng(34)
    model, chains, tree = slack_model(rng, cap)
    assert model._exact_excess == (cap == COST_CAP)
    for emit, blocks in ((blk.emit_hm, chains),
                         (partial(blk.emit_tbca, plus=True), [tree])):
        prog = Program(model)
        emit(prog, *blocks)
        packed, earliest = check_packing(model, prog)
        assert packed < earliest
        assert any(batch.end is not None for batch in prog._plan[0])
        assert_bit_identical_to_one_at_a_time(prog, model, rng)

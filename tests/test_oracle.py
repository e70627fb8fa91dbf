import math
import re

import numpy as np
import pytest

from dualbca.blocks import chain_block, tree_block, hm_chain, tbca_chain
from dualbca.model import GraphicalModel, Reparametrization, dual_value
from dualbca.generate import random_model, random_phi, random_tree_model
from dualbca import oracle
from dualbca.oracle import (ENUMERATION_GUARD, MinorantHypothesisError,
                            StateSpaceTooLarge, brute_force_min, chain_min,
                            check_maximal_minorant, check_minorant,
                            energy_table)
from dualbca.updates import handshake_update, mplp_update
from helpers import block_dual, dp_update, pairwise_costs


def two_node_model():
    return GraphicalModel([2, 2], [(0, 1)],
                          [np.array([1.0, 0.0]), np.zeros(2)],
                          [np.array([[0.0, 2.0], [3.0, 1.0]])])


@pytest.mark.parametrize("pair", [(0, 0), (0, 2), (2, 1)])
def test_pairwise_costs_of_a_non_edge_rejected(pair):
    with pytest.raises(ValueError, match=re.escape(
            f"({pair[0]},{pair[1]}) is not an edge")):
        oracle.pairwise_costs(two_node_model(), None, *pair)


def test_pairwise_costs_reversed_is_the_transposed_table():
    # Both orientations add phi of the canonical first endpoint first, so
    # (v, u) is the transpose of (u, v) bit for bit: with no phi, with
    # quarters throughout (exact sums), and with random phi, where the
    # order of the two additions shows in the last bits.
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = random_model(rng, n_nodes=6, max_labels=4)
        q = GraphicalModel(m.labels, m.edges, m.unary,
                           [rng.integers(0, 8, t.shape) / 4
                            for t in m.pairwise])
        quarters = Reparametrization(q)
        quarters.values[:] = rng.integers(-8, 8, q.phi_size) / 4
        phi = random_phi(rng, m)
        for e, (u, v) in enumerate(m.edges):
            for model, p in ((m, None), (q, quarters), (m, phi)):
                assert oracle.pairwise_costs(model, p, v, u).tobytes() == \
                    oracle.pairwise_costs(model, p, u, v).T.tobytes()
            forward = oracle.pairwise_costs(m, phi, u, v)
            assert forward.tobytes() == ((m.pairwise[e] + phi[u, v][:, None])
                                         + phi[v, u][None, :]).tobytes()
            assert forward.tobytes() == pairwise_costs(m, phi, u, v).tobytes()
        for u in range(m.n_nodes):
            for v in set(range(m.n_nodes)) - {u, *m.neighbors(u)}:
                with pytest.raises(ValueError, match=re.escape(
                        f"({u},{v}) is not an edge")):
                    oracle.pairwise_costs(m, phi, u, v)


class TestBruteForce:
    def test_zero_costs(self):
        m = GraphicalModel([2, 3], [(0, 1)], [np.zeros(2), np.zeros(3)],
                           [np.zeros((2, 3))])
        val, y = brute_force_min(m)
        assert val == 0.0
        assert y.tolist() == [0, 0]

    def test_two_node_example(self):
        val, y = brute_force_min(two_node_model())
        assert val == 1.0
        assert y.tolist() == [0, 0]

    def test_matches_viterbi_on_chains(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            labels = int(rng.integers(1, 4))
            edges = [(i, i + 1) for i in range(n - 1)]
            m = GraphicalModel([labels] * n, edges,
                               [rng.uniform(0, 2, labels) for _ in range(n)],
                               [rng.uniform(0, 2, (labels, labels))
                                for _ in edges])
            val, _ = brute_force_min(m)
            assert val == pytest.approx(chain_min(m, range(n)), abs=1e-9)

    def test_guard(self):
        m = GraphicalModel([100] * 5, [], [np.zeros(100)] * 5, [])
        assert math.prod(m.labels) > ENUMERATION_GUARD
        with pytest.raises(StateSpaceTooLarge):
            brute_force_min(m)

    def test_argmin_lexicographic(self):
        # two optima (0,1) and (1,0); lexicographically smaller wins
        m = GraphicalModel([2, 2], [(0, 1)], [np.zeros(2), np.zeros(2)],
                           [np.array([[1.0, 0.0], [0.0, 1.0]])])
        _, y = brute_force_min(m)
        assert y.tolist() == [0, 1]


class TestEnergyTable:
    def test_enumerates_lexicographically(self):
        m = two_node_model()
        table = energy_table(m, None)
        assert table.shape == (2, 2)
        assert table[0, 0] == 1.0  # theta_u(0)+theta_v(0)+theta_uv(0,0)

    def test_subgraph_restriction(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, n_nodes=4, edge_prob=1.1)
        sub = energy_table(m, None, nodes=[0, 1], edges=[(0, 1)])
        assert sub.shape == (m.labels[0], m.labels[1])

    def test_edge_outside_nodes_rejected(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, n_nodes=4, edge_prob=1.1)
        with pytest.raises(ValueError):
            energy_table(m, None, nodes=[0, 1], edges=[(0, 2)])


class TestCheckMinorant:
    def test_after_dp_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            edges = [(i, i + 1) for i in range(n - 1)]
            m = GraphicalModel([3] * n, edges,
                               [rng.uniform(0, 2, 3) for _ in range(n)],
                               [rng.uniform(0, 2, (3, 3)) for _ in edges])
            phi = Reparametrization(m)
            for i in range(n - 1):
                dp_update(m, phi, i, i + 1)
            assert check_minorant(m, chain_block(m, list(range(n))), phi)

    def test_hypothesis_violation_diagnosed(self):
        m = two_node_model()  # min pairwise cost is 0? [[0,2],[3,1]] -> 0
        # shift phi to make the edge minimum positive
        phi = Reparametrization(m)
        phi[0, 1] += 0.5
        with pytest.raises(MinorantHypothesisError):
            check_minorant(m, chain_block(m, [0, 1]), phi)

    def test_zero_pairwise_model(self):
        m = GraphicalModel([2, 2], [(0, 1)],
                           [np.array([1.0, 2.0]), np.array([0.5, 0.0])],
                           [np.zeros((2, 2))])
        assert check_minorant(m, chain_block(m, [0, 1]), Reparametrization(m))

    def test_cyclic_block_rejected(self):
        m = GraphicalModel([2] * 3, [(0, 1), (1, 2), (0, 2)],
                           [np.zeros(2)] * 3, [np.zeros((2, 2))] * 3)
        from dualbca.blocks import Block
        cyc = Block("tree", (0, 1, 2), ((0, 1), (1, 2), (0, 2)))
        with pytest.raises(ValueError):
            check_minorant(m, cyc, Reparametrization(m))


class TestCheckMaximalMinorant:
    def test_after_handshake(self):
        m = GraphicalModel([2, 2], [(0, 1)], [np.zeros(2), np.zeros(2)],
                           [np.array([[0.0, 2.0], [3.0, 1.0]])])
        phi = Reparametrization(m)
        handshake_update(m, phi, 0, 1)
        assert check_maximal_minorant(m, chain_block(m, [0, 1]), phi)

    def test_mplp_leaves_positive_column_minimum(self):
        m = GraphicalModel([2, 2], [(0, 1)], [np.zeros(2), np.zeros(2)],
                           [np.array([[0.0, 2.0], [3.0, 1.0]])])
        phi = Reparametrization(m)
        mplp_update(m, phi, 0, 1)
        assert not check_maximal_minorant(m, chain_block(m, [0, 1]), phi)

    def test_after_hm_chain(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            edges = [(i, i + 1) for i in range(n - 1)]
            m = GraphicalModel([3] * n, edges,
                               [rng.uniform(0, 2, 3) for _ in range(n)],
                               [rng.uniform(0, 2, (3, 3)) for _ in edges])
            phi = Reparametrization(m)
            b = chain_block(m, list(range(n)))
            hm_chain(m, phi, b)
            assert check_maximal_minorant(m, b, phi)

    def test_constructive_falsification(self):
        # Eq-style improvement: where a column minimum is positive, raising
        # phi_{v,u}(t) by it yields a strictly greater valid minorant.
        rng = np.random.default_rng(4)
        improved = 0
        for _ in range(50):
            k = int(rng.integers(2, 4))
            m = GraphicalModel([k, k], [(0, 1)],
                               [rng.uniform(0, 2, k), rng.uniform(0, 2, k)],
                               [rng.uniform(0, 2, (k, k))])
            phi = Reparametrization(m)
            mplp_update(m, phi, 0, 1)
            b = chain_block(m, [0, 1])
            if check_maximal_minorant(m, b, phi):
                continue
            before = block_dual(m, phi, b)
            lam = pairwise_costs(m, phi, 0, 1).min(axis=0)
            phi[1, 0] -= lam
            assert check_minorant(m, b, phi)
            assert block_dual(m, phi, b) >= before - 1e-9
            # the node costs strictly improved somewhere
            assert lam.max() > 1e-9
            improved += 1
        assert improved > 10


class TestTheoremBothDirections:
    def test_block_optimal_iff_minorant(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            m = random_tree_model(rng, n_nodes=5)
            b = tree_block(m, m.edges)
            # optimal state: hm/tbca on a spanning block
            phi = Reparametrization(m)
            from dualbca.blocks import hm_tree
            hm_tree(m, phi, b)
            assert check_minorant(m, b, phi)
            opt, _ = brute_force_min(m)
            assert dual_value(m, phi) == pytest.approx(opt, abs=1e-9)

    def test_non_optimal_state_fails(self):
        rng = np.random.default_rng(6)
        failures = 0
        for _ in range(30):
            n = 4
            edges = [(i, i + 1) for i in range(n - 1)]
            m = GraphicalModel([3] * n, edges,
                               [rng.uniform(0, 2, 3) for _ in range(n)],
                               [rng.uniform(1, 2, (3, 3)) for _ in edges])
            phi = Reparametrization(m)
            b = chain_block(m, list(range(n)))
            try:
                ok = check_minorant(m, b, phi)
            except MinorantHypothesisError:
                failures += 1
                continue
            if not ok:
                failures += 1
        assert failures > 20  # random un-optimized states are not minorants


def test_block_dual_matches_manual_sum():
    rng = np.random.default_rng(7)
    m = random_model(rng, n_nodes=5, edge_prob=1.1)
    phi = Reparametrization(m)
    b = tree_block(m, [(0, 1), (1, 2), (2, 3), (3, 4)])
    tbca_chain(m, phi, chain_block(m, [0, 1, 2, 3, 4]))
    total = sum(min(m.unary[u][s] - sum(phi[u, v][s] for v in m.neighbors(u))
                    for s in range(m.labels[u])) for u in b.nodes)
    total += sum(pairwise_costs(m, phi, u, v).min() for (u, v) in b.edges)
    assert block_dual(m, phi, b) == pytest.approx(total, abs=1e-9)

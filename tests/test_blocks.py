import sys

import numpy as np
import pytest

from dualbca.blocks import (Block, chain_block, emit_hm, emit_tbca, hm_chain,
                            hm_tree, tbca_chain, tbca_pp_chain, tree_block)
from dualbca.model import (GraphicalModel, Reparametrization, check_feasible,
                           dual_value)
from dualbca.generate import random_tree_model
from dualbca.oracle import (brute_force_min, chain_min,
                            check_maximal_minorant, check_minorant)
from dualbca.updates import (HANDSHAKE, PUSH, RDP, MessageCounter, Program,
                             handshake_update)
from helpers import block_dual, is_zero, ops, tbca_tree, unary_costs


def chain_model(rng, n, labels=3):
    """Path 0-1-...-(n-1) with random costs."""
    edges = [(i, i + 1) for i in range(n - 1)]
    unary = [rng.uniform(0, 2, labels) for _ in range(n)]
    pairwise = [rng.uniform(0, 2, (labels, labels)) for _ in edges]
    return GraphicalModel([labels] * n, edges, unary, pairwise)


class TestBlockConstruction:
    def test_chain_block(self):
        rng = np.random.default_rng(0)
        m = chain_model(rng, 4)
        b = chain_block(m, [0, 1, 2, 3])
        assert b.kind == "chain"
        assert b.edges == ((0, 1), (1, 2), (2, 3))

    def test_two_node_chain_is_edge(self):
        rng = np.random.default_rng(0)
        m = chain_model(rng, 3)
        assert chain_block(m, [0, 1]).kind == "edge"

    def test_chain_needs_model_edges(self):
        rng = np.random.default_rng(0)
        m = chain_model(rng, 4)
        with pytest.raises(ValueError):
            chain_block(m, [0, 2])

    @pytest.mark.parametrize("nodes", [[], [2]])
    def test_chain_needs_two_nodes(self, nodes):
        m = chain_model(np.random.default_rng(0), 4)
        with pytest.raises(ValueError, match="at least two nodes"):
            chain_block(m, nodes)

    def test_chain_revisit_rejected(self):
        rng = np.random.default_rng(0)
        m = chain_model(rng, 4)
        with pytest.raises(ValueError):
            chain_block(m, [0, 1, 0])

    def test_tree_block_cycle_rejected(self):
        m = GraphicalModel([2] * 3, [(0, 1), (1, 2), (0, 2)],
                           [np.zeros(2)] * 3, [np.zeros((2, 2))] * 3)
        with pytest.raises(ValueError, match="cycle or is disconnected"):
            tree_block(m, m.edges)

    def test_tree_block_disconnected_rejected(self):
        m = GraphicalModel([2] * 4, [(0, 1), (2, 3)],
                           [np.zeros(2)] * 4, [np.zeros((2, 2))] * 2)
        with pytest.raises(ValueError, match="cycle or is disconnected"):
            tree_block(m, m.edges)

    def test_tree_block_duplicate_edge_rejected(self):
        m = GraphicalModel([2] * 3, [(0, 1), (1, 2)],
                           [np.zeros(2)] * 3, [np.zeros((2, 2))] * 2)
        with pytest.raises(ValueError, match="duplicate edge in tree block"):
            tree_block(m, [(0, 1), (1, 2), (1, 0)])

    def test_tree_block_from_any_pairs(self):
        # Any iterable of pairs, either way round; edges keep their order.
        edges = [(0, 1), (1, 2), (1, 3), (2, 3), (4, 5)]
        m = GraphicalModel([2] * 6, edges, [np.zeros(2)] * 6,
                           [np.zeros((2, 2))] * 5)
        b = tree_block(m, zip([3, 1, 2], [1, 0, 1]))
        assert (b.nodes, b.edges) == ((0, 1, 2, 3), ((1, 3), (0, 1), (1, 2)))
        # As many edges as a tree on its nodes, but a cycle and two parts.
        with pytest.raises(ValueError, match=r"^tree block has a cycle$"):
            tree_block(m, iter([(1, 2), (2, 3), (1, 3), (4, 5)]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Block("loop", (0, 1), ((0, 1),))


class TestTbcaChain:
    def test_reaches_chain_optimum(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = chain_model(rng, n)
            phi = Reparametrization(m)
            tbca_chain(m, phi, chain_block(m, list(range(n))))
            assert dual_value(m, phi) == pytest.approx(chain_min(m, range(n)),
                                                       abs=1e-9)
            assert check_feasible(m, phi)

    def test_all_zero_costs_noop(self):
        m = GraphicalModel([2] * 3, [(0, 1), (1, 2)], [np.zeros(2)] * 3,
                           [np.zeros((2, 2))] * 2)
        phi = Reparametrization(m)
        tbca_chain(m, phi, chain_block(m, [0, 1, 2]))
        assert is_zero(phi)

    def test_message_count(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 5, 9):
            m = chain_model(rng, n)
            phi = Reparametrization(m)
            counter = MessageCounter()
            tbca_chain(m, phi, chain_block(m, list(range(n))), counter)
            assert counter.total == 2 * (n - 1)

    def test_minorant_after_update(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = chain_model(rng, 4)
            phi = Reparametrization(m)
            b = chain_block(m, [0, 1, 2, 3])
            tbca_chain(m, phi, b)
            assert check_minorant(m, b, phi)

    def test_rejects_tree_block(self):
        rng = np.random.default_rng(4)
        m = random_tree_model(rng, n_nodes=5)
        with pytest.raises(ValueError):
            tbca_chain(m, Reparametrization(m), tree_block(m, m.edges))


class TestTbcaPpChain:
    def test_maximality(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = chain_model(rng, n)
            phi = Reparametrization(m)
            b = chain_block(m, list(range(n)))
            tbca_pp_chain(m, phi, b)
            assert check_maximal_minorant(m, b, phi)
            assert dual_value(m, phi) == pytest.approx(chain_min(m, range(n)),
                                                       abs=1e-9)

    def test_dominates_plain_tbca(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = chain_model(rng, 5)
            phi_a, phi_b = Reparametrization(m), Reparametrization(m)
            b = chain_block(m, list(range(5)))
            tbca_chain(m, phi_a, b)
            tbca_pp_chain(m, phi_b, b)
            for u in range(5):
                assert np.all(unary_costs(m, phi_b, u)
                              >= unary_costs(m, phi_a, u) - 1e-9)

    def test_single_edge_matches_handshake_block(self):
        # same block dual and the same maximality certificate as a handshake
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = chain_model(rng, 2)
            b = chain_block(m, [0, 1])
            phi_a, phi_b = Reparametrization(m), Reparametrization(m)
            tbca_pp_chain(m, phi_a, b)
            handshake_update(m, phi_b, 0, 1)
            assert block_dual(m, phi_a, b) == pytest.approx(
                block_dual(m, phi_b, b), abs=1e-9)
            assert check_maximal_minorant(m, b, phi_a)


class TestHmChain:
    def test_two_nodes_is_one_handshake(self):
        rng = np.random.default_rng(8)
        m = chain_model(rng, 2)
        phi_a, phi_b = Reparametrization(m), Reparametrization(m)
        counter = MessageCounter()
        hm_chain(m, phi_a, chain_block(m, [0, 1]), counter)
        handshake_update(m, phi_b, 0, 1)
        assert counter.total == 3
        assert phi_a[0, 1] == pytest.approx(phi_b[0, 1])
        assert phi_a[1, 0] == pytest.approx(phi_b[1, 0])

    def test_chain_optimum_and_maximality(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            m = chain_model(rng, n)
            phi = Reparametrization(m)
            b = chain_block(m, list(range(n)))
            hm_chain(m, phi, b)
            assert dual_value(m, phi) == pytest.approx(chain_min(m, range(n)),
                                                       abs=1e-9)
            assert check_minorant(m, b, phi)
            assert check_maximal_minorant(m, b, phi)
            assert check_feasible(m, phi)

    @staticmethod
    def expected_messages(n, left_fresh=True, right_fresh=True):
        # independent evaluation of the recursion's message count
        if n <= 1:
            return 0
        if n == 2:
            return 3
        mid = n // 2
        total = (mid if left_fresh else 0) + (n - 1 - mid if right_fresh else 0)
        total += 3
        total += TestHmChain.expected_messages(mid, False, True)
        total += TestHmChain.expected_messages(n - mid, True, False)
        return total

    def test_message_recursion_count(self):
        rng = np.random.default_rng(10)
        for n in range(2, 13):
            m = chain_model(rng, n)
            phi = Reparametrization(m)
            counter = MessageCounter()
            hm_chain(m, phi, chain_block(m, list(range(n))), counter)
            assert counter.total == self.expected_messages(n)


def program_ops(model, emit, block, **kwargs):
    prog = Program(model)
    emit(prog, block, **kwargs)
    return ops(prog)


def ref_hm_chain(nodes, left_fresh=True, right_fresh=True):
    """The chain recursion of the hierarchical minorant, op by op: DP pushes
    from both ends to the mid edge (only from the ends an enclosing
    handshake changed), a handshake on the mid edge, then the two halves."""
    n = len(nodes)
    if n <= 1:
        return []
    if n == 2:
        return [(HANDSHAKE, nodes[0], nodes[1], 0.0)]
    mid = n // 2
    ops = []
    if left_fresh:
        ops += [(RDP, nodes[i], nodes[i + 1], 1.0) for i in range(mid)]
    if right_fresh:
        ops += [(RDP, nodes[i], nodes[i - 1], 1.0)
                for i in range(n - 1, mid, -1)]
    ops.append((HANDSHAKE, nodes[mid - 1], nodes[mid], 0.0))
    return (ops + ref_hm_chain(nodes[:mid], False, True)
            + ref_hm_chain(nodes[mid:], True, False))


def ref_tbca_chain(nodes, plus):
    """The chain TBCA schedule, op by op: DP forward to the end, then rDP
    back with r = (n - i)/n at chain position i (a push at r = 0)."""
    n = len(nodes)
    ops = [(RDP, a, b, 1.0) for a, b in zip(nodes, nodes[1:])]
    for i in range(n, 1, -1):
        u, v, r = nodes[i - 1], nodes[i - 2], (n - i) / n
        ops.append((RDP, u, v, r) if r else (PUSH, u, v, 0.0))
        if plus:
            ops.append((PUSH, v, u, 0.0))
    return ops


def test_chain_programs_match_reference_on_shuffled_chains():
    # The SSP and MMC covers hand over chains whose node ids are in no
    # particular order, with mixed label counts.
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        nodes = [int(u) for u in rng.permutation(n)]
        labels = [int(k) for k in rng.integers(1, 4, n)]
        edges = [tuple(sorted(e)) for e in zip(nodes, nodes[1:])]
        m = GraphicalModel(labels, edges, [np.zeros(k) for k in labels],
                           [np.zeros((labels[a], labels[b])) for a, b in edges])
        b = chain_block(m, nodes)
        assert program_ops(m, emit_hm, b) == ref_hm_chain(nodes)
        for plus in (False, True):
            assert program_ops(m, emit_tbca, b, plus=plus) == \
                ref_tbca_chain(nodes, plus)


class TestTreeCentroid:
    # The first handshake of the hierarchical minorant is on the edge that
    # splits the tree most evenly, next to its centroid.
    @staticmethod
    def first_handshake(model, edges):
        ops = program_ops(model, emit_hm, tree_block(model, edges))
        return next((u, v) for kind, u, v, _ in ops if kind == HANDSHAKE)

    def test_path(self):
        rng = np.random.default_rng(20)
        m = chain_model(rng, 4)
        assert self.first_handshake(m, m.edges) == (1, 2)

    def test_star(self):
        edges = [(0, 1), (0, 2), (0, 3)]
        m = GraphicalModel([2] * 4, edges, [np.zeros(2)] * 4,
                           [np.zeros((2, 2))] * 3)
        assert self.first_handshake(m, edges) == (0, 1)


class TestHmTree:
    def test_single_edge_is_handshake(self):
        rng = np.random.default_rng(11)
        m = chain_model(rng, 2)
        phi_a, phi_b = Reparametrization(m), Reparametrization(m)
        hm_tree(m, phi_a, tree_block(m, [(0, 1)]))
        handshake_update(m, phi_b, 0, 1)
        assert phi_a[0, 1] == pytest.approx(phi_b[0, 1])

    def test_star_reaches_tree_optimum(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            edges = [(0, 1), (0, 2), (0, 3)]
            m = GraphicalModel([3] * 4, edges,
                               [rng.uniform(0, 2, 3) for _ in range(4)],
                               [rng.uniform(0, 2, (3, 3)) for _ in edges])
            phi = Reparametrization(m)
            hm_tree(m, phi, tree_block(m, edges))
            opt, _ = brute_force_min(m)
            assert dual_value(m, phi) == pytest.approx(opt, abs=1e-9)

    def test_path_matches_hm_chain_dual(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            m = chain_model(rng, n)
            assert program_ops(m, emit_hm, tree_block(m, m.edges)) == \
                program_ops(m, emit_hm, chain_block(m, list(range(n))))
        # Chains of every length in one call, which share their halves.
        m = chain_model(rng, 70)
        prog = Program(m)
        emit_hm(prog, *(chain_block(m, list(range(n))) for n in range(2, 71)))
        assert ops(prog) == [op for n in range(2, 71) for op in program_ops(
            m, emit_hm, tree_block(m, m.edges[:n - 1]))]

    def test_random_trees_optimal_and_maximal(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            m = random_tree_model(rng, n_nodes=int(rng.integers(2, 9)))
            phi = Reparametrization(m)
            b = tree_block(m, m.edges)
            hm_tree(m, phi, b)
            opt, _ = brute_force_min(m)
            assert dual_value(m, phi) == pytest.approx(opt, abs=1e-9)
            assert check_minorant(m, b, phi)
            assert check_maximal_minorant(m, b, phi)
            assert check_feasible(m, phi)


    def test_star_deeper_than_recursion_limit(self):
        # Every edge of a star splits it 1 : n-1, so the update takes n-2
        # levels: n-1 pushes and a handshake at the top, then one push and
        # one handshake per level, a bare handshake at the last.
        n = sys.getrecursionlimit() + 100
        edges = [(0, v) for v in range(1, n)]
        m = GraphicalModel([2] * n, edges, [np.zeros(2)] * n,
                           [np.zeros((2, 2))] * (n - 1))
        assert len(program_ops(m, emit_hm, tree_block(m, edges))) == 3 * n - 5


class TestTbcaTree:
    def test_reaches_tree_optimum(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            m = random_tree_model(rng, n_nodes=int(rng.integers(2, 9)))
            phi = Reparametrization(m)
            b = tree_block(m, m.edges)
            tbca_tree(m, phi, b)
            opt, _ = brute_force_min(m)
            assert dual_value(m, phi) == pytest.approx(opt, abs=1e-9)
            assert check_feasible(m, phi)

    def test_plus_variant_maximal(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            m = random_tree_model(rng, n_nodes=int(rng.integers(2, 9)))
            phi = Reparametrization(m)
            b = tree_block(m, m.edges)
            tbca_tree(m, phi, b, plus=True)
            assert check_maximal_minorant(m, b, phi)

    def test_matches_chain_schedule_on_paths(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            m = chain_model(rng, n)
            for plus in (False, True):
                assert program_ops(m, emit_tbca, tree_block(m, m.edges),
                                   plus=plus) == \
                    program_ops(m, emit_tbca, chain_block(m, list(range(n))),
                                plus=plus)


def test_block_updates_never_decrease_dual_midstream():
    # apply composite updates to overlapping blocks in sequence
    rng = np.random.default_rng(18)
    for _ in range(10):
        m = chain_model(rng, 6)
        phi = Reparametrization(m)
        last = dual_value(m, phi)
        for b in (chain_block(m, [0, 1, 2]), chain_block(m, [2, 3, 4, 5]),
                  chain_block(m, [1, 2, 3])):
            hm_chain(m, phi, b)
            now = dual_value(m, phi)
            assert now >= last - 1e-9
            last = now
        assert check_feasible(m, phi)

import numpy as np
import pytest

from dualbca.covers import (BlockSchedule, compute_dynamic_forest,
                            compute_mmc_cover, compute_ssp_cover,
                            compute_static_trees, gap_scores,
                            rows_columns_cover, _csr, _spanning_forest)
from dualbca.model import GraphicalModel, Reparametrization, primal_round
from dualbca.generate import generate_instance, random_model
from dualbca.oracle import count_shortest_paths


def graph_model(n, edges, labels=2, grid_shape=None):
    return GraphicalModel([labels] * n, edges, [np.zeros(labels)] * n,
                          [np.zeros((labels, labels))] * len(edges),
                          grid_shape=grid_shape)


def complete_model(n):
    return graph_model(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def assert_partition(model, schedule):
    covered = [e for b in schedule.blocks for e in b.edges]
    assert len(covered) == len(set(covered))
    assert set(covered) == set(model.edges)


class TestMmcCover:
    def test_square_grid(self):
        m = graph_model(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        cover = compute_mmc_cover(m)
        assert [list(b.nodes) for b in cover.blocks] == [[0, 1, 3], [0, 2, 3]]

    def test_single_edge(self):
        m = graph_model(2, [(0, 1)])
        cover = compute_mmc_cover(m)
        assert [list(b.nodes) for b in cover.blocks] == [[0, 1]]

    def test_path_is_one_chain(self):
        m = graph_model(5, [(i, i + 1) for i in range(4)])
        cover = compute_mmc_cover(m)
        assert [list(b.nodes) for b in cover.blocks] == [[0, 1, 2, 3, 4]]

    def test_monotone_disjoint_exhaustive(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            m = random_model(rng, n_nodes=int(rng.integers(2, 10)),
                             edge_prob=0.5)
            cover = compute_mmc_cover(m)
            assert_partition(m, cover)
            for b in cover.blocks:
                assert list(b.nodes) == sorted(b.nodes)

    def test_respects_custom_order(self):
        m = graph_model(3, [(0, 1), (1, 2)])
        cover = compute_mmc_cover(m, order=[2, 1, 0])
        assert [list(b.nodes) for b in cover.blocks] == [[2, 1, 0]]

    def test_bad_order_rejected(self):
        m = graph_model(3, [(0, 1)])
        with pytest.raises(ValueError):
            compute_mmc_cover(m, order=[0, 0, 1])


class TestSspCover:
    def test_partition_and_strictness(self):
        rng = np.random.default_rng(1)
        for i in range(30):
            m = random_model(rng, n_nodes=int(rng.integers(2, 10)),
                             edge_prob=0.5)
            if m.n_edges == 0:
                continue
            cover = compute_ssp_cover(m, seed=i)
            assert_partition(m, cover)

    def test_chains_strict_at_extraction(self):
        # replay the cover, checking each chain against the path-count oracle
        rng = np.random.default_rng(2)
        for i in range(20):
            m = random_model(rng, n_nodes=8, edge_prob=0.4)
            if m.n_edges == 0:
                continue
            cover = compute_ssp_cover(m, seed=i)
            residual = set(m.edges)
            for b in cover.blocks:
                adj = {u: [] for u in range(m.n_nodes)}
                for (a, c) in residual:
                    adj[a].append(c)
                    adj[c].append(a)
                assert count_shortest_paths(adj, b.nodes[0], b.nodes[-1]) == 1
                residual -= set(b.edges)

    def test_complete_graph_single_edges(self):
        for n in (3, 4, 8):
            m = complete_model(n)
            cover = compute_ssp_cover(m, seed=0)
            assert all(len(b.nodes) == 2 for b in cover.blocks)
            assert_partition(m, cover)

    def test_deterministic_per_seed(self):
        m = generate_instance("sparse_grid", height=5, width=5, seed=3)
        a = compute_ssp_cover(m, seed=11)
        b = compute_ssp_cover(m, seed=11)
        assert [x.nodes for x in a.blocks] == [x.nodes for x in b.blocks]

    def test_empty_graph(self):
        m = graph_model(3, [])
        assert compute_ssp_cover(m, seed=0).blocks == ()


class TestRowsColumns:
    def test_grid(self):
        m = generate_instance("sparse_grid", height=3, width=4, seed=0)
        cover = rows_columns_cover(m)
        assert len(cover.blocks) == 3 + 4
        assert_partition(m, cover)

    def test_requires_grid(self):
        m = complete_model(4)
        with pytest.raises(ValueError):
            rows_columns_cover(m)


class TestStaticTrees:
    def test_tree_graph_single_tree(self):
        m = graph_model(4, [(0, 1), (1, 2), (1, 3)])
        cover = compute_static_trees(m)
        assert len(cover.blocks) == 1
        assert set(cover.blocks[0].edges) == set(m.edges)

    def test_cycle_needs_two_trees(self):
        m = graph_model(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        cover = compute_static_trees(m)
        assert len(cover.blocks) == 2
        assert cover.coverage == frozenset(m.edges)

    def test_complete_graph_covered(self):
        m = complete_model(4)
        cover = compute_static_trees(m)
        assert cover.coverage == frozenset(m.edges)
        for b in cover.blocks:
            assert len(b.edges) == 3

    def test_disconnected_graph(self):
        m = graph_model(5, [(0, 1), (1, 2), (3, 4)])
        cover = compute_static_trees(m)
        assert cover.coverage == frozenset(m.edges)
        assert all(len(b.edges) == len(b.nodes) - 1 for b in cover.blocks)


class TestDynamicTree:
    @staticmethod
    def dynamic_tree(m, phi, y):
        [tree] = compute_dynamic_forest(m, phi, y)
        return tree

    @staticmethod
    def gap_score(m, phi, y, tree):
        """Total gap of a tree under the dynamic-tree edge weights."""
        node_gap, edge_gap = gap_scores(m, phi, y)
        return float(sum(edge_gap[m.edge_id(u, v)] + node_gap[u] + node_gap[v]
                         for u, v in tree.edges))

    def test_zero_gap_returns_some_spanning_tree(self):
        m = complete_model(4)  # all-zero costs: every gap is 0
        phi = Reparametrization(m)
        y = primal_round(m, phi)
        tree = self.dynamic_tree(m, phi, y)
        assert len(tree.edges) == 3

    def test_contains_max_gap_edge(self):
        # raise the unary gap at node 3 by pointing y at an expensive label
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        unary = [np.zeros(2)] * 3 + [np.array([0.0, 10.0])]
        m = GraphicalModel([2] * 4, edges, unary,
                           [np.zeros((2, 2))] * len(edges))
        phi = Reparametrization(m)
        y = np.array([0, 0, 0, 1])
        tree = self.dynamic_tree(m, phi, y)
        assert any(3 in e for e in tree.edges)

    def test_dominates_random_trees(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, n_nodes=6, edge_prob=0.9, scale=3.0)
        phi = Reparametrization(m)
        y = primal_round(m, phi)
        best_score = self.gap_score(m, phi, y, self.dynamic_tree(m, phi, y))
        for _ in range(100):
            [rand_tree] = _spanning_forest(m, rng.permutation(m.n_edges))
            assert best_score >= self.gap_score(m, phi, y, rand_tree) - 1e-9

    def test_disconnected_rejected(self):
        # No spanning tree: the dynamic forest has one tree per component.
        m = graph_model(4, [(0, 1), (2, 3)])
        phi = Reparametrization(m)
        forest = compute_dynamic_forest(m, phi, primal_round(m, phi))
        assert [b.edges for b in forest] == [((0, 1),), ((2, 3),)]


class TestShortestPathCounting:
    def branched_path_graph(self):
        # 0-1-2 then two parallel two-step continuations to node 7
        edges = [(0, 1), (1, 2), (2, 3), (2, 6), (3, 7), (6, 7)]
        return {u: [] for u in range(8)}, edges

    def test_strict_and_nonstrict_endpoints(self):
        adj, edges = self.branched_path_graph()
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        assert count_shortest_paths(adj, 0, 3) == 1
        assert count_shortest_paths(adj, 0, 7) == 2

    def test_adjacent_pair(self):
        adj = {0: [1], 1: [0]}
        assert count_shortest_paths(adj, 0, 1) == 1

    def test_disconnected_zero(self):
        adj = {0: [], 1: []}
        assert count_shortest_paths(adj, 0, 1) == 0


def test_schedule_coverage_field():
    m = graph_model(3, [(0, 1), (1, 2)])
    cover = compute_mmc_cover(m)
    assert isinstance(cover, BlockSchedule)
    assert cover.coverage == frozenset(m.edges)


def test_level_bfs_matches_oracle_on_random_graphs():
    from dualbca.covers import _bfs_dist_count
    rng = np.random.default_rng(12)
    for trial in range(40):
        n = int(rng.integers(2, 14))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.uniform(0.1, 0.5)]
        # Every third graph leaves its edges between the halves out.
        if trial % 3 == 0:
            edges = [(u, v) for u, v in edges if (u < n // 2) == (v < n // 2)]
        # Half the time, mask some edges out as the SSP cover does.
        dead = {e for e in edges if trial % 2 and rng.random() < 0.3}
        live = [e for e in edges if e not in dead]
        adj = {u: [] for u in range(n)}
        for u, v in live:
            adj[u].append(v)
            adj[v].append(u)
        src = np.array([u for u, _ in edges] + [v for _, v in edges], dtype=np.int64)
        dst = np.array([v for _, v in edges] + [u for u, _ in edges], dtype=np.int64)
        indptr, indices = _csr(n, src, dst)
        alive = np.array([(min(a, b), max(a, b)) not in dead
                          for a, b in zip(src, dst)])[np.argsort(src, kind="stable")]
        # Reference distances by repeated relaxation.
        far = n + 1
        ref = np.full((n, n), far)
        np.fill_diagonal(ref, 0)
        for u, v in live:
            ref[u, v] = ref[v, u] = 1
        for k in range(n):
            ref = np.minimum(ref, ref[:, k, None] + ref[None, k, :])
        for s in range(n):
            dist, count = _bfs_dist_count(indptr, indices, s, n,
                                          alive if dead else None)
            assert dist.tolist() == [d if d < far else -1 for d in ref[s]]
            assert count.tolist() == [min(count_shortest_paths(adj, s, t), 2)
                                      for t in range(n)]

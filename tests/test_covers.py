import numpy as np
import pytest

from dualbca.covers import (BlockSchedule, compute_dynamic_forest,
                            compute_mmc_cover, compute_ssp_cover,
                            compute_static_trees, gap_scores,
                            rows_columns_cover, _bfs_live_paths,
                            _spanning_forest)
from dualbca.model import GraphicalModel, Reparametrization, primal_round
from dualbca.generate import generate_instance, random_model
from dualbca.oracle import count_shortest_paths


def graph_model(n, edges, labels=2, grid_shape=None):
    return GraphicalModel([labels] * n, edges, [np.zeros(labels)] * n,
                          [np.zeros((labels, labels))] * len(edges),
                          grid_shape=grid_shape)


def complete_model(n):
    return graph_model(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def covered(schedule):
    return {e for b in schedule.blocks for e in b.edges}


def adjacency(n, edges):
    adj = {u: [] for u in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def bfs_distances(adj, src):
    """Plain BFS distances from ``src``; unreached nodes are absent."""
    dist, queue = {src: 0}, [src]
    for u in queue:
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


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
        # Replay each cover in extraction order (chains run from their start)
        # and check every chain against the path-count oracle: the unique
        # shortest residual path, as long as the full-graph distance, to the
        # farthest strict end, lowest index on ties.
        rng = np.random.default_rng(2)
        models = [random_model(rng, n_nodes=int(rng.integers(2, 12)),
                               edge_prob=float(rng.uniform(0.15, 0.6)))
                  for _ in range(30)]
        # Two components with no edges between them.
        models += [graph_model(8, [(u, v) for u, v in random_model(
            rng, n_nodes=8, edge_prob=0.6).edges if (u < 4) == (v < 4)])
            for _ in range(5)]
        models.append(generate_instance("sparse_grid", height=6, width=6,
                                        seed=0))
        for i, m in enumerate(models):
            full = adjacency(m.n_nodes, m.edges)
            residual = set(m.edges)
            for b in compute_ssp_cover(m, seed=i).blocks:
                start, end = b.nodes[0], b.nodes[-1]
                assert set(b.edges) <= residual
                adj = adjacency(m.n_nodes, residual)
                res_dist = bfs_distances(adj, start)
                full_dist = bfs_distances(full, start)
                assert count_shortest_paths(adj, start, end) == 1
                assert len(b.edges) == res_dist[end] == full_dist[end]
                strict = [v for v in res_dist if v != start
                          and res_dist[v] == full_dist[v]
                          and count_shortest_paths(adj, start, v) == 1]
                far = max(res_dist[v] for v in strict)
                assert end == min(v for v in strict if res_dist[v] == far)
                residual -= set(b.edges)
            assert not residual

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
        assert covered(cover) == set(m.edges)

    def test_complete_graph_covered(self):
        m = complete_model(4)
        cover = compute_static_trees(m)
        assert covered(cover) == set(m.edges)
        for b in cover.blocks:
            assert len(b.edges) == 3

    def test_disconnected_graph(self):
        m = graph_model(5, [(0, 1), (1, 2), (3, 4)])
        cover = compute_static_trees(m)
        assert covered(cover) == set(m.edges)
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
    assert covered(cover) == set(m.edges)


def test_level_bfs_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(12)
    for trial in range(40):
        n = int(rng.integers(2, 14))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.uniform(0.1, 0.5)]
        # Every third graph leaves its edges between the halves out.
        if trial % 3 == 0:
            edges = [(u, v) for u, v in edges if (u < n // 2) == (v < n // 2)]
        m = graph_model(n, edges)
        # Half the time, mask some edges out as the SSP cover does.
        alive = np.array([not (trial % 2 and rng.random() < 0.3)
                          for _ in edges], dtype=bool)
        full = adjacency(n, edges)
        live = adjacency(n, [e for e, a in zip(edges, alive) if a])
        for s in range(n):
            dist, count, via = _bfs_live_paths(m, s, alive)
            full_dist = bfs_distances(full, s)
            live_dist = bfs_distances(live, s)
            for t in range(n):
                # Only full-graph shortest paths count: none where the live
                # distance exceeds the full one.
                on_full = t in live_dist and live_dist[t] == full_dist[t]
                want = min(count_shortest_paths(live, s, t), 2) if on_full else 0
                assert count[t] == want
                if dist[t] >= 0:
                    assert dist[t] == full_dist[t]
                if count[t]:
                    assert dist[t] == full_dist[t]
                if count[t] and t != s:
                    a, b = m.edges[via[t]]
                    w = a if b == t else b
                    assert t in (a, b) and alive[via[t]]
                    assert dist[w] == dist[t] - 1 and count[w] > 0
                else:
                    assert via[t] == -1
            # The BFS may stop early, but only beyond every live path.
            reach = max(full_dist[t] for t in range(n) if count[t])
            assert all(dist[t] >= 0 for t in full_dist if full_dist[t] <= reach)

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualbca.blocks import tree_block
from dualbca.covers import (BlockSchedule, compute_dynamic_forest,
                            compute_mmc_cover, compute_ssp_cover,
                            compute_static_trees, gap_scores,
                            rows_columns_cover, _bfs_live_paths,
                            _forest)
from dualbca.model import (GraphicalModel, Reparametrization, _evaluate,
                           primal_round)
from dualbca.generate import generate_instance, random_model
from dualbca.solve import SolverConfig, _Run
from helpers import count_shortest_paths, edge_id, kruskal_forest
from test_plans import capped_grid


def graph_model(n, edges, labels=2, grid_shape=None):
    return GraphicalModel([labels] * n, edges, [np.zeros(labels)] * n,
                          [np.zeros((labels, labels))] * len(edges),
                          grid_shape=grid_shape)


def complete_model(n):
    return graph_model(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def two_components():
    m = random_model(np.random.default_rng(7), n_nodes=40, edge_prob=0.15)
    return graph_model(40, [(u, v) for u, v in m.edges
                            if (u < 20) == (v < 20)])


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

    # sha256 of the JSON list of each cover's chains (seed 0), node by node
    # in chain order: the covers are pinned chain for chain, in order.
    @pytest.mark.parametrize("make, digest", [
        (lambda: graph_model(32 * 32, generate_instance(
            "sparse_grid", height=32, width=32, labels=1, seed=0).edges),
         "2e79da189bba6d924e18bf12947cafbeb9f1b7adcbb222bc66c3c31f04ea0b7d"),
        (lambda: graph_model(64 * 64, generate_instance(
            "sparse_grid", height=64, width=64, labels=1, seed=0).edges),
         "8516d79ec43f483238fd9d5d61c967cc152e9ea510903b0db1cd7961b59f73c3"),
        (lambda: generate_instance("denser", height=12, width=12, labels=2,
                                   seed=0),
         "bcb55c97eae750914c902084abfe8b258ecaf2ec8458229f4e7b8919beaab2c7"),
        (lambda: generate_instance("denser", height=12, width=12, labels=2,
                                   seed=1),
         "099efaa4d841e69dce4f6e6c1fff8b3ee412144439465105421cf6e74d4f96e0"),
        (lambda: generate_instance("denser", height=12, width=12, labels=2,
                                   seed=2),
         "ce4e9c96e27c464e59e7782e98a16f1576eaf58fb872440a15784c47dae339ef"),
        (two_components,
         "2bf5a49f871da4472b17a301de1ed4869c00963c9d396b9254803a6dd146d554"),
    ], ids=["grid32", "grid64", "denser0", "denser1", "denser2",
            "two_components"])
    def test_cover_pinned(self, make, digest):
        chains = [[int(u) for u in b.nodes]
                  for b in compute_ssp_cover(make(), seed=0).blocks]
        assert hashlib.sha256(
            json.dumps(chains).encode()).hexdigest() == digest


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


def tree_digest(blocks):
    """sha256 of the JSON list of each tree's nodes and edges, in order."""
    trees = [[[int(u) for u in b.nodes], [list(map(int, e)) for e in b.edges]]
             for b in blocks]
    return hashlib.sha256(json.dumps(trees).encode()).hexdigest()


TREE_MODELS = {
    "grid32": lambda: generate_instance("sparse_grid", height=32, width=32,
                                        labels=2, seed=0),
    "capped_grid": lambda: capped_grid(0),
    "denser0": lambda: generate_instance("denser", height=12, width=12,
                                         labels=2, seed=0),
    "denser1": lambda: generate_instance("denser", height=12, width=12,
                                         labels=2, seed=1),
    "denser2": lambda: generate_instance("denser", height=12, width=12,
                                         labels=2, seed=2),
    "k8": lambda: complete_model(8),
    "two_components": two_components,
}


class TestTreesPinned:
    """Static trees and the dynamic forest pinned tree for tree, nodes and
    edges in order, as the Kruskal forest of union-find roots built them:
    (number of trees, digest)."""

    STATIC = {
        "grid32": (2, "d0ea6ada4889753bda285ee91db960a0"
                      "60551b91f4a2258a2f60520dca1169b1"),
        "capped_grid": (2, "d0ea6ada4889753bda285ee91db960a0"
                           "60551b91f4a2258a2f60520dca1169b1"),
        "denser0": (35, "a27735a361304f7ddfd6e466d73a7d2b"
                        "390747e133945d611f52134849d72e6a"),
        "denser1": (34, "5c5dba10f91e34fd2dd1f39ea5f13294"
                        "4823160f42ceb3007f576f601e44a47b"),
        "denser2": (35, "9ec737f298f456bda916e9b09ce407a4"
                        "726b2290269adc36f78b90c96dc534bf"),
        "k8": (7, "2c8fc3b31027349577f36c829441bf59"
                  "76cf1e6e5633e90825847dc14d801e84"),
        "two_components": (6, "217d0cb1859a823b460db1fab92bc6b9"
                              "9fb74384a2806a0cf78d5fd8873bf200"),
    }
    # At the phi of uniform(-1, 1) values drawn from seed 5.
    DYNAMIC = {
        "grid32": (1, "ebaa6682c2e9c998481c7d5e3cc076ea"
                      "4d9c3df324e813335343fc52ad941fcb"),
        "capped_grid": (1, "b8d9b466d3bd2560a9c6bbca50b58f2b"
                           "b6b164b29a0e21370b1ea9844e713fe2"),
        "denser0": (1, "940a24db36d96aa4449d9294e5e3ce2c"
                       "7a1bf1508e440a6713c7ee80006f193c"),
        "denser1": (1, "05ea307bf75389cdd3b877786ae46158"
                       "778ca40c44e6a8ef6f41d4c1dbc08007"),
        "denser2": (1, "26b6cd480e5bf86d78cde886671cd84a"
                       "02109e4bff616ee26607c736883ac03f"),
        "k8": (1, "10d6ce7846799692c6c09c3deedbaa0a"
                  "0f66e5b96ec0082ec26530b1f83d4b41"),
        "two_components": (2, "39f9e700d70e8feab3eb28caa13ec6c3"
                              "c1ef58e88e9790d198b5cb3fcc416f2d"),
    }

    @pytest.mark.parametrize("name", list(TREE_MODELS))
    def test_static_trees_pinned(self, name):
        trees = compute_static_trees(TREE_MODELS[name]()).blocks
        assert (len(trees), tree_digest(trees)) == self.STATIC[name]

    @pytest.mark.parametrize("name", list(TREE_MODELS))
    def test_dynamic_forest_pinned(self, name):
        m = TREE_MODELS[name]()
        phi = Reparametrization(m)
        phi.values[:] = np.random.default_rng(5).uniform(-1, 1,
                                                         phi.values.size)
        forest = compute_dynamic_forest(m, phi, primal_round(m, phi),
                                        _evaluate(m, phi)).blocks
        assert (len(forest), tree_digest(forest)) == self.DYNAMIC[name]


@st.composite
def forest_cases(draw):
    """(model, keys): node-disjoint parts of 1-6 nodes (isolated nodes,
    one-edge components, several components), their nodes interleaved,
    each part a random subgraph, the edges in random order, with keys
    0-2 so that many tie."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    perm = draw(st.permutations(range(sum(sizes))))
    edges, at = [], 0
    for k in sizes:
        part = perm[at:at + k]
        at += k
        pairs = [(u, v) for i, u in enumerate(part) for v in part[i + 1:]]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                             max_size=len(pairs)))
        edges += [e for e, kept in zip(pairs, keep) if kept]
    edges = draw(st.permutations(edges))
    keys = draw(st.lists(st.integers(0, 2), min_size=len(edges),
                         max_size=len(edges)))
    return graph_model(len(perm), edges), keys


def kruskal_static_trees(m, by_root=False):
    """compute_static_trees by the reference Kruskal: each round's trees
    in order of their smallest node, or else of their union-find root."""
    times = [0] * m.n_edges
    trees = []
    while m.n_edges and min(times) == 0:
        forest = kruskal_forest(m.n_nodes, m.edges, times)
        for root in sorted(forest, key=lambda r: r if by_root
                           else min(map(min, forest[r]))):
            trees.append(tuple(forest[root]))
            for e in forest[root]:
                times[m.edges.index(e)] += 1
    return trees


class TestForestAgainstKruskal:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=forest_cases())
    def test_forest_is_kruskals(self, case):
        m, keys = case
        forest = _forest(m, np.array(keys, dtype=np.int64))[0]
        want = kruskal_forest(m.n_nodes, m.edges, keys).values()
        # The same trees, each with its edges in Kruskal's pick order ...
        assert sorted(b.edges for b in forest) == sorted(map(tuple, want))
        # ... in order of their smallest nodes, every node of a tree once.
        for b in forest:
            assert list(b.nodes) == sorted({u for e in b.edges for u in e})
        firsts = [b.nodes[0] for b in forest]
        assert firsts == sorted(firsts)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(case=forest_cases())
    def test_static_trees_are_kruskals(self, case):
        m, _ = case
        assert [b.edges for b in compute_static_trees(m).blocks] == \
            kruskal_static_trees(m)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=forest_cases(), data=st.data())
    def test_tree_block_checks_as_kruskal(self, case, data):
        m, _ = case
        edges = data.draw(st.lists(st.sampled_from(m.edges), unique=True)
                          if m.n_edges else st.just([]))
        nodes = sorted({u for e in edges for u in e})
        picked = sum(map(len, kruskal_forest(m.n_nodes, edges,
                                             [0] * len(edges)).values()))
        if not edges:
            message = "a tree block needs at least one edge"
        elif len(edges) != len(nodes) - 1:
            message = "tree block has a cycle or is disconnected"
        elif picked < len(edges):
            message = "tree block has a cycle"
        else:
            b = tree_block(m, [e[::-1] for e in edges])
            assert (b.kind, b.nodes, b.edges) == ("tree", tuple(nodes),
                                                  tuple(edges))
            return
        with pytest.raises(ValueError, match=f"^{message}$"):
            tree_block(m, edges)

    def test_tree_order_change_leaves_tbca_unchanged(self):
        # Components {0, 3, 5} and {1, 2, 4}, each a cycle.  Kruskal's
        # union-find roots are 5 and 4, so by root the tree of {1, 2, 4}
        # came first in every round; by smallest node it comes second.
        rng = np.random.default_rng(4)
        edges = [(0, 5), (1, 2), (2, 4), (3, 5), (1, 4), (0, 3)]
        m = GraphicalModel([3] * 6, edges,
                           [rng.uniform(0, 2, 3) for _ in range(6)],
                           [rng.uniform(0, 2, (3, 3)) for _ in edges])
        trees = compute_static_trees(m).blocks
        assert [b.edges for b in trees] == kruskal_static_trees(m)
        by_root = [tree_block(m, t)
                   for t in kruskal_static_trees(m, by_root=True)]
        assert [b.nodes for b in by_root] == [(1, 2, 4), (0, 3, 5)] * 2
        assert [b.nodes for b in trees] == [(0, 3, 5), (1, 2, 4)] * 2
        # The trees share no node, so their operations commute: a pass
        # over either order gives the same phi, bit for bit.
        for method in ("tbca", "tbcapp"):
            new, old = (_Run(m, SolverConfig(method)) for _ in range(2))
            assert new._blocks == tuple(trees)
            old._blocks = by_root
            for _ in range(3):
                new.do_pass()
                old.do_pass()
            assert np.array_equal(new.phi.values, old.phi.values)
            assert new.counter.total == old.counter.total


class TestDynamicTree:
    @staticmethod
    def dynamic_tree(m, phi, y):
        [tree] = compute_dynamic_forest(m, phi, y, _evaluate(m, phi)).blocks
        return tree

    @staticmethod
    def gap_score(m, phi, y, tree):
        """Total gap of a tree under the dynamic-tree edge weights."""
        node_gap, edge_gap = gap_scores(m, phi, y, _evaluate(m, phi))
        return float(sum(edge_gap[edge_id(m, u, v)] + node_gap[u] + node_gap[v]
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
            [rand_tree] = _forest(m, rng.permutation(m.n_edges))[0]
            assert best_score >= self.gap_score(m, phi, y, rand_tree) - 1e-9

    def test_labelings_are_checked(self):
        # A label out of range, either way, a label that is not a whole
        # number or a labeling of the wrong length is an error, as in
        # energy, not a read of another node's costs, a truncated label or
        # an IndexError from the edge tables.  Whole numbers of any dtype
        # are labels.
        m = generate_instance("sparse_grid", height=3, width=3, labels=3,
                              seed=1)
        phi = Reparametrization(m)
        ev = _evaluate(m, phi)
        y = primal_round(m, phi)
        for u, label in ((4, -1), (4, 3), (0, -1), (8, 3)):
            bad = y.copy()
            bad[u] = label
            for fn in (gap_scores, compute_dynamic_forest):
                with pytest.raises(ValueError, match="out of range"):
                    fn(m, phi, bad, ev)
        for u, label, message in ((4, 0.7, "not a whole number"),
                                  (0, 2.9, "not a whole number"),
                                  (8, 1.5, "not a whole number"),
                                  (4, np.nan, "out of range")):
            bad = y.astype(float)
            bad[u] = label
            for fn in (gap_scores, compute_dynamic_forest):
                with pytest.raises(ValueError, match=message):
                    fn(m, phi, bad, ev)
        for bad in (y[:-1], np.append(y, 0)):
            for fn in (gap_scores, compute_dynamic_forest):
                with pytest.raises(ValueError, match="one label per node"):
                    fn(m, phi, bad, ev)
        gaps = gap_scores(m, phi, y, ev)
        for whole in (y.astype(float), y.astype(np.uint8), y.tolist()):
            for got, want in zip(gap_scores(m, phi, whole, ev), gaps):
                assert np.array_equal(got, want)

    def test_disconnected_rejected(self):
        # No spanning tree: the dynamic forest has one tree per component.
        m = graph_model(4, [(0, 1), (2, 3)])
        phi = Reparametrization(m)
        forest = compute_dynamic_forest(m, phi, primal_round(m, phi),
                                        _evaluate(m, phi)).blocks
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


def test_every_builder_returns_a_block_schedule():
    m = generate_instance("sparse_grid", height=4, width=4, seed=0)
    phi = Reparametrization(m)
    built = {"mmc": compute_mmc_cover(m),
             "rows_columns": rows_columns_cover(m),
             "ssp": compute_ssp_cover(m),
             "static_trees": compute_static_trees(m),
             "dynamic_trees": compute_dynamic_forest(m, phi,
                                                     primal_round(m, phi),
                                                     _evaluate(m, phi))}
    for origin, schedule in built.items():
        assert isinstance(schedule, BlockSchedule)
        assert schedule.origin == origin
        assert isinstance(schedule.blocks, tuple) and schedule.blocks


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
            # The last level built is the first without a node that has
            # exactly one live path, or the farthest level.
            stop = int(dist.max())
            strict = [any(count[t] == 1 for t in range(n) if dist[t] == k)
                      for k in range(stop + 1)]
            assert all(strict[:-1])
            assert stop == max(full_dist.values()) or not strict[-1]
            for t in range(n):
                # Only full-graph shortest paths count: none where the live
                # distance exceeds the full one.
                on_full = t in live_dist and live_dist[t] == full_dist[t]
                want = min(count_shortest_paths(live, s, t), 2) if on_full else 0
                if t not in full_dist or full_dist[t] > stop:
                    # Beyond the stop level: unreached, and no node there
                    # has exactly one live shortest path.
                    assert dist[t] == -1 and count[t] == 0 and via[t] == -1
                    assert want != 1
                    continue
                assert dist[t] == full_dist[t]
                assert count[t] == want
                if count[t] and t != s:
                    a, b = m.edges[via[t]]
                    w = a if b == t else b
                    assert t in (a, b) and alive[via[t]]
                    assert dist[w] == dist[t] - 1 and count[w] > 0
                else:
                    assert via[t] == -1

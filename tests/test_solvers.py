import gc
import sys
import time
import weakref

import numpy as np
import pytest

from dualbca import covers, updates
from dualbca.model import (COST_CAP, GraphicalModel, _evaluate,
                           check_feasible, energy, node_costs)
from dualbca.generate import (generate_instance, random_model,
                              random_tree_model)
from dualbca.oracle import brute_force_min, chain_min
from dualbca.solve import (METHODS, SolverConfig, TraceRecord, _chain_cover,
                           _colour_classes, _Run, normalize_messages, run)
from dualbca.updates import Program
from helpers import check_greedy_classes, ops


def chain_model(rng, n, labels=3):
    edges = [(i, i + 1) for i in range(n - 1)]
    return GraphicalModel([labels] * n, edges,
                          [rng.uniform(0, 2, labels) for _ in range(n)],
                          [rng.uniform(0, 2, (labels, labels))
                           for _ in edges])


class TestSolverConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(method="bp")

    def test_needs_stopping_criterion(self):
        with pytest.raises(ValueError):
            SolverConfig(method="msd", max_passes=None)

    def test_tol_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(method="msd", tol=0.0)

    def test_tree_mode_validated(self):
        with pytest.raises(ValueError):
            SolverConfig(method="tbca", tree_mode="greedy")

    @pytest.mark.parametrize("method", METHODS)
    def test_dynamic_trees_exclude_an_explicit_cover(self, method):
        for cover in ("mmc", "rows_columns", "ssp"):
            with pytest.raises(ValueError, match="explicit cover"):
                SolverConfig(method, cover=cover, tree_mode="dynamic")
        SolverConfig(method, cover="auto", tree_mode="dynamic")

    @pytest.mark.parametrize("kwargs", [
        dict(tol=float("nan")),
        dict(max_passes=None, max_seconds=float("nan")),
        dict(max_seconds=-1.0),
        dict(max_passes=-1),
        dict(max_messages=-1),
    ] + [dict(method=m, cover="bogus") for m in METHODS] + [
        dict(seed=-1), dict(seed=1.5), dict(seed="3"),
        dict(max_passes=2.5), dict(max_messages=10.5),
        dict(max_passes=float("inf")),
    ])
    def test_bad_field_rejected(self, kwargs):
        kwargs = {"method": "msd", **kwargs}
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


    def test_whole_float_limits_and_numpy_seeds_accepted(self):
        m = chain_model(np.random.default_rng(0), 4)
        trace = run(m, SolverConfig("spam", max_passes=2.0,
                                    max_messages=1e9, seed=np.int64(3)))[2]
        assert len(trace) == 3


class TestRunBasics:
    def test_edgeless_model(self):
        m = GraphicalModel([2, 3], [], [np.array([3.0, 5.0]),
                                        np.array([1.0, 0.0, 2.0])], [])
        for method in METHODS:
            _, y, trace = run(m, SolverConfig(method=method, max_passes=2))
            assert trace[0].dual == 3.0
            assert y.tolist() == [0, 1]

    def test_empty_model_rejected(self):
        m = GraphicalModel([], [], [], [])
        with pytest.raises(ValueError):
            run(m, SolverConfig(method="msd", max_passes=1))

    def test_trace_structure(self):
        rng = np.random.default_rng(0)
        m = random_model(rng, n_nodes=5, edge_prob=0.8)
        _, _, trace = run(m, SolverConfig(method="mplppp", max_passes=4))
        assert isinstance(trace[0], TraceRecord)
        assert trace[0].pass_index == 0 and trace[0].messages == 0
        msgs = [r.messages for r in trace]
        assert msgs == sorted(msgs)

    def test_final_labeling_consistent(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, n_nodes=5, edge_prob=0.8)
        phi, y, trace = run(m, SolverConfig(method="spam", max_passes=5))
        assert trace[-1].primal_energy == pytest.approx(energy(m, y))
        assert check_feasible(m, phi)


class TestSafetyAndMonotonicity:
    @pytest.mark.parametrize("method", METHODS)
    def test_small_instances(self, method):
        rng = np.random.default_rng(hash(method) % 2**32)
        for _ in range(10):
            m = random_model(rng, n_nodes=5, edge_prob=0.6)
            opt, _ = brute_force_min(m)
            phi, _, trace = run(m, SolverConfig(method=method, max_passes=4))
            duals = [r.dual for r in trace]
            for a, b in zip(duals, duals[1:]):
                assert b >= a - 1e-9
            assert duals[-1] <= opt + 1e-9
            assert check_feasible(m, phi)

    def test_capped_grid_keeps_its_feasible_and_monotone_methods(self):
        # A 6x6x3 grid with 30% of the pairwise cells at COST_CAP; 4 of its
        # 60 edges have a whole row or column capped.  After 30 passes cmp
        # and mplp end feasible and dual-monotone, and tbcapp dual-monotone:
        # keeping theta^phi in the buffer must leave these as they are.
        base = generate_instance("sparse_grid", height=6, width=6, labels=3,
                                 seed=0)
        block = np.array(base.pairwise)
        block[np.random.default_rng(0).random(block.shape) < 0.3] = COST_CAP
        model = GraphicalModel(base.labels, base.edges, base.unary, block,
                               grid_shape=base.grid_shape)
        for method, feasible in (("cmp", True), ("mplp", True),
                                 ("tbcapp", False)):
            phi, _, trace = run(model, SolverConfig(method, max_passes=30))
            duals = [r.dual for r in trace]
            assert len(duals) == 31
            assert all(b >= a - 1e-9 for a, b in zip(duals, duals[1:]))
            assert check_feasible(model, phi) or not feasible, method


class TestExactnessOnTrees:
    @pytest.mark.parametrize("method", ["spam", "dmm"])
    def test_one_pass_on_trees(self, method):
        # SSP/MMC covers on a tree are chains; a handful of passes reaches
        # the exact optimum there only for spanning blocks, so use tbca with
        # static trees (one spanning tree) and hm_tree via the block API.
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = random_tree_model(rng, n_nodes=7)
            cfg = SolverConfig(method=method, max_passes=30)
            _, _, trace = run(m, cfg)
            opt, _ = brute_force_min(m)
            assert trace[-1].dual <= opt + 1e-9

    def test_tbca_static_exact_in_one_pass(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = random_tree_model(rng, n_nodes=7)
            _, _, trace = run(m, SolverConfig(method="tbca", max_passes=1))
            opt, _ = brute_force_min(m)
            assert trace[-1].dual == pytest.approx(opt, abs=1e-9)

    def test_mplppp_two_node_one_pass(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = random_model(rng, n_nodes=2, edge_prob=1.1)
            _, _, trace = run(m, SolverConfig(method="mplppp", max_passes=1))
            opt, _ = brute_force_min(m)
            assert trace[-1].dual == pytest.approx(opt, abs=1e-9)


class TestTrws:
    def test_single_chain_one_pass_optimum(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            m = chain_model(rng, n)
            _, _, trace = run(m, SolverConfig(method="trws", max_passes=1))
            assert trace[-1].dual == pytest.approx(chain_min(m, range(n)),
                                                   abs=1e-9)

    def test_messages_per_pass(self):
        m = generate_instance("sparse_grid", height=4, width=4, seed=0)
        _, _, trace = run(m, SolverConfig(method="trws", max_passes=3))
        for k in range(1, len(trace)):
            assert trace[k].messages - trace[k - 1].messages == 2 * m.n_edges


class TestMessageBudgets:
    def test_max_messages_stops(self):
        m = generate_instance("sparse_grid", height=4, width=4, seed=1)
        budget = 10 * m.n_edges
        _, _, trace = run(m, SolverConfig(method="trws", max_passes=10**9,
                                          max_messages=budget))
        assert trace[-2].messages < budget or len(trace) == 1
        assert trace[-1].messages <= budget + 2 * m.n_edges

    def test_convergence_stop(self):
        rng = np.random.default_rng(6)
        m = random_tree_model(rng, n_nodes=6)
        _, _, trace = run(m, SolverConfig(method="tbca", max_passes=1000,
                                          tol=1e-9))
        assert trace[-1].pass_index < 1000  # converged, did not exhaust

    def test_max_seconds_stops(self):
        m = generate_instance("sparse_grid", height=8, width=8, seed=2)
        _, _, trace = run(m, SolverConfig(method="mplppp", max_passes=10**9,
                                          max_seconds=0.2))
        assert trace[-1].wall_seconds < 5.0

    @pytest.mark.parametrize("method,cover,builder,regime", [
        pytest.param("spam", "auto", "compute_ssp_cover", "sparse_grid",
                     id="spam-ssp"),
        pytest.param("dmm", "auto", "rows_columns_cover", "sparse_grid",
                     id="dmm-rows_columns"),
        pytest.param("dmm", "auto", "compute_mmc_cover", "complete",
                     id="dmm-mmc"),
        pytest.param("tbca", "auto", "compute_static_trees", "sparse_grid",
                     id="tbca-static_trees"),
        pytest.param("tbcapp", "mmc", "compute_mmc_cover", "sparse_grid",
                     id="tbcapp-mmc"),
    ])
    def test_clock_includes_cover_build(self, monkeypatch, method, cover,
                                        builder, regime):
        # Covers and static trees are built before pass 0; their time
        # counts towards wall_seconds and max_seconds.
        build, calls = getattr(covers, builder), []

        def slow_build(*args):
            calls.append(args)
            time.sleep(0.05)
            return build(*args)

        monkeypatch.setattr(covers, builder, slow_build)
        m = generate_instance(regime, height=4, width=4, seed=0)
        _, _, trace = run(m, SolverConfig(method=method, max_passes=10,
                                          max_seconds=1e-6, cover=cover))
        assert len(calls) == 1
        assert len(trace) == 1
        assert trace[0].wall_seconds >= 0.05


class TestDeterminism:
    @pytest.mark.parametrize("method", METHODS)
    def test_identical_traces(self, method):
        m = generate_instance("denser", height=3, width=3, connectivity=0.4,
                              seed=7)
        cfg = SolverConfig(method=method, max_passes=3, seed=5)
        _, _, t1 = run(m, cfg)
        _, _, t2 = run(m, cfg)
        for a, b in zip(t1, t2):
            assert (a.pass_index, a.messages, a.dual, a.primal_energy) == \
                (b.pass_index, b.messages, b.dual, b.primal_energy)


class TestSpamVsMplppp:
    def test_complete_graph_agreement(self):
        # on complete graphs the SSP cover is all single edges, so SPAM and
        # MPLP++ perform the same updates up to edge order
        for seed in range(3):
            m = generate_instance("complete", n_nodes=8, labels=4, seed=seed)
            _, _, ta = run(m, SolverConfig(method="spam", max_passes=300,
                                           seed=seed))
            _, _, tb = run(m, SolverConfig(method="mplppp", max_passes=300))
            da, db = ta[-1].dual, tb[-1].dual
            assert abs(da - db) <= 1e-6 * max(1.0, abs(da), abs(db))


class TestBlockOrder:
    """The block order of a chain cover: single edges first, then the
    longer chains, each part by greedy colour class.  Single edges are
    visited by ((u + v) mod n, u, v), as in the edge sweeps of mplp and
    mplppp; chains longest first, ties by node tuple."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(40)
        for h, w in ((5, 7), (8, 8)):
            m = generate_instance("sparse_grid", height=h, width=w, seed=h)
            for cover in ("ssp", "mmc", "rows_columns"):
                yield m, cover
        for _ in range(8):
            m = random_model(rng, n_nodes=int(rng.integers(6, 16)),
                             edge_prob=0.35)
            for cover in ("ssp", "mmc"):
                yield m, cover

    def test_classes_share_no_node_and_order_the_schedule(self):
        for m, cover in self.cases():
            n = m.n_nodes
            for seed in range(2):
                cfg = SolverConfig("dmm", cover=cover, seed=seed)
                blocks = _chain_cover(m, cfg, cover, None).blocks
                edges = [b.nodes for b in blocks if len(b.nodes) == 2]
                chains = [b.nodes for b in blocks[len(edges):]]
                assert all(len(p) > 2 for p in chains)
                for paths, visit in (
                        (edges, lambda e: ((e[0] + e[1]) % n, e)),
                        (chains, lambda p: (-len(p), p))):
                    classes = _colour_classes(paths, sorted(
                        range(len(paths)), key=lambda i: visit(paths[i])), n)
                    assert [p for c in classes for p in c] == paths
                    check_greedy_classes(classes, visit)

    def test_cover_blocks_unchanged(self):
        build = {"ssp": lambda m: covers.compute_ssp_cover(m, 0),
                 "mmc": covers.compute_mmc_cover,
                 "rows_columns": covers.rows_columns_cover}
        for m, cover in self.cases():
            ordered = _chain_cover(m, SolverConfig("spam"), cover, None)
            raw = build[cover](m)
            assert sorted(sorted(b.edges) for b in ordered.blocks) == \
                sorted(sorted(b.edges) for b in raw.blocks)
            for b in ordered.blocks:
                assert b.nodes[0] < b.nodes[-1]
                assert b.edges == tuple(tuple(sorted(e))
                                        for e in zip(b.nodes, b.nodes[1:]))

    def test_complete_graph_spam_program_is_mplppp(self):
        for n in (3, 6, 9):
            m = generate_instance("complete", n_nodes=n, labels=3, seed=n)
            spam = _Run(m, SolverConfig("spam", seed=n)).program()
            mplppp = _Run(m, SolverConfig("mplppp")).program()
            assert ops(spam) == ops(mplppp)


class TestCustomOrderAndCovers:
    def test_node_order_validated(self):
        rng = np.random.default_rng(9)
        m = random_model(rng, n_nodes=4, edge_prob=0.9)
        cfg = SolverConfig(method="trws", max_passes=1, node_order=[0, 0, 1, 2])
        with pytest.raises(ValueError):
            run(m, cfg)

    def test_whole_float_node_order_is_the_int_order(self):
        # dmm builds its MMC cover in the node order, and trws sweeps in it:
        # an order of whole floats gives the trace of the same ints, and
        # a fraction is rejected.
        m = generate_instance("complete", n_nodes=5, labels=2, seed=0)
        order = [3, 0, 4, 1, 2]
        for method in ("dmm", "trws"):
            traces = [[(r.messages, r.dual, r.primal_energy)
                       for r in run(m, SolverConfig(
                           method, max_passes=3, node_order=o))[2]]
                      for o in (order, [float(u) for u in order])]
            assert traces[0] == traces[1]
            with pytest.raises(ValueError, match="permutation"):
                run(m, SolverConfig(method, max_passes=1,
                                    node_order=[3, 0, 4, 1, 2.5]))

    def test_explicit_cover_choice(self):
        m = generate_instance("sparse_grid", height=3, width=3, seed=3)
        for cover in ("mmc", "rows_columns", "ssp"):
            _, _, trace = run(m, SolverConfig(method="dmm", max_passes=3,
                                              cover=cover))
            duals = [r.dual for r in trace]
            assert duals[-1] >= duals[0]

    def test_dynamic_trees(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            m = random_model(rng, n_nodes=6, edge_prob=0.7)
            opt, _ = brute_force_min(m)
            phi, _, trace = run(m, SolverConfig(method="tbcapp", max_passes=5,
                                                tree_mode="dynamic"))
            assert trace[-1].dual <= opt + 1e-9
            assert check_feasible(m, phi)


def test_dynamic_run_frees_phi_without_the_cycle_collector():
    # The run hands itself to the dynamic tree family at each pass, so it
    # holds no closure over itself and its phi goes with its last reference.
    m = generate_instance("sparse_grid", height=6, width=6, labels=3, seed=0)
    gc.disable()
    try:
        state = _Run(m, SolverConfig("tbca", tree_mode="dynamic"))
        state.do_pass()
        buffer = weakref.ref(state.phi.buffer)
        del state
        assert buffer() is None
    finally:
        gc.enable()


def test_one_evaluation_per_record(monkeypatch):
    # A run of P passes makes P + 1 records, and each evaluates theta^phi
    # once: node costs and edge minima.  Each pass starts from the node
    # costs of the record before it, and a dynamic forest reads that record
    # too, so neither adds any: P + 1 node costs in all, where deriving
    # them again at the start of every pass made 2P + 1.  node_costs is
    # patched, and so is _edge_minima, in every dualbca module that binds
    # it, so that a name imported into another module is counted too (that
    # of updates, which Program.run calls); those of theta alone
    # (phi=None) are not evaluations of phi.
    calls = {"node_costs": 0, "_edge_minima": 0}

    def counted(name, fn):
        def wrapper(model, phi):
            calls[name] += phi is not None
            return fn(model, phi)
        return wrapper

    modules = [m for name, m in list(sys.modules.items())
               if name.split(".")[0] == "dualbca"]
    for module in modules:
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    m = generate_instance("sparse_grid", height=8, width=8, labels=3, seed=0)
    for mode in ("static", "dynamic"):
        for name in calls:
            calls[name] = 0
        _, _, trace = run(m, SolverConfig("tbca", tree_mode=mode,
                                          max_passes=10))
        assert len(trace) == 11
        assert calls == {"node_costs": 11, "_edge_minima": 11}


@pytest.mark.parametrize("mode", ["static", "dynamic"])
def test_a_pass_with_no_record_before_it_derives_its_costs(mode,
                                                            monkeypatch):
    # A pass drops the record's evaluation, since it changes phi, so a
    # second pass with no record between derives theta^phi afresh, and phi
    # ends byte for byte as in a run whose every pass derives it.
    m = generate_instance("sparse_grid", height=6, width=6, labels=3, seed=2)
    config = SolverConfig("tbca", tree_mode=mode, max_passes=3)
    derived = []

    def counted(model, phi):
        derived.append(phi)
        return node_costs(model, phi)

    ref, state = _Run(m, config), _Run(m, config)
    for _ in range(3):
        ref.program().run(ref.phi, ref.counter)
    monkeypatch.setattr(updates, "node_costs", counted)
    state.evaluation = _evaluate(m, state.phi)
    state.do_pass()
    assert derived == [] and state.evaluation is None
    state.do_pass()
    assert derived == [state.phi] and state.evaluation is None
    state.evaluation = _evaluate(m, state.phi)
    state.do_pass()
    assert len(derived) == 1
    assert state.phi.buffer.tobytes() == ref.phi.buffer.tobytes()


class TestNormalizeMessages:
    def test_identity_at_mean(self):
        assert normalize_messages(100, 50, 50.0) == 100.0

    def test_scaling(self):
        assert normalize_messages(100, 50, 100.0) == 200.0

    def test_zero_edges_passthrough(self):
        assert normalize_messages(7, 0, 100.0) == 7.0

    def test_order_preserving(self):
        a = normalize_messages(100, 40, 70.0)
        b = normalize_messages(200, 40, 70.0)
        assert a < b

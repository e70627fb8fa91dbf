import copy
import pickle
import re

import numpy as np
import pytest

from dualbca.model import (GraphicalModel, Reparametrization, check_feasible,
                           dual_value, energy, primal_round)
from dualbca.generate import generate_instance, random_model, random_phi
from dualbca.oracle import brute_force_min
from dualbca.solve import SolverConfig, _Run
from helpers import has_edge, pairwise_costs, unary_costs


def two_node_model():
    # theta_1=(1,0), theta_2=(0,0), theta_12=[[0,2],[3,1]]
    return GraphicalModel([2, 2], [(0, 1)],
                          [np.array([1.0, 0.0]), np.zeros(2)],
                          [np.array([[0.0, 2.0], [3.0, 1.0]])])


class TestConstruction:
    def test_basic_fields(self):
        m = two_node_model()
        assert m.n_nodes == 2
        assert m.n_edges == 1
        assert m.labels == (2, 2)
        assert m.neighbors(0) == (1,)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop at node 0"):
            GraphicalModel([2], [(0, 0)], [np.zeros(2)], [np.zeros((2, 2))])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            GraphicalModel([2, 2], [(0, 1), (1, 0)],
                           [np.zeros(2), np.zeros(2)],
                           [np.zeros((2, 2)), np.zeros((2, 2))])

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="must be non-negative"):
            GraphicalModel([2], [], [np.array([-1.0, 0.0])], [])

    def test_nonfinite_cost_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            GraphicalModel([2], [], [np.array([np.inf, 0.0])], [])

    def test_wrong_table_shape_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "pairwise table of edge (0,1) has shape (2, 2)")):
            GraphicalModel([2, 3], [(0, 1)], [np.zeros(2), np.zeros(3)],
                           [np.zeros((2, 2))])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "edge (0,2) has an endpoint out of range")):
            GraphicalModel([2, 2], [(0, 2)], [np.zeros(2), np.zeros(2)],
                           [np.zeros((2, 2))])

    @pytest.mark.parametrize("edges,message", [
        ([(0, 1), (3, 0), (2, 2), (1, 0)],
         "edge (3,0) has an endpoint out of range"),
        ([(0, 1), (2, 2), (3, 0), (1, 0)], "self-loop at node 2"),
        ([(0, 1), (1, 2), (1, 0), (2, 1)], "duplicate edge"),
        ([(0.7, 1.2)],
         "edge (0.7,1.2) has an endpoint that is not a whole number"),
        ([(0, 1), (2, 1.5), (0.5, 1)],
         "edge (2.0,1.5) has an endpoint that is not a whole number")])
    def test_first_bad_edge_decides(self, edges, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            GraphicalModel([2] * 3, edges, [np.zeros(2)] * 3,
                           [np.zeros((2, 2))] * len(edges))

    def test_first_misshaped_unary_named(self):
        with pytest.raises(ValueError, match=re.escape(
                "unary table of node 1 has shape (2,)")):
            GraphicalModel([2, 3, 2], [],
                           [np.zeros(2), np.zeros(2), np.zeros(3)], [])

    @pytest.mark.parametrize("tables,message", [
        ([np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2,))],
         "pairwise table of edge (1,2) has shape (2, 3)"),
        (np.zeros((3, 2, 2)), "pairwise table of edge (1,2) has shape (2, 2)"),
        ([np.zeros((2, 2))] * 2,
         "cost table count does not match nodes/edges")])
    def test_first_misshaped_pairwise_named(self, tables, message):
        # Edge (2, 1) is named canonically, as (1, 2).
        with pytest.raises(ValueError, match=re.escape(message)):
            GraphicalModel([2, 3, 2], [(0, 2), (2, 1), (0, 1)],
                           [np.zeros(2), np.zeros(3), np.zeros(2)], tables)

    @pytest.mark.parametrize("labels,message", [
        ([2.7, 2, 2], "label count 2.7 of node 0 is not a whole number"),
        ([2, 2, 1.5], "label count 1.5 of node 2 is not a whole number")])
    def test_fractional_label_count_rejected(self, labels, message):
        # A fraction is an error, not a count truncated towards zero.
        with pytest.raises(ValueError, match=re.escape(message)):
            GraphicalModel(labels, [(0, 1)], [np.zeros(2)] * 3,
                           [np.zeros((2, 2))])

    def test_whole_float_input_accepted(self):
        m = GraphicalModel([2.0, 3.0], np.array([[1.0, 0.0]]),
                           [np.zeros(2), np.zeros(3)], [np.zeros((2, 3))])
        assert m.labels == (2, 3) and m.edges == ((0, 1),)
        assert all(type(k) is int for k in m.labels + m.edges[0])

    @pytest.mark.parametrize("labels", [[2, 0, 2], [2, -1, 2]])
    def test_node_without_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="at least one label"):
            GraphicalModel(labels, [(0, 1)], [np.zeros(2)] * 3,
                           [np.zeros((2, 2))])

    def test_unary_table_count_checked(self):
        with pytest.raises(ValueError, match="cost table count"):
            GraphicalModel([2, 2], [(0, 1)], [np.zeros(2)],
                           [np.zeros((2, 2))])

    @staticmethod
    def grid_model(edges, grid_shape=(3, 3)):
        return GraphicalModel([2] * 9, edges, [np.zeros(2)] * 9,
                              [np.ones((2, 2))] * len(edges),
                              grid_shape=grid_shape)

    @pytest.mark.parametrize("extra,missing,message", [
        # The 3x3 grid plus two diagonals: dmm's rows/columns cover
        # would never update them.
        ([(0, 4), (4, 8)], [],
         "edge (0,4) is not an edge of grid shape (3, 3)"),
        ([(8, 4)], [(0, 1)],
         "edge (4,8) is not an edge of grid shape (3, 3)"),
        ([], [(4, 7)],
         "grid shape (3, 3) needs edge (4,7), which the model lacks"),
        ([(2, 3)], [(3, 4)], "edge (2,3) is not an edge of grid shape")])
    def test_grid_hint_must_be_the_model_edges(self, extra, missing,
                                               message):
        grid = generate_instance("sparse_grid", height=3, width=3,
                                 labels=2, seed=0)
        edges = [e for e in grid.edges if e not in missing] + extra
        with pytest.raises(ValueError, match=re.escape(message)):
            self.grid_model(edges)
        assert self.grid_model(list(grid.edges)).grid_shape == (3, 3)

    @pytest.mark.parametrize("shape", [(9, 1), (1, 9), (2, 4), (4, 3),
                                       (-3, -3), (0, 9)])
    def test_grid_hint_must_hold_the_nodes(self, shape):
        grid = generate_instance("sparse_grid", height=3, width=3,
                                 labels=2, seed=0)
        with pytest.raises(ValueError, match="grid shape|not an edge"):
            self.grid_model(list(grid.edges), shape)

    def test_generated_grids_keep_their_hint(self):
        for h, w in ((1, 1), (1, 6), (5, 1), (3, 3), (4, 7)):
            m = generate_instance("sparse_grid", height=h, width=w, seed=1)
            assert m.grid_shape == (h, w)
        assert generate_instance("denser", height=3, width=3,
                                 seed=1).grid_shape is None

    def test_adjacency_sorted(self):
        m = GraphicalModel([2] * 4, [(2, 3), (0, 3), (1, 3)],
                           [np.zeros(2)] * 4, [np.zeros((2, 2))] * 3)
        assert m.neighbors(3) == (0, 1, 2)


class TestChecks:
    @pytest.mark.parametrize("y,message", [
        ([0], "one label per node"), ([[0, 1]], "one label per node"),
        ([0, 2], "label 2 out of range for node 1"),
        ([-1, 0], "label -1 out of range for node 0"),
        ([0.7, 0], "label 0.7 of node 0 is not a whole number"),
        ([0, 1.5], "label 1.5 of node 1 is not a whole number"),
        ([np.nan, 0], "label nan out of range for node 0")])
    def test_bad_labeling_rejected(self, y, message):
        with pytest.raises(ValueError, match=message):
            energy(two_node_model(), y)

    def test_negative_feasibility_tol_rejected(self):
        m = two_node_model()
        with pytest.raises(ValueError, match="tol must be non-negative"):
            check_feasible(m, Reparametrization(m), -1e-9)


class TestPairLookup:
    # n = 4 with one edge (1, 2): keys u * 4 + v of (0, 6) and (-1, 10)
    # equal that of (1, 2), and (3, -3) that of (2, 1).
    model = GraphicalModel([2] * 4, [(1, 2)], [np.zeros(2)] * 4,
                           [np.zeros((2, 2))])

    @pytest.mark.parametrize("pair", [(0, 3), (0, 6), (-1, 10), (3, -3),
                                      (-1, 2), (2, 4)])
    def test_non_edge_raises(self, pair):
        message = re.escape(f"({pair[0]},{pair[1]}) is not an edge")
        phi = Reparametrization(self.model)
        with pytest.raises(ValueError, match=message):
            phi[pair]
        with pytest.raises(ValueError, match=message):
            self.model.incidence(*pair)
        assert not has_edge(self.model, *pair)

    def test_bulk_lookup(self):
        entry, found = self.model.lookup([1, 2, 0, -1, 3, 0],
                                         [2, 1, 6, 10, -3, 3])
        assert found.tolist() == [True, True, False, False, False, False]
        assert self.model._inc_nbr[entry[:2]].tolist() == [2, 1]
        assert self.model.incidence(1, 2) == (0, 0, 2)
        assert self.model.incidence(2, 1) == (0, 2, 0)


class TestReparametrizedCosts:
    def test_zero_phi_is_identity(self):
        m = GraphicalModel([2], [], [np.array([3.0, 5.0])], [])
        phi = Reparametrization(m)
        assert unary_costs(m, phi, 0).tolist() == [3.0, 5.0]

    def test_single_edge_unary(self):
        m = GraphicalModel([2, 2], [(0, 1)],
                           [np.array([1.0, 2.0]), np.zeros(2)],
                           [np.zeros((2, 2))])
        phi = Reparametrization(m)
        phi[0, 1] += np.array([1.0, 1.0])
        assert unary_costs(m, phi, 0).tolist() == [0.0, 1.0]

    def test_two_neighbor_unary(self):
        m = GraphicalModel([2, 2, 2], [(0, 1), (0, 2)],
                           [np.array([5.0, 5.0]), np.zeros(2), np.zeros(2)],
                           [np.zeros((2, 2)), np.zeros((2, 2))])
        phi = Reparametrization(m)
        phi[0, 1] += np.array([1.0, 0.0])
        phi[0, 2] += np.array([2.0, 0.0])
        assert unary_costs(m, phi, 0).tolist() == [2.0, 5.0]

    def test_pairwise_shift(self):
        m = two_node_model()
        phi = Reparametrization(m)
        phi[0, 1][0] = 1.0
        phi[1, 0][0] = -2.0
        assert pairwise_costs(m, phi, 0, 1)[0, 0] == -1.0

    def test_pairwise_orientation_symmetry(self):
        rng = np.random.default_rng(0)
        m = random_model(rng, n_nodes=4)
        phi = random_phi(rng, m)
        for (u, v) in m.edges:
            assert np.array_equal(pairwise_costs(m, phi, u, v),
                                  pairwise_costs(m, phi, v, u).T)

    def test_out_of_range_label_rejected(self):
        m = two_node_model()
        phi = Reparametrization(m)
        with pytest.raises((ValueError, IndexError)):
            unary_costs(m, phi, 0)[5]


class TestEnergy:
    def test_zero_costs(self):
        m = GraphicalModel([2, 2], [(0, 1)], [np.zeros(2), np.zeros(2)],
                           [np.zeros((2, 2))])
        for y in ([0, 0], [0, 1], [1, 0], [1, 1]):
            assert energy(m, y) == 0.0

    def test_hand_sum(self):
        assert energy(two_node_model(), [0, 0]) == 1.0
        # Whole numbers of any dtype are labels; a fraction is an error,
        # not a label truncated towards zero.
        for y in ([0.0, 0.0], np.zeros(2, np.uint8), [False, False]):
            assert energy(two_node_model(), y) == 1.0
        m = generate_instance("sparse_grid", height=2, width=2, labels=3,
                              seed=0)
        assert energy(m, np.array([0.0, 1.0, 2.0, 0.0])) == \
            energy(m, [0, 1, 2, 0])
        with pytest.raises(ValueError, match="not a whole number"):
            energy(m, [0.7, 1.2, 2.9, 0.0])

    def test_invariance_under_phi(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = random_model(rng, n_nodes=4)
            phi = random_phi(rng, m)
            shape = tuple(m.labels)
            for flat in range(int(np.prod(shape))):
                y = np.unravel_index(flat, shape)
                assert energy(m, y, phi) == pytest.approx(energy(m, y),
                                                          abs=1e-9)


class TestDualValue:
    def test_zero(self):
        m = GraphicalModel([2, 2], [(0, 1)], [np.zeros(2), np.zeros(2)],
                           [np.zeros((2, 2))])
        assert dual_value(m, Reparametrization(m)) == 0.0

    def test_edgeless(self):
        m = GraphicalModel([2], [], [np.array([3.0, 5.0])], [])
        assert dual_value(m, Reparametrization(m)) == 3.0

    def test_lower_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = random_model(rng, n_nodes=4)
            phi = random_phi(rng, m)
            opt, _ = brute_force_min(m)
            assert dual_value(m, phi) <= opt + 1e-9


class TestFeasibility:
    def test_zero_phi_feasible(self):
        m = two_node_model()
        assert check_feasible(m, Reparametrization(m))

    def test_overshoot_infeasible(self):
        m = two_node_model()
        phi = Reparametrization(m)
        phi[0, 1][0] = m.unary[0][0] + 1.0
        assert not check_feasible(m, phi)


class TestPrimalRound:
    def test_argmin(self):
        m = GraphicalModel([2], [], [np.array([3.0, 5.0])], [])
        assert primal_round(m, Reparametrization(m)).tolist() == [0]

    def test_tie_breaks_low(self):
        m = GraphicalModel([2], [], [np.array([2.0, 2.0])], [])
        assert primal_round(m, Reparametrization(m)).tolist() == [0]


@pytest.mark.parametrize("clone", [
    copy.deepcopy, lambda phi: pickle.loads(pickle.dumps(phi))],
    ids=["deepcopy", "pickle"])
def test_a_cloned_phi_runs_on_as_its_copy(clone):
    # phi is one buffer, of which ``values`` is a view.  A deep copy or a
    # pickle of phi mid-run is one buffer too, so a program run on it
    # leaves it byte for byte as on ``phi.copy()``, and its dual moves.
    model = generate_instance("sparse_grid", height=4, width=4, labels=3,
                              seed=0)
    state = _Run(model, SolverConfig("trws"))
    state.do_pass()
    prog = state.program()
    copies = [state.phi.copy(), clone(state.phi)]
    for phi in copies:
        for _ in range(2):
            prog.run(phi)
    assert copies[1].buffer.tobytes() == copies[0].buffer.tobytes()
    assert np.shares_memory(copies[1].values, copies[1].buffer)
    assert dual_value(model, copies[1]) == dual_value(model, copies[0]) \
        > dual_value(model, state.phi)


def test_pairwise_costs_oriented_view():
    m = two_node_model()
    phi = Reparametrization(m)
    t01 = pairwise_costs(m, phi, 0, 1)
    t10 = pairwise_costs(m, phi, 1, 0)
    assert np.array_equal(t01, t10.T)


def test_random_phi_draws_as_the_edge_loop():
    def edge_loop(rng, model, scale=1.0):
        phi = Reparametrization(model)
        for (u, v) in model.edges:
            phi[u, v] += rng.uniform(-scale, scale, model.labels[u])
            phi[v, u] += rng.uniform(-scale, scale, model.labels[v])
        return phi

    rng = np.random.default_rng(8)
    for seed in range(40):
        m = random_model(rng, n_nodes=int(rng.integers(1, 9)), max_labels=4,
                         edge_prob=float(rng.uniform(0.0, 1.0)))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(random_phi(a, m, scale=2.0).values,
                              edge_loop(b, m, scale=2.0).values)
        assert a.random() == b.random()     # the same number of draws

"""Self-check battery: theorem-derived properties run on small random
instances.  Used by the ``verify`` CLI subcommand; the test suite runs the
same properties at larger sample sizes.
"""
from __future__ import annotations

import numpy as np

from . import blocks as blk
from .blocks import chain_block, tree_block
from .covers import compute_mmc_cover, compute_ssp_cover
from .generate import random_model, random_phi, random_tree_model
from .model import (GraphicalModel, Reparametrization, check_feasible,
                    dual_value)
from .oracle import (brute_force_min, chain_min, check_maximal_minorant,
                     check_minorant, energy_table, unary_costs)
from .solve import METHODS, SolverConfig, run
from .updates import MessageCounter, handshake_update, mplp_update


def check_energy_invariance(seed, trials=50):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        model = random_model(rng, n_nodes=int(rng.integers(2, 6)))
        phi = random_phi(rng, model)
        t0 = energy_table(model, None)
        t1 = energy_table(model, phi)
        if np.abs(t0 - t1).max() > 1e-9:
            return False
    return True


def check_solver_safety(seed, trials=15, passes=3):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        model = random_model(rng, n_nodes=5)
        opt, _ = brute_force_min(model)
        for method in METHODS:
            cfg = SolverConfig(method=method, max_passes=passes, seed=0)
            phi, _, trace = run(model, cfg)
            duals = [r.dual for r in trace]
            if any(d2 < d1 - 1e-9 for d1, d2 in zip(duals, duals[1:])):
                return False
            if duals[-1] > opt + 1e-9:
                return False
            if not check_feasible(model, phi):
                return False
    return True


def check_tree_exactness(seed, trials=15):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        model = random_tree_model(rng, n_nodes=int(rng.integers(2, 8)))
        phi = Reparametrization(model)
        blk.hm_tree(model, phi, tree_block(model, model.edges))
        opt, _ = brute_force_min(model)
        if abs(dual_value(model, phi) - opt) > 1e-9:
            return False
    return True


def check_maximality(seed, trials=15):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(3, 7))
        tree = random_tree_model(rng, n_nodes=n)
        chain = _chain_model(rng, n)
        path = chain_block(chain, range(n))
        for model, block, update in (
                (tree, tree_block(tree, tree.edges), blk.hm_tree),
                (chain, path, blk.tbca_pp_chain), (chain, path, blk.hm_chain)):
            phi = Reparametrization(model)
            update(model, phi, block)
            if not check_maximal_minorant(model, block, phi):
                return False
            if not check_minorant(model, block, phi):
                return False
    return True


def _chain_model(rng, n):
    """The chain 0 - 1 - ... - (n-1), each node with 1 to 3 labels, and
    uniform random tables."""
    labels = [int(k) for k in rng.integers(1, 4, n)]
    edges = [(j, j + 1) for j in range(n - 1)]
    return GraphicalModel(
        labels, edges, [rng.uniform(0, 2, k) for k in labels],
        [rng.uniform(0, 2, (labels[a], labels[b])) for a, b in edges])


def check_handshake_dominance(seed, trials=50):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        model = random_model(rng, n_nodes=2, max_labels=4, edge_prob=1.1)
        phi_hs, phi_mp = Reparametrization(model), Reparametrization(model)
        handshake_update(model, phi_hs, 0, 1)
        mplp_update(model, phi_mp, 0, 1)
        for u in (0, 1):
            if np.any(unary_costs(model, phi_hs, u)
                      < unary_costs(model, phi_mp, u) - 1e-12):
                return False
    return True


def check_covers(seed, trials=15):
    rng = np.random.default_rng(seed)
    for i in range(trials):
        model = random_model(rng, n_nodes=int(rng.integers(3, 9)), edge_prob=0.5)
        if model.n_edges == 0:
            continue
        mmc = compute_mmc_cover(model)
        seen = []
        for c in mmc.blocks:
            if list(c.nodes) != sorted(c.nodes):
                return False
            seen.extend(c.edges)
        if len(seen) != len(set(seen)) or set(seen) != set(model.edges):
            return False
        ssp = compute_ssp_cover(model, seed=i)
        covered = [e for c in ssp.blocks for e in c.edges]
        if sorted(covered) != sorted(model.edges):
            return False
    return True


def check_message_counts(seed):
    rng = np.random.default_rng(seed)
    for n in (2, 3, 5, 8):
        model = _chain_model(rng, n)
        block = chain_block(model, range(n))
        for update, expected in ((blk.tbca_chain, 2 * (n - 1)),
                                 (blk.hm_chain, _hm_count(n))):
            counter = MessageCounter()
            update(model, Reparametrization(model), block, counter)
            if counter.total != expected:
                return False
    return True


def _hm_count(n, left_fresh=True, right_fresh=True):
    """Messages of the hierarchical minorant on an n-node chain: pushes to
    the mid edge from the fresh ends, a 3-message handshake, both halves."""
    if n <= 1:
        return 0
    if n == 2:
        return 3
    mid = n // 2
    return ((mid if left_fresh else 0) + (n - 1 - mid if right_fresh else 0)
            + 3 + _hm_count(mid, False, True) + _hm_count(n - mid, True, False))


def check_viterbi_agreement(seed, trials=20):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        model = _chain_model(rng, n)
        opt, _ = brute_force_min(model)
        if abs(chain_min(model, range(n)) - opt) > 1e-9:
            return False
    return True


ALL_CHECKS = (
    ("energy-invariance", check_energy_invariance),
    ("solver-safety", check_solver_safety),
    ("tree-exactness", check_tree_exactness),
    ("maximal-minorants", check_maximality),
    ("handshake-dominance", check_handshake_dominance),
    ("covers", check_covers),
    ("message-counts", check_message_counts),
    ("viterbi-agreement", check_viterbi_agreement),
)


def run_all(seed=0):
    ok = True
    for name, check in ALL_CHECKS:
        passed = bool(check(seed))
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}")
    return ok

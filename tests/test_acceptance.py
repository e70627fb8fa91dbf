"""Acceptance gate: one test per headline criterion, each printing a single
PASS/FAIL line with its pinned tolerance.
"""
import csv
import time

import numpy as np
import pytest

from dualbca.blocks import (chain_block, hm_chain, hm_tree, tbca_chain,
                            tbca_pp_chain, tree_block)
from dualbca.cli import main
from dualbca.covers import compute_mmc_cover, compute_ssp_cover
from dualbca.generate import random_model, random_tree_model
from dualbca.model import (GraphicalModel, Reparametrization, check_feasible,
                           dual_value)
from dualbca.oracle import (brute_force_min, check_maximal_minorant,
                            energy_table)
from dualbca.solve import METHODS, SolverConfig, run
from dualbca.updates import (MessageCounter, handshake_update, mplp_update)
from helpers import count_shortest_paths, pairwise_costs, unary_costs


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def truncated_linear_grid(seed, h=20, w=20, labels=3, unary_scale=5.0,
                          lam_lo=0.1, lam_hi=0.3):
    rng = np.random.default_rng(seed)
    edges = []
    for r in range(h):
        for c in range(w):
            u = r * w + c
            if c + 1 < w:
                edges.append((u, u + 1))
            if r + 1 < h:
                edges.append((u, u + w))
    s = np.arange(labels)
    base = np.minimum(np.abs(s[:, None] - s[None, :]),
                      max(1, labels // 2)).astype(float)
    unary = [rng.uniform(0, unary_scale, labels) for _ in range(h * w)]
    pw = [rng.uniform(lam_lo, lam_hi) * base for _ in edges]
    return GraphicalModel([labels] * (h * w), edges, unary, pw,
                          grid_shape=(h, w))


def random_phi(rng, model, scale=1.0):
    phi = Reparametrization(model)
    for (u, v) in model.edges:
        phi[u, v] += rng.uniform(-scale, scale, model.labels[u])
        phi[v, u] += rng.uniform(-scale, scale, model.labels[v])
    return phi


def test_criterion_01_energy_invariance():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        labels = [int(rng.integers(1, 5)) for _ in range(n)]
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        m = GraphicalModel(labels, edges,
                           [rng.uniform(0, 2, labels[u]) for u in range(n)],
                           [rng.uniform(0, 2, (labels[u], labels[v]))
                            for (u, v) in edges])
        phi = random_phi(rng, m)
        diff = np.abs(energy_table(m, phi) - energy_table(m, None)).max()
        worst = max(worst, float(diff))
    elapsed = time.perf_counter() - t0
    report(1, "energy invariance over 1000 models x all labelings",
           worst <= 1e-9 and elapsed < 10.0,
           f"max |E(y|th^phi)-E(y|th)| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_safety_all_methods():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(200):
        m = random_model(rng, n_nodes=4, max_labels=3, edge_prob=0.6)
        opt, _ = brute_force_min(m)
        for method in METHODS:
            for passes in (1, 3):
                phi, _, trace = run(m, SolverConfig(method=method,
                                                    max_passes=passes))
                duals = [r.dual for r in trace]
                ok &= all(b >= a - 1e-9 for a, b in zip(duals, duals[1:]))
                ok &= duals[-1] <= opt + 1e-9
                ok &= check_feasible(m, phi)
        if not ok:
            break
    report(2, "dual safety, monotonicity and feasibility for all 9 methods "
              "on 200 instances", ok)


def test_criterion_03_tree_exactness():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(100):
        m = random_tree_model(rng, n_nodes=int(rng.integers(2, 9)))
        phi = Reparametrization(m)
        hm_tree(m, phi, tree_block(m, m.edges))
        opt, _ = brute_force_min(m)
        ok &= abs(dual_value(m, phi) - opt) <= 1e-9
    report(3, "one spanning hierarchical-minorant pass is exact on 100 "
              "tree models (tol 1e-9)", ok)


def test_criterion_04_maximality():
    rng = np.random.default_rng(104)
    ok = True
    # 200 random blocks, 50 per maximality-achieving update
    for i in range(200):
        n = int(rng.integers(2, 7))
        m = random_tree_model(rng, n_nodes=n)
        phi = Reparametrization(m)
        kind = i % 4
        if kind == 0:
            block = tree_block(m, m.edges)
            hm_tree(m, phi, block)
        else:
            edges = [(j, j + 1) for j in range(n - 1)]
            m = GraphicalModel([3] * n, edges,
                               [rng.uniform(0, 2, 3) for _ in range(n)],
                               [rng.uniform(0, 2, (3, 3)) for _ in edges])
            phi = Reparametrization(m)
            block = chain_block(m, list(range(n)))
            if kind == 1:
                hm_chain(m, phi, block)
            elif kind == 2:
                tbca_pp_chain(m, phi, block)
            else:
                block = chain_block(m, [0, 1])
                handshake_update(m, phi, 0, 1)
        ok &= check_maximal_minorant(m, block, phi)
    # plain mplp and tbca_chain must violate maximality on >= 50% of
    # random non-degenerate edges
    violated_mplp = violated_tbca = trials = 0
    for _ in range(200):
        trials += 1
        m = random_model(rng, n_nodes=2, max_labels=4, edge_prob=1.1)
        phi = Reparametrization(m)
        mplp_update(m, phi, 0, 1)
        violated_mplp += not check_maximal_minorant(
            m, chain_block(m, [0, 1]), phi)
        n = 4
        edges = [(j, j + 1) for j in range(n - 1)]
        mc = GraphicalModel([3] * n, edges,
                            [rng.uniform(0, 2, 3) for _ in range(n)],
                            [rng.uniform(0, 2, (3, 3)) for _ in edges])
        phic = Reparametrization(mc)
        tbca_chain(mc, phic, chain_block(mc, list(range(n))))
        violated_tbca += not check_maximal_minorant(
            mc, chain_block(mc, list(range(n))), phic)
    ok &= violated_mplp >= trials // 2
    ok &= violated_tbca >= trials // 2
    report(4, "zero row/column minima after maximality-achieving updates on "
              "200 blocks; violated >=50% after mplp/tbca",
           ok, f"mplp violations {violated_mplp}/{trials}, "
               f"tbca violations {violated_tbca}/{trials}")


def test_criterion_05_handshake_dominance():
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(500):
        k_u = int(rng.integers(1, 5))
        k_v = int(rng.integers(1, 5))
        m = GraphicalModel([k_u, k_v], [(0, 1)],
                           [rng.uniform(0, 2, k_u), rng.uniform(0, 2, k_v)],
                           [rng.uniform(0, 2, (k_u, k_v))])
        phi_hs, phi_mp = Reparametrization(m), Reparametrization(m)
        handshake_update(m, phi_hs, 0, 1)
        mplp_update(m, phi_mp, 0, 1)
        for u in (0, 1):
            ok &= bool(np.all(unary_costs(m, phi_hs, u)
                              >= unary_costs(m, phi_mp, u) - 1e-12))
    report(5, "handshake node costs dominate MPLP node costs on 500 edges "
              "(slack 1e-12)", ok)


def test_criterion_06_handshake_invariance():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(200):
        k_u = int(rng.integers(1, 5))
        k_v = int(rng.integers(1, 5))
        m = GraphicalModel([k_u, k_v], [(0, 1)],
                           [rng.uniform(0, 2, k_u), rng.uniform(0, 2, k_v)],
                           [rng.uniform(0, 2, (k_u, k_v))])
        phi_a, phi_b = Reparametrization(m), Reparametrization(m)
        phi_b[1, 0] += rng.uniform(-3, 3, k_v)
        handshake_update(m, phi_a, 0, 1)
        handshake_update(m, phi_b, 0, 1)
        for u in (0, 1):
            worst = max(worst, float(np.abs(unary_costs(m, phi_a, u)
                                            - unary_costs(m, phi_b, u)).max()))
        worst = max(worst, float(np.abs(pairwise_costs(m, phi_a, 0, 1)
                                        - pairwise_costs(m, phi_b, 0, 1)).max()))
    report(6, "handshake output invariant to phi_vu perturbation",
           worst < 1e-9, f"max deviation {worst:.2e}")


def test_criterion_07_cover_correctness():
    rng = np.random.default_rng(107)
    ok = True
    for i in range(100):
        m = random_model(rng, n_nodes=int(rng.integers(2, 12)),
                         edge_prob=0.4)
        cover = compute_mmc_cover(m)
        seen = [e for b in cover.blocks for e in b.edges]
        ok &= len(seen) == len(set(seen)) and set(seen) == set(m.edges)
        ok &= all(list(b.nodes) == sorted(b.nodes) for b in cover.blocks)
        if m.n_edges == 0:
            continue
        # strictness at extraction: replay the residual graph
        ssp = compute_ssp_cover(m, seed=i)
        residual = set(m.edges)
        for b in ssp.blocks:
            adj = {u: [] for u in range(m.n_nodes)}
            for (a, c) in residual:
                adj[a].append(c)
                adj[c].append(a)
            ok &= count_shortest_paths(adj, b.nodes[0], b.nodes[-1]) == 1
            residual -= set(b.edges)
        ok &= not residual
    for n in range(2, 21):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = GraphicalModel([2] * n, edges, [np.zeros(2)] * n,
                           [np.zeros((2, 2))] * len(edges))
        cover = compute_ssp_cover(m, seed=n)
        ok &= all(len(b.nodes) == 2 for b in cover.blocks)
        ok &= sorted(e for b in cover.blocks for e in b.edges) == edges
    report(7, "MMC monotone/disjoint/exhaustive on 100 graphs; SSP chains "
              "strict; K_n covers are single edges", ok)


def _hm_count(n, left_fresh=True, right_fresh=True):
    if n <= 1:
        return 0
    if n == 2:
        return 3
    mid = n // 2
    return ((mid if left_fresh else 0) + (n - 1 - mid if right_fresh else 0)
            + 3 + _hm_count(mid, False, True) + _hm_count(n - mid, True, False))


def test_criterion_08_message_accounting():
    rng = np.random.default_rng(108)
    ok = True
    for n in range(2, 12):
        edges = [(j, j + 1) for j in range(n - 1)]
        m = GraphicalModel([3] * n, edges,
                           [rng.uniform(0, 2, 3) for _ in range(n)],
                           [rng.uniform(0, 2, (3, 3)) for _ in edges])
        counter = MessageCounter()
        tbca_chain(m, Reparametrization(m), chain_block(m, list(range(n))),
                   counter)
        ok &= counter.total == 2 * (n - 1)
        counter = MessageCounter()
        hm_chain(m, Reparametrization(m), chain_block(m, list(range(n))),
                 counter)
        ok &= counter.total == _hm_count(n)
    for _ in range(10):
        m = random_model(rng, n_nodes=8, edge_prob=0.5)
        _, _, trace = run(m, SolverConfig(method="trws", max_passes=3))
        for k in range(1, len(trace)):
            ok &= trace[k].messages - trace[k - 1].messages == 2 * m.n_edges
    report(8, "tbca_chain = 2(n-1) messages, hm_chain matches its recursion "
              "count, TRWS pass = 2|E|", ok)


def test_criterion_09_qualitative_ordering():
    t0 = time.perf_counter()
    wins = 0
    for seed in range(20):
        m = truncated_linear_grid(seed)
        budget = 50 * m.n_edges
        duals = {}
        for method, cover in (("dmm", "mmc"), ("trws", "auto"),
                              ("tbca", "mmc")):
            cfg = SolverConfig(method=method, max_passes=10**9,
                               max_messages=budget, cover=cover, tol=1e-15)
            _, _, trace = run(m, cfg)
            duals[method] = [r for r in trace
                             if r.messages <= budget][-1].dual
        wins += (duals["dmm"] >= duals["trws"] - 1e-9
                 and duals["trws"] >= duals["tbca"] - 1e-9)
    elapsed = time.perf_counter() - t0
    report(9, "dual(HM-on-MMC) >= dual(TRWS) >= dual(TBCA) at 50|E| messages "
              "on >=80% of 20 grid seeds",
           wins >= 16 and elapsed < 120.0,
           f"{wins}/20 seeds, {elapsed:.1f}s")


def test_criterion_10_complete_graph_agreement():
    from dualbca.generate import generate_instance
    worst = 0.0
    for seed in range(10):
        m = generate_instance("complete", n_nodes=20, labels=6, seed=seed)
        _, _, ta = run(m, SolverConfig(method="spam", max_passes=60,
                                       seed=seed, tol=1e-15))
        _, _, tb = run(m, SolverConfig(method="mplppp", max_passes=60,
                                       tol=1e-15))
        da, db = ta[-1].dual, tb[-1].dual
        worst = max(worst, abs(da - db) / max(1.0, abs(da), abs(db)))
    report(10, "SPAM and MPLP++ duals agree on 10 random K_20 instances "
               "after equal pass counts (rel tol 1e-6)",
           worst <= 1e-6, f"worst relative difference {worst:.2e}")


def test_criterion_11_cli_contract(tmp_path):
    ok = main(["verify", "--seed", "11"]) == 0
    traces = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        rc = main(["solve", "--generate", "denser:4,5,3,0.25", "--method",
                   "spam", "--max-passes", "8", "--seed", "123",
                   "--trace", str(path)])
        ok &= rc == 0
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        duals = [float(r[3]) for r in rows[1:]]
        ok &= all(b >= a - 1e-9 for a, b in zip(duals, duals[1:]))
        # wall_seconds is the one non-reproducible column; compare the rest
        traces.append([r[:5] for r in rows])
    ok &= traces[0] == traces[1]
    report(11, "verify exits 0; trace dual column monotone; identical seeds "
               "reproduce identical traces (wall clock column excluded)", ok)

"""Programs run as waves against the operations run one at a time.

Models mix label counts 1..4, include isolated nodes and put COST_CAP in
20% of the table cells.  The references are written here from the
textbook definitions of the edge and node updates, one operation at a
time, with theta^phi recomputed from theta and phi for every read.
"""
import itertools

import numpy as np
import pytest

from dualbca.generate import generate_instance, random_phi
from dualbca.model import COST_CAP, GraphicalModel, Reparametrization
from dualbca.solve import SolverConfig, _colour_classes, _Run, run
from dualbca.updates import (HANDSHAKE, MPLP, PUSH, RDP, STAR, TRWS,
                             MessageCounter, Program, _unique_rows,
                             handshake_update, mplp_update)
from helpers import (batch_count, check_greedy_classes, dp_update, message,
                     push_min_into, rdp_update)

TOL = 1e-9
MESSAGES = {RDP: 1, PUSH: 1, HANDSHAKE: 3, MPLP: 2}


def hostile_model(rng, n_nodes):
    """Mixed label counts, the last two nodes isolated, COST_CAP cells."""
    labels = [int(k) for k in rng.integers(1, 5, n_nodes)]
    edges = [(u, v) for u in range(n_nodes - 2) for v in range(u + 1, n_nodes - 2)
             if rng.random() < 0.5]

    def table(shape):
        t = rng.uniform(0.0, 2.0, shape)
        t[rng.random(shape) < 0.2] = COST_CAP
        return t

    return GraphicalModel(labels, edges, [table(k) for k in labels],
                          [table((labels[u], labels[v])) for u, v in edges])


def hostile_grid(rng, h, w):
    """A grid (long chains, many waves) with the same hostile tables."""
    labels = [int(k) for k in rng.integers(1, 5, h * w)]
    edges = [(r * w + c, r * w + c + 1) for r in range(h) for c in range(w - 1)]
    edges += [(r * w + c, (r + 1) * w + c) for r in range(h - 1) for c in range(w)]

    def table(shape):
        t = rng.uniform(0.0, 2.0, shape)
        t[rng.random(shape) < 0.2] = COST_CAP
        return t

    return GraphicalModel(labels, edges, [table(k) for k in labels],
                          [table((labels[u], labels[v])) for u, v in edges],
                          grid_shape=(h, w))


def models(seed):
    rng = np.random.default_rng(seed)
    out = [hostile_model(rng, int(rng.integers(4, 11))) for _ in range(6)]
    out.append(hostile_grid(rng, 4, 5))
    return out


# -- the textbook updates, one operation at a time ---------------------------

def ref_unary(model, phi, u):
    out = model.unary[u].copy()
    for v in model.neighbors(u):
        out -= phi[u, v]
    return out


def ref_pairwise(model, phi, u, v):
    """theta^phi_uv oriented (Y_u, Y_v), summed as (theta_ab + phi_ab) +
    phi_ba for a < b.  The order matters: next to a COST_CAP cell one ulp
    is about 1e-4, which later cancellations can leave exposed."""
    a, b = min(u, v), max(u, v)
    t = model.pairwise_table(a, b) + phi[a, b][:, None] + phi[b, a][None, :]
    return t if u == a else t.T


def ref_op(model, phi, kind, u, v, r):
    p_uv, p_vu = phi[u, v], phi[v, u]
    if kind == RDP:
        p_uv += r * ref_unary(model, phi, u)
        p_vu -= ref_pairwise(model, phi, u, v).min(axis=0)
    elif kind == PUSH:
        p_vu -= ref_pairwise(model, phi, u, v).min(axis=0)
    else:
        x_u, x_v = ref_unary(model, phi, u), ref_unary(model, phi, v)
        p_uv += x_u
        p_vu += x_v
        p_uv -= 0.5 * ref_pairwise(model, phi, u, v).min(axis=1)
        if kind == MPLP:
            p_vu -= 0.5 * ref_pairwise(model, phi, u, v).min(axis=0)
        else:
            p_vu -= ref_pairwise(model, phi, u, v).min(axis=0)
            p_uv -= ref_pairwise(model, phi, u, v).min(axis=1)
    return MESSAGES[kind]


def close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.all(np.abs(a - b) <= TOL * np.maximum(1.0, np.abs(b)))


# -- conflicts -----------------------------------------------------------------

def conflict(a, b):
    """The conflict rule: a shared edge, or one reads theta^phi_x while
    the other writes a row of x (every op writes rows of both ends)."""
    ka, ua, va, _ = a
    kb, ub, vb, _ = b
    if {ua, va} == {ub, vb}:
        return True
    reads = {RDP: lambda u, v: {u}, PUSH: lambda u, v: set(),
             HANDSHAKE: lambda u, v: {u, v}, MPLP: lambda u, v: {u, v}}
    return bool(reads[ka](ua, va) & {ub, vb} or reads[kb](ub, vb) & {ua, va})


def solver_programs(model, method, tree_mode, passes=2):
    """The programs a solver runs, pass by pass."""
    state = _Run(model, SolverConfig(method, tree_mode=tree_mode))
    for _ in range(passes):
        yield state.program()
        state.do_pass()


CASES = [("mplp", "static"), ("mplppp", "static"), ("dmm", "static"),
         ("spam", "static"), ("tbca", "static"), ("tbcapp", "static"),
         ("tbca", "dynamic"), ("tbcapp", "dynamic")]


@pytest.mark.parametrize("method,tree_mode", CASES)
def test_no_wave_holds_conflicting_ops(method, tree_mode):
    for model in models(1):
        for prog in solver_programs(model, method, tree_mode):
            ops, waves = prog.ops, prog.waves()
            assert len(waves) == len(ops)
            by_wave = {}
            for op, w in zip(ops, waves):
                by_wave.setdefault(w, []).append(op)
            for wave in by_wave.values():
                for a, b in itertools.combinations(wave, 2):
                    assert not conflict(a, b), (a, b)
            # Each op sits right after the latest earlier op it conflicts
            # with: the earliest wave the rule allows.
            for i, (op, w) in enumerate(zip(ops, waves)):
                before = [waves[j] for j in range(i) if conflict(ops[j], op)]
                assert w == (max(before) + 1 if before else 0)


@pytest.mark.parametrize("method,tree_mode", CASES)
def test_waves_match_sequential_reference(method, tree_mode):
    for seed, model in enumerate(models(2)):
        state = _Run(model, SolverConfig(method, tree_mode=tree_mode,
                                         seed=seed))
        ref = Reparametrization(model)
        ref_messages = 0
        for _ in range(3):
            for kind, u, v, r in state.program().ops:
                ref_messages += ref_op(model, ref, kind, u, v, r)
            state.do_pass()
            assert close(state.phi.values, ref.values)
            assert state.counter.total == ref_messages


def test_program_from_random_phi_and_reuse():
    # A compiled program runs again on another phi; blocks of several
    # methods share one program, in order.
    from dualbca import blocks as blk
    from dualbca.covers import compute_mmc_cover, compute_static_trees
    rng = np.random.default_rng(3)
    for model in models(3):
        if model.n_edges == 0:
            continue
        prog = Program(model)
        for b in compute_mmc_cover(model).blocks:
            blk.emit_hm(prog, b)
            blk.emit_tbca(prog, b, plus=True)
        for b in compute_static_trees(model).blocks:
            blk.emit_tbca(prog, b)
        for u, v in model.edges:
            prog.mplp(v, u)
        for _ in range(2):
            phi = random_phi(rng, model, scale=2.0)
            ref = phi.copy()
            counter = MessageCounter()
            prog.run(phi, counter)
            n = sum(ref_op(model, ref, *op) for op in prog.ops)
            assert close(phi.values, ref.values)
            assert counter.total == n


def test_program_rejects_bad_ops():
    model = models(4)[0]
    prog = Program(model)
    with pytest.raises(ValueError):
        prog.rdp(model.n_nodes - 1, model.n_nodes - 2)   # isolated nodes
    u, v = model.edges[0]
    with pytest.raises(ValueError):
        prog.rdp(u, v, 1.5)
    prog.rdp(u, v, 0.0)                 # nothing of theta^phi_u moves
    assert prog.ops == [(PUSH, u, v, 0.0)]
    empty = Program(model)
    phi = Reparametrization(model)
    counter = MessageCounter()
    empty.run(phi, counter)
    assert phi.is_zero() and counter.total == 0 and empty.waves() == []


# -- one-op adapters -------------------------------------------------------------

def adapter_cases(seed):
    rng = np.random.default_rng(seed)
    for model in models(seed):
        for u, v in model.edges:
            for a, b in ((u, v), (v, u)):
                yield rng, model, random_phi(rng, model, scale=2.0), a, b


def test_message_is_the_min_marginal():
    for _, model, phi, u, v in adapter_cases(5):
        counter = MessageCounter()
        got = message(model, phi, u, v, counter)
        want = np.array([min(model.pairwise_table(u, v)[s, t] + phi[u, v][s]
                             + phi[v, u][t] for s in range(model.labels[u]))
                         for t in range(model.labels[v])])
        assert close(got, want) and counter.total == 1


@pytest.mark.parametrize("name", ["dp", "rdp", "push", "handshake", "mplp"])
def test_adapters_match_textbook(name):
    for rng, model, phi, u, v in adapter_cases(6):
        ref = phi.copy()
        counter = MessageCounter()
        r = float(rng.uniform(0.0, 1.0))
        if name == "dp":
            dp_update(model, phi, u, v, counter)
            # Empty theta^phi_u into the edge, then its min-marginal into v.
            ref[u, v] += ref_unary(model, ref, u)
            ref[v, u] -= ref_pairwise(model, ref, u, v).min(axis=0)
            n = 1
        elif name == "rdp":
            rdp_update(model, phi, u, v, r, counter)
            ref[u, v] += r * ref_unary(model, ref, u)
            ref[v, u] -= ref_pairwise(model, ref, u, v).min(axis=0)
            n = 1
        elif name == "push":
            push_min_into(model, phi, u, v, counter)
            ref[v, u] -= ref_pairwise(model, ref, u, v).min(axis=0)
            n = 1
        elif name == "handshake":
            handshake_update(model, phi, u, v, counter)
            x_u, x_v = ref_unary(model, ref, u), ref_unary(model, ref, v)
            ref[u, v] += x_u
            ref[v, u] += x_v
            ref[u, v] -= 0.5 * ref_pairwise(model, ref, u, v).min(axis=1)
            ref[v, u] -= ref_pairwise(model, ref, u, v).min(axis=0)
            ref[u, v] -= ref_pairwise(model, ref, u, v).min(axis=1)
            n = 3
        else:
            mplp_update(model, phi, u, v, counter)
            x_u, x_v = ref_unary(model, ref, u), ref_unary(model, ref, v)
            ref[u, v] += x_u
            ref[v, u] += x_v
            ref[u, v] -= 0.5 * ref_pairwise(model, ref, u, v).min(axis=1)
            ref[v, u] -= 0.5 * ref_pairwise(model, ref, u, v).min(axis=0)
            n = 2
        assert close(phi.values, ref.values)
        assert counter.total == n


# -- node operations -------------------------------------------------------------

def ref_node_op(model, phi, kind, u, targets, r):
    """The TRW-S step or the star update at u, one edge at a time."""
    if kind == STAR:
        for v in targets:
            phi[u, v] -= ref_pairwise(model, phi, u, v).min(axis=1)
    excess = r * ref_unary(model, phi, u)
    for v in targets:
        phi[u, v] += excess
        if kind == TRWS:
            phi[v, u] -= ref_pairwise(model, phi, u, v).min(axis=0)
    return len(targets)


def ref_any_op(model, phi, kind, u, v, r):
    if kind in (TRWS, STAR):
        return ref_node_op(model, phi, kind, u, v, r)
    return ref_op(model, phi, kind, u, v, r)


def ref_trws_pass(model, phi, order):
    """Two directed sweeps; at each node one excess, then one push per
    later neighbour (the model is ``ref_trws_pass`` in test_layout.py)."""
    messages = 0
    for sweep in (order, order[::-1]):
        pos = {u: i for i, u in enumerate(sweep)}
        for u in sweep:
            nb = model.neighbors(u)
            later = [v for v in nb if pos[v] > pos[u]]
            if later:
                w = 1.0 / max(len(nb) - len(later), len(later))
                messages += ref_node_op(model, phi, TRWS, u, later, w)
    return messages


def ref_star_pass(model, phi, method):
    """msd / cmp: aggregate then distribute at every node in index order."""
    messages = 0
    for u in range(model.n_nodes):
        nb = model.neighbors(u)
        if nb:
            w = 1.0 / len(nb) if method == "msd" else 1.0 / (len(nb) + 1)
            messages += ref_node_op(model, phi, STAR, u, nb, w)
    return messages


def footprint(model, op):
    """(edges touched, nodes whose theta^phi is read, nodes a row of which
    is written) of an operation, as the levelling rule counts them."""
    kind, u, v, _ = op
    if kind in (TRWS, STAR):
        edges = {frozenset((u, x)) for x in model.neighbors(u)}
        return edges, {u}, {u} | (set(v) if kind == TRWS else set())
    reads = {RDP: {u}, PUSH: set()}.get(kind, {u, v})
    return {frozenset((u, v))}, reads, {u, v}


def conflict_any(model, a, b):
    ea, ra, wa = footprint(model, a)
    eb, rb, wb = footprint(model, b)
    return bool(ea & eb or ra & wb or rb & wa)


def node_orders(model):
    rng = np.random.default_rng(model.n_nodes)
    return [None, [int(u) for u in rng.permutation(model.n_nodes)],
            list(range(model.n_nodes))[::-1]]


NODE_CASES = [(m, k) for m in ("trws", "msd", "cmp") for k in range(3)]


@pytest.mark.parametrize("method,k", NODE_CASES)
def test_node_waves_hold_no_adjacent_ops(method, k):
    for model in models(1):
        order = node_orders(model)[k]
        state = _Run(model, SolverConfig(method, node_order=order))
        prog = state.program()
        ops, waves = prog.ops, prog.waves()
        assert len(waves) == len(ops)
        for (a, wa), (b, wb) in itertools.combinations(zip(ops, waves), 2):
            if wa == wb:
                assert a[1] != b[1] and not model.has_edge(a[1], b[1])
        for i, (op, w) in enumerate(zip(ops, waves)):
            before = [waves[j] for j in range(i)
                      if conflict_any(model, ops[j], op)]
            assert w == (max(before) + 1 if before else 0)


def test_grid_waves_are_anti_diagonals():
    h, w = 5, 7
    model = hostile_grid(np.random.default_rng(8), h, w)
    star = _Run(model, SolverConfig("msd")).program()
    assert [u for _, u, _, _ in star.ops] == list(range(h * w))
    assert star.waves() == [u // w + u % w for u in range(h * w)]
    assert max(star.waves()) + 1 == h + w - 1
    # A TRW-S sweep visits the same anti-diagonals, but the last node has
    # no later neighbour and takes no step: h + w - 2 waves per sweep.
    trws = _Run(model, SolverConfig("trws")).program()
    nodes = [u for _, u, _, _ in trws.ops]
    assert nodes == list(range(h * w - 1)) + list(range(h * w - 1, 0, -1))
    forward = [u // w + u % w for u in range(h * w - 1)]
    backward = [2 * (h + w - 2) - 1 - (u // w + u % w - 1)
                for u in range(h * w - 1, 0, -1)]
    assert trws.waves() == forward + backward
    assert max(trws.waves()) + 1 == 2 * (h + w - 2)


@pytest.mark.parametrize("method,k", NODE_CASES)
def test_node_waves_match_sequential_reference(method, k):
    for seed, model in enumerate(models(2)):
        order = node_orders(model)[k]
        state = _Run(model, SolverConfig(method, node_order=order, seed=seed))
        ref = Reparametrization(model)
        ref_messages = 0
        for _ in range(3):
            if method == "trws":
                ref_messages += ref_trws_pass(
                    model, ref, order or list(range(model.n_nodes)))
            else:
                ref_messages += ref_star_pass(model, ref, method)
            state.do_pass()
            assert close(state.phi.values, ref.values)
            assert state.counter.total == ref_messages


def test_mixed_program_reruns_on_random_phi():
    rng = np.random.default_rng(9)
    for model in models(9):
        if model.n_edges == 0:
            continue
        prog = Program(model)
        nodes = [u for u in range(model.n_nodes) if model.neighbors(u)]
        for u in nodes:
            nb = model.neighbors(u)
            prog.star(u, 1.0 / (len(nb) + 1))
            later = [v for v in nb if rng.random() < 0.6] or [nb[0]]
            prog.trws(u, later, 1.0 / max(len(nb) - len(later), len(later)))
        for u, v in model.edges:
            prog.rdp(v, u, 0.5)
            prog.handshake(u, v)
        for u in nodes[::-1]:
            prog.trws(u, model.neighbors(u)[::-1], 0.5 / len(model.neighbors(u)))
            prog.push(model.neighbors(u)[0], u)
        ops = prog.ops
        waves = prog.waves()
        for i, (op, w) in enumerate(zip(ops, waves)):
            before = [waves[j] for j in range(i)
                      if conflict_any(model, ops[j], op)]
            assert w == (max(before) + 1 if before else 0)
        for _ in range(2):
            phi = random_phi(rng, model, scale=2.0)
            ref = phi.copy()
            counter = MessageCounter()
            prog.run(phi, counter)
            n = sum(ref_any_op(model, ref, *op) for op in ops)
            assert close(phi.values, ref.values)
            assert counter.total == n


def test_node_ops_reject_bad_targets_and_weights():
    model = models(4)[0]
    prog = Program(model)
    isolated = model.n_nodes - 1
    u = model.edges[0][0]
    nb = model.neighbors(u)
    non_neighbour = next(x for x in range(model.n_nodes)
                         if x != u and x not in nb)
    with pytest.raises(ValueError):
        prog.star(isolated, 0.5)
    with pytest.raises(ValueError):
        prog.trws(u, [], 0.5)
    with pytest.raises(ValueError):
        prog.trws(u, [non_neighbour], 0.5)
    with pytest.raises(ValueError):
        prog.trws(u, [nb[0], nb[0]], 0.5)
    with pytest.raises(ValueError):
        prog.trws(u, nb, 1.0 / len(nb) + 1e-6)
    with pytest.raises(ValueError):
        prog.star(u, -0.1)
    with pytest.raises(ValueError):
        prog.star(-1, 0.1)
    assert prog.ops == []
    prog.star(u, 1.0 / len(nb))
    prog.trws(u, nb[:1], 1.0)
    assert prog.ops == [(STAR, u, nb, 1.0 / len(nb)), (TRWS, u, nb[:1], 1.0)]


@pytest.mark.parametrize("method", ["msd", "cmp", "trws", "mplp", "mplppp",
                                    "dmm", "tbca", "tbcapp", "spam"])
def test_zero_pass_runs_compile_no_program(method, monkeypatch):
    def refuse(self):
        raise AssertionError("a zero-pass run compiled a program")
    monkeypatch.setattr(Program, "_compile", refuse)
    monkeypatch.setattr(Program, "__init__", refuse)
    model = hostile_grid(np.random.default_rng(10), 3, 4)
    for tree_mode in ("static", "dynamic"):
        phi, _, trace = run(model, SolverConfig(method, max_passes=0,
                                                tree_mode=tree_mode))
        assert phi.is_zero() and len(trace) == 1


@pytest.mark.parametrize("method,tree_mode", [
    (m, "static") for m in ("msd", "cmp", "trws", "mplp", "mplppp", "dmm",
                            "tbca", "tbcapp", "spam")] + CASES[-2:])
def test_zero_slot_stays_zero(method, tree_mode):
    # Rows past a node's degree gather the buffer's last value, a zero
    # that no kernel writes and that phi's values leave out.  Batches that
    # mix node degrees occur on the grid and the hostile models.
    grid = generate_instance("sparse_grid", height=5, width=6, labels=3,
                             seed=4)
    for model in models(3) + [grid]:
        state = _Run(model, SolverConfig(method, tree_mode=tree_mode))
        state.do_pass()
        phi, copy = state.phi, state.phi.copy()
        assert phi.buffer[-1] == 0.0
        assert phi.values.size == model.phi_size
        assert copy.buffer.size == phi.buffer.size and copy.buffer[-1] == 0.0
        assert np.array_equal(copy.values, phi.values)


def test_chain_cover_program_shape_on_the_32x32_grid():
    # Counted, not timed: colour-class block order and orientation-free
    # batches on square tables keep the chain programs wide.
    model = generate_instance("sparse_grid", height=32, width=32, labels=8,
                              seed=0)
    shape = {}
    for method in ("spam", "dmm"):
        state = _Run(model, SolverConfig(method))
        prog = state.program()
        state.do_pass()
        shape[method] = max(prog.waves()) + 1, batch_count(prog)
    assert shape["spam"][0] <= 300 and shape["spam"][1] <= 600
    assert shape["dmm"][1] <= 110


def test_edge_sweep_program_shape():
    # Counted, not timed: an edge sweep goes one greedy colour class, a
    # matching, per wave.
    def shape(model, method):
        state = _Run(model, SolverConfig(method))
        prog = state.program()
        state.do_pass()
        return prog, max(prog.waves()) + 1, batch_count(prog)

    def check_order(model, prog):
        n = model.n_nodes
        visit = lambda e: ((e[0] + e[1]) % n, e)
        classes = _colour_classes(model.edges, visit)
        assert [(u, v) for _, u, v, _ in prog.ops] == \
            [e for c in classes for e in c]
        check_greedy_classes(classes, visit)

    for n in range(3, 13):
        model = generate_instance("complete", n_nodes=n, labels=3, seed=n)
        for method in ("mplp", "mplppp", "spam"):
            prog, waves, batches = shape(model, method)
            assert waves <= n and batches == waves, (n, method)
            check_order(model, prog)
    model = generate_instance("sparse_grid", height=32, width=32, labels=8,
                              seed=0)
    for method in ("mplp", "mplppp"):
        prog, waves, _ = shape(model, method)
        assert waves == 4
        check_order(model, prog)
    assert shape(model, "spam")[1:] == (268, 513)


def test_unique_rows_packed_and_unpacked():
    rng = np.random.default_rng(33)
    for high in (2, 50, 2**20, 2**40):
        for cols in (1, 3, 6):
            a = rng.integers(-1, high, (200, cols))
            a[100:] = a[:100]           # duplicates
            keys, which = _unique_rows(a)
            ref, inverse = np.unique(a, axis=0, return_inverse=True)
            assert np.array_equal(keys, ref)
            assert np.array_equal(which, inverse.ravel())

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
from dualbca.model import (COST_CAP, GraphicalModel, Reparametrization,
                           node_costs)
from dualbca.solve import (METHODS, SolverConfig, _colour_classes, _Run,
                           run)
from dualbca import updates
from dualbca.updates import (HANDSHAKE, MPLP, PUSH, RDP, STAR, TRWS,
                             MessageCounter, Program, _unique_rows,
                             handshake_update, mplp_update)
import helpers
from helpers import (batch_count, check_greedy_classes, dp_update, has_edge,
                     is_zero, marginal, message, pairwise_table,
                     push_min_into, rdp_update)

TOL = 1e-9
MESSAGES = {RDP: 1, PUSH: 1, HANDSHAKE: 3, MPLP: 2}


def hostile_model(rng, n_nodes, cap=COST_CAP):
    """Mixed label counts, the last two nodes isolated, cells at ``cap``."""
    labels = [int(k) for k in rng.integers(1, 5, n_nodes)]
    edges = [(u, v) for u in range(n_nodes - 2) for v in range(u + 1, n_nodes - 2)
             if rng.random() < 0.5]

    def table(shape):
        t = rng.uniform(0.0, 2.0, shape)
        t[rng.random(shape) < 0.2] = cap
        return t

    return GraphicalModel(labels, edges, [table(k) for k in labels],
                          [table((labels[u], labels[v])) for u, v in edges])


def hostile_grid(rng, h, w, cap=COST_CAP):
    """A grid (long chains, many waves) with the same hostile tables."""
    labels = [int(k) for k in rng.integers(1, 5, h * w)]
    edges = [(r * w + c, r * w + c + 1) for r in range(h) for c in range(w - 1)]
    edges += [(r * w + c, (r + 1) * w + c) for r in range(h - 1) for c in range(w)]

    def table(shape):
        t = rng.uniform(0.0, 2.0, shape)
        t[rng.random(shape) < 0.2] = cap
        return t

    return GraphicalModel(labels, edges, [table(k) for k in labels],
                          [table((labels[u], labels[v])) for u, v in edges],
                          grid_shape=(h, w))


def models(seed, cap=COST_CAP):
    """Six hostile models and a hostile grid.  With the default ``cap``
    programs derive theta^phi afresh; with a small one they update it."""
    rng = np.random.default_rng(seed)
    out = [hostile_model(rng, int(rng.integers(4, 11)), cap)
           for _ in range(6)]
    out.append(hostile_grid(rng, 4, 5, cap))
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
    t = pairwise_table(model, a, b) + phi[a, b][:, None] + phi[b, a][None, :]
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
            ops, waves = helpers.ops(prog), helpers.waves(prog)
            assert len(waves) == len(ops)
            by_wave = {}
            for op, w in zip(ops, waves):
                by_wave.setdefault(w, []).append(op)
            for wave in by_wave.values():
                for a, b in itertools.combinations(wave, 2):
                    assert not conflict(a, b), (a, b)
            check_packing(model, prog)


@pytest.mark.parametrize("method,tree_mode", CASES)
def test_waves_match_sequential_reference(method, tree_mode):
    for seed, model in enumerate(models(2)):
        state = _Run(model, SolverConfig(method, tree_mode=tree_mode,
                                         seed=seed))
        ref = Reparametrization(model)
        ref_messages = 0
        for _ in range(3):
            for kind, u, v, r in helpers.ops(state.program()):
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
            helpers.mplp(prog, v, u)
        for _ in range(2):
            phi = random_phi(rng, model, scale=2.0)
            ref = phi.copy()
            counter = MessageCounter()
            prog.run(phi, counter)
            n = sum(ref_op(model, ref, *op) for op in helpers.ops(prog))
            assert close(phi.values, ref.values)
            assert counter.total == n


def test_program_rejects_bad_ops():
    model = models(4)[0]
    prog = Program(model)
    with pytest.raises(ValueError):
        helpers.rdp(prog, model.n_nodes - 1, model.n_nodes - 2)  # isolated
    u, v = model.edges[0]
    with pytest.raises(ValueError):
        helpers.rdp(prog, u, v, 1.5)
    helpers.rdp(prog, u, v, 0.0)        # nothing of theta^phi_u moves
    assert helpers.ops(prog) == [(PUSH, u, v, 0.0)]
    empty = Program(model)
    phi = Reparametrization(model)
    counter = MessageCounter()
    empty.run(phi, counter)
    assert is_zero(phi) and counter.total == 0 and helpers.waves(empty) == []


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
        want = np.array([min(pairwise_table(model, u, v)[s, t] + phi[u, v][s]
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
    is written, nodes into which it pushes without reading their theta^phi)
    of an operation, as the levelling rule counts them."""
    kind, u, v, _ = op
    if kind in (TRWS, STAR):
        edges = {frozenset((u, x)) for x in model.neighbors(u)}
        later = set(v) if kind == TRWS else set()
        return edges, {u}, {u} | later, later
    reads = {RDP: {u}, PUSH: set()}.get(kind, {u, v})
    return {frozenset((u, v))}, reads, {u, v}, {v} - reads


def conflict_any(model, a, b):
    ea, ra, wa, _ = footprint(model, a)
    eb, rb, wb, _ = footprint(model, b)
    return bool(ea & eb or ra & wb or rb & wa)


def earliest_wave(model, ops, waves, i):
    """The wave the levelling rule allows operation i: right after the
    latest earlier operation it conflicts with, and no earlier than any
    earlier one that writes a row of a node it pushes into (additions to
    a node's theta^phi keep program order)."""
    into = footprint(model, ops[i])[3]
    w = 0
    for j in range(i):
        if conflict_any(model, ops[j], ops[i]):
            w = max(w, waves[j] + 1)
        elif into & footprint(model, ops[j])[2]:
            w = max(w, waves[j])
    return w


def check_packing(model, prog):
    """The levelling contract: every operation goes after the earlier ones
    it conflicts with, the depth is that of the earliest waves, and the
    program runs in fewer batches than in the earliest waves, or in those
    waves.  Returns the two batch counts."""
    ops, waves = helpers.ops(prog), helpers.waves(prog)
    for i, w in enumerate(waves):
        assert w >= earliest_wave(model, ops, waves, i)
    asap = []
    for i in range(len(ops)):
        asap.append(earliest_wave(model, ops, asap, i))
    assert max(waves, default=-1) == max(asap, default=-1)
    ref = Program(model)                # the same operations, at the
    ref._table = prog._table            # earliest waves
    ref._level = lambda layout, n_layouts: asap
    packed, earliest = batch_count(prog), batch_count(ref)
    assert packed <= earliest
    if packed == earliest:
        assert waves == asap
    return packed, earliest


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
        ops, waves = helpers.ops(prog), helpers.waves(prog)
        assert len(waves) == len(ops)
        for (a, wa), (b, wb) in itertools.combinations(zip(ops, waves), 2):
            if wa == wb:
                assert a[1] != b[1] and not has_edge(model, a[1], b[1])
        check_packing(model, prog)


def test_grid_waves_are_anti_diagonals():
    h, w = 5, 7
    model = hostile_grid(np.random.default_rng(8), h, w)
    star = _Run(model, SolverConfig("msd")).program()
    assert [u for _, u, _, _ in helpers.ops(star)] == list(range(h * w))
    assert helpers.waves(star) == [u // w + u % w for u in range(h * w)]
    assert max(helpers.waves(star)) + 1 == h + w - 1
    # A TRW-S sweep visits the same anti-diagonals, but the last node has
    # no later neighbour and takes no step: h + w - 2 waves per sweep.
    trws = _Run(model, SolverConfig("trws")).program()
    nodes = [u for _, u, _, _ in helpers.ops(trws)]
    assert nodes == list(range(h * w - 1)) + list(range(h * w - 1, 0, -1))
    forward = [u // w + u % w for u in range(h * w - 1)]
    backward = [2 * (h + w - 2) - 1 - (u // w + u % w - 1)
                for u in range(h * w - 1, 0, -1)]
    assert helpers.waves(trws) == forward + backward
    assert max(helpers.waves(trws)) + 1 == 2 * (h + w - 2)


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
            helpers.star(prog, u, 1.0 / (len(nb) + 1))
            later = [v for v in nb if rng.random() < 0.6] or [nb[0]]
            helpers.trws(prog, u, later,
                         1.0 / max(len(nb) - len(later), len(later)))
        for u, v in model.edges:
            helpers.rdp(prog, v, u, 0.5)
            helpers.handshake(prog, u, v)
        for u in nodes[::-1]:
            helpers.trws(prog, u, model.neighbors(u)[::-1],
                         0.5 / len(model.neighbors(u)))
            helpers.push(prog, model.neighbors(u)[0], u)
        ops = helpers.ops(prog)
        check_packing(model, prog)
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
        helpers.star(prog, isolated, 0.5)
    with pytest.raises(ValueError):
        helpers.trws(prog, u, [], 0.5)
    with pytest.raises(ValueError):
        helpers.trws(prog, u, [non_neighbour], 0.5)
    with pytest.raises(ValueError):
        helpers.trws(prog, u, [nb[0], nb[0]], 0.5)
    with pytest.raises(ValueError):
        helpers.trws(prog, u, nb, 1.0 / len(nb) + 1e-6)
    with pytest.raises(ValueError):
        helpers.star(prog, u, -0.1)
    with pytest.raises(ValueError):
        helpers.star(prog, -1, 0.1)
    assert helpers.ops(prog) == []
    helpers.star(prog, u, 1.0 / len(nb))
    helpers.trws(prog, u, nb[:1], 1.0)
    assert helpers.ops(prog) == [(STAR, u, nb, 1.0 / len(nb)),
                                 (TRWS, u, nb[:1], 1.0)]


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
        assert is_zero(phi) and len(trace) == 1


BUFFER_CASES = [
    (m, "static") for m in ("msd", "cmp", "trws", "mplp", "mplppp", "dmm",
                            "tbca", "tbcapp", "spam")] + CASES[-2:]


def buffer_models():
    """The hostile models, which derive theta^phi afresh, the same with a
    small cap, which update it, and a 5x6 grid, whose waves push into one
    node several times and whose batches mix node degrees."""
    grid = generate_instance("sparse_grid", height=5, width=6, labels=3,
                             seed=4)
    assert all(m._exact_excess for m in models(3))
    assert not any(m._exact_excess for m in models(3, cap=5.0) + [grid])
    return models(3) + models(3, cap=5.0) + [grid]


def capped_row_grid():
    """The 5x6 grid of ``buffer_models`` with one table row at COST_CAP."""
    grid = generate_instance("sparse_grid", height=5, width=6, labels=3,
                             seed=4)
    tables = np.stack(grid.pairwise)
    tables[7, 1] = COST_CAP
    return GraphicalModel(grid.labels, grid.edges, grid.unary, tables,
                          grid_shape=grid.grid_shape)


@pytest.mark.parametrize("method,tree_mode", BUFFER_CASES)
def test_zero_slot_stays_zero(method, tree_mode):
    # Behind phi the buffer holds a scratch row per directed incidence,
    # into which late pushes of a wave add and which the wave's end clears
    # again; phi's values leave it out and a copy keeps it.
    for model in buffer_models():
        state = _Run(model, SolverConfig(method, tree_mode=tree_mode))
        state.do_pass()
        phi, n = state.phi, model._unary_flat.size
        assert not phi.buffer[n + model.phi_size:].any()
        assert phi.values.size == model.phi_size
        copy = phi.copy()
        assert np.array_equal(copy.buffer, phi.buffer)
        assert np.array_equal(copy.values, phi.values)


@pytest.mark.parametrize("method,tree_mode", BUFFER_CASES)
def test_buffer_holds_theta_phi_after_a_pass(method, tree_mode):
    # The buffer keeps theta^phi of every node in front of phi.
    for model in buffer_models():
        state = _Run(model, SolverConfig(method, tree_mode=tree_mode))
        state.do_pass()
        phi, n = state.phi, model._unary_flat.size
        want = node_costs(model, phi)
        assert np.all(np.abs(phi.buffer[:n] - want)
                      <= TOL * np.maximum(1.0, np.abs(want)))
        assert phi.values.size == model.phi_size


@pytest.mark.parametrize("method,tree_mode", BUFFER_CASES)
def test_exact_path_derives_theta_phi_before_every_batch(method, tree_mode,
                                                        monkeypatch):
    # Where theta^phi is derived afresh, the buffer holds node_costs bit
    # for bit before every batch and after every pass.  The capped-row
    # grid's waves push into one node several times.  Every batch of the
    # compiled plan runs the check once per pass: the wrapped kernels make
    # it through their ``call``, so a kept program's replayed passes, which
    # call no kernel, make it too.
    calls = []

    def check(buf):
        assert np.array_equal(buf[:n], node_costs(model, phi))
        calls.append(1)

    def checked(kernel):
        def run_checked(call, buf, *args):
            call(check, buf)
            kernel(call, buf, *args)
        return run_checked

    monkeypatch.setattr(updates, "_KERNELS",
                        tuple(map(checked, updates._KERNELS)))
    for model in models(3) + [capped_row_grid()]:
        assert model._exact_excess
        state = _Run(model, SolverConfig(method, tree_mode=tree_mode))
        phi, n = state.phi, model._unary_flat.size
        for _ in range(3):
            prog = state.program()      # what do_pass runs
            calls.clear()
            prog.run(phi, state.counter)
            assert np.array_equal(phi.buffer[:n], node_costs(model, phi))
            assert len(calls) == len(prog._plan[0]) > 0


def kernel_calls(monkeypatch):
    """A list that gains one entry per kernel call from now on."""
    calls = []

    def counted(kernel):
        def run_counted(*args):
            calls.append(1)
            kernel(*args)
        return run_counted

    monkeypatch.setattr(updates, "_KERNELS",
                        tuple(map(counted, updates._KERNELS)))
    return calls


@pytest.mark.parametrize("method,tree_mode", BUFFER_CASES)
def test_kept_program_replays_its_first_pass_bit_for_bit(method, tree_mode,
                                                         monkeypatch):
    # A static run records its program's numpy calls at the first pass and
    # replays them, calling no kernel; five passes end byte for byte as
    # five passes that each build and run a fresh program.  A run on
    # dynamic trees compiles every pass and runs its kernels directly.
    rng = np.random.default_rng(43)
    config = SolverConfig(method, tree_mode=tree_mode)
    calls = kernel_calls(monkeypatch)
    for model in buffer_models() + [capped_row_grid()]:
        kept, fresh = _Run(model, config), _Run(model, config)
        start = random_phi(rng, model, scale=2.0).values
        kept.phi.values[:] = fresh.phi.values[:] = start
        for i in range(5):
            calls.clear()
            kept.do_pass()
            if i and tree_mode == "static":
                assert calls == []
            else:
                assert calls
            fresh._program = None
            fresh.do_pass()
        assert kept.phi.buffer.tobytes() == fresh.phi.buffer.tobytes()
        assert kept.counter.total == fresh.counter.total
        if tree_mode == "dynamic":
            assert kept._program is None
        else:                           # references, no array copies
            on, recorded = kept._program._calls
            assert on is kept.phi.buffer and recorded
            assert all(not isinstance(a, np.ndarray) or a is on
                       or a.base is not None
                       for _, args in recorded for a in args)


def test_kept_program_replays_only_on_the_buffer_it_recorded_on(
        monkeypatch):
    # One kept program run on phi A, A, B, A, A: each run on a buffer it
    # did not record on runs the kernels and records anew, so every call
    # it keeps binds no other reparametrization's buffer, and each phi
    # ends byte for byte as fresh programs leave it.
    rng = np.random.default_rng(44)
    calls = kernel_calls(monkeypatch)
    for model in models(3)[:3] + [capped_row_grid()]:
        for method in ("msd", "trws", "mplppp", "spam", "tbcapp"):
            config = SolverConfig(method)
            start = [random_phi(rng, model, scale=s).values.copy()
                     for s in (1.0, 2.0)]

            def fresh(x):
                phi = Reparametrization(model)
                phi.values[:] = start[x]
                return phi

            prog, phi = _Run(model, config).program(), [fresh(0), fresh(1)]
            n = len(prog._compile()[0])
            for x, ran in ((0, n), (0, 0), (1, n), (0, n), (0, 0)):
                calls.clear()
                prog.run(phi[x])
                assert len(calls) == ran
                on, recorded = prog._calls
                assert on is phi[x].buffer
                other = phi[1 - x]
                assert not any(getattr(f, "__self__", None) is other.buffer
                               or any(a is other or a is other.buffer
                                      for a in args)
                               for f, args in recorded)
            for x, passes in ((0, 4), (1, 1)):
                ref = fresh(x)
                for _ in range(passes):
                    _Run(model, config).program().run(ref)
                assert phi[x].buffer.tobytes() == ref.buffer.tobytes()


@pytest.mark.parametrize("method,tree_mode", BUFFER_CASES)
def test_scratch_holds_no_state_between_passes(method, tree_mode):
    # Kernels work in views of a scratch array bound once per batch shape.
    # Two runs of one model that share one scratch, started from two
    # reparametrizations and passed in turn, end byte for byte as each run
    # alone does.  One program run on phi A, then on B, then on A again
    # leaves each byte for byte as fresh programs do.
    rng = np.random.default_rng(41)
    config = SolverConfig(method, tree_mode=tree_mode)
    for model in models(3) + [capped_row_grid()]:
        start = [random_phi(rng, model, scale=s).values.copy()
                 for s in (1.0, 2.0)]

        def fresh(values):
            state = _Run(model, config)
            state.phi.values[:] = values
            return state

        alone, both = [fresh(v) for v in start], [fresh(v) for v in start]
        both[1]._scratch = both[0]._scratch
        for state in alone:
            for _ in range(3):
                state.do_pass()
        for _ in range(3):
            for state in both:
                state.do_pass()
        for a, b in zip(alone, both):
            assert a.phi.buffer.tobytes() == b.phi.buffer.tobytes()

        def program():                  # the first pass's, built afresh
            return _Run(model, config).program()

        prog, phi = program(), [fresh(v).phi for v in start]
        for x in (0, 1, 0):
            prog.run(phi[x])
        for x, passes in ((0, 2), (1, 1)):
            ref = fresh(start[x]).phi
            for _ in range(passes):
                program().run(ref)
            assert phi[x].buffer.tobytes() == ref.buffer.tobytes()


def scratch_reach(batch, scratch):
    """One past the last float of ``scratch`` that a compiled batch's
    views reach."""
    base, reach = scratch.__array_interface__["data"][0], 0
    todo = [batch.shared, batch.end]
    while todo:
        x = todo.pop()
        if isinstance(x, (tuple, list)):
            todo.extend(x)
        elif isinstance(x, np.ndarray) and x.size and x.base is scratch:
            at = (x.__array_interface__["data"][0] - base) // x.itemsize
            reach = max(reach, at + 1 + sum(
                (n - 1) * s for n, s in zip(x.shape, x.strides)) // x.itemsize)
    return reach


def batch_need(batch):
    """Floats that a batch's kernel works in, none of them shared: its
    gathered values, theta^phi_u times r, and per part its tables, where it
    gathers them, the sum that its min-marginals reduce, its outputs, and
    the late pushes that end its wave."""
    m, lab = batch.idx.shape[1], batch.spec.lab
    need = batch.idx.size + m * lab
    for p, (tables, _, _) in zip(batch.spec.parts, batch.tables):
        n, cell = (p.mine.stop - p.mine.start) // lab * m, p.table[0].size
        need += (2 if tables.ndim == 1 else 1) * n * cell \
            + n * max(lab, p.lab_v) + m * lab
    return need + (0 if batch.end is None else len(batch.end[1]))


def test_each_batch_shape_binds_once_per_scratch(monkeypatch):
    # A run's programs share one scratch and bind each batch shape in it
    # once.  A dynamic tbca run compiles a program every pass, and binds
    # fewer new shapes pass after pass as the shapes come back; a program
    # compiled again on its scratch binds nothing and shares every view.
    keys, inner = [], updates._bind

    def bind(key, blocks, scratch):
        keys.append(key)
        return inner(key, blocks, scratch)

    monkeypatch.setattr(updates, "_bind", bind)
    model = generate_instance("sparse_grid", height=32, width=32, labels=3,
                              seed=15)
    state = _Run(model, SolverConfig("tbca", tree_mode="dynamic"))
    counts = []
    for _ in range(6):
        n = len(keys)
        state.do_pass()
        counts.append(len(keys) - n)
        if n == 0:
            array = state._scratch.array
    assert counts == [95, 61, 33, 23, 14, 14]
    assert state._scratch.array is array
    assert len(set(keys)) == len(keys) == len(state._scratch.bound)
    for method in ("msd", "mplppp", "spam", "tbcapp"):
        prog = _Run(model, SolverConfig(method)).program()
        first, _ = prog._compile()
        n = len(keys)
        second, _ = prog._compile()
        assert len(keys) == n
        assert all(a.spec is b.spec and a.shared is b.shared
                   for a, b in zip(first, second))


def test_scratch_holds_the_largest_batch_and_no_more():
    # The scratch is as large as the farthest any batch's views reach, and
    # no larger than what the largest batch would work in with nothing
    # shared.  A run on dynamic trees shares one scratch over its passes.
    from test_plans import capped_grid
    model = capped_grid(0)
    for method, tree_mode in BUFFER_CASES:
        state = _Run(model, SolverConfig(method, tree_mode=tree_mode))
        batches = []
        for _ in range(2 if tree_mode == "dynamic" else 1):
            prog = state.program()
            prog.run(state.phi)
            batches += prog._plan[0]
        scratch = state._scratch.array
        assert scratch.size == max(scratch_reach(b, scratch)
                                   for b in batches)
        assert scratch.size <= max(map(batch_need, batches))


def test_run_honours_phi_written_from_outside():
    # A run derives theta^phi from theta and phi before its first wave, so
    # phi written through phi[u, v] after an earlier run leaves the buffer
    # bit for bit as on a fresh reparametrization holding the same values.
    rng = np.random.default_rng(12)
    grid = generate_instance("sparse_grid", height=5, width=6, labels=3,
                             seed=4)
    for model in models(4)[:3] + models(4, cap=5.0)[:3] + [grid]:
        for method in ("msd", "trws", "mplppp", "spam", "tbcapp"):
            prog = _Run(model, SolverConfig(method)).program()
            phi = random_phi(rng, model, scale=2.0)
            prog.run(phi)
            for u, v in model.edges:
                phi[u, v] += rng.uniform(-1.0, 1.0, model.labels[u])
            fresh = Reparametrization(model)
            fresh.values[:] = phi.values
            prog.run(phi)
            prog.run(fresh)
            assert np.array_equal(phi.buffer, fresh.buffer)


def test_program_shape_on_k50_and_the_32x32_grid():
    # Counted, not timed.  An edge update reads theta^phi of its ends, L_u
    # values each: a K_50 mplp or mplppp operation gathers 4 * 4 = 16
    # values (408 with theta_u and all 49 rows of both ends), and an mplp
    # pass compiles to fewer than 25,000 index entries.  Waves and batches
    # per pass of all nine methods.
    shape = {}
    for name, model in (
            ("grid", generate_instance("sparse_grid", height=32, width=32,
                                       labels=8, seed=0)),
            ("k50", generate_instance("complete", n_nodes=50, labels=4,
                                      seed=0))):
        for method in METHODS:
            prog = _Run(model, SolverConfig(method)).program()
            shape[name, method] = (max(helpers.waves(prog)) + 1,
                                   batch_count(prog))
            if name == "k50" and method in ("mplp", "mplppp"):
                batches, _ = prog._plan     # (K, m) indices
                assert {b[1].shape[0] for b in batches} == {16}
                assert sum(b[1].size for b in batches) < 25_000
    assert shape == {
        ("grid", "msd"): (63, 122), ("grid", "cmp"): (63, 122),
        ("grid", "trws"): (124, 184), ("grid", "mplp"): (4, 8),
        ("grid", "mplppp"): (4, 8), ("grid", "dmm"): (70, 72),
        ("grid", "tbca"): (313, 313), ("grid", "tbcapp"): (498, 499),
        ("grid", "spam"): (268, 321),
        ("k50", "msd"): (50, 50), ("k50", "cmp"): (50, 50),
        ("k50", "trws"): (98, 98), ("k50", "mplp"): (50, 50),
        ("k50", "mplppp"): (50, 50), ("k50", "dmm"): (369, 457),
        ("k50", "tbca"): (2499, 2499), ("k50", "tbcapp"): (4900, 4900),
        ("k50", "spam"): (50, 50)}


def test_scratch_size_on_k50_and_the_32x32_grid():
    # Counted, not timed: the floats of each method's scratch, which its
    # largest batch works in.  An mplp batch of 256 grid edges gathers 32
    # values each and the 256 8x8 tables it does not hold views of, and
    # reduces a sum of 256 tables: 8,192 + 16,384 + 16,384 = 40,960.
    sizes = {}
    for name, model in (
            ("grid", generate_instance("sparse_grid", height=32, width=32,
                                       labels=8, seed=0)),
            ("k50", generate_instance("complete", n_nodes=50, labels=4,
                                      seed=0))):
        for method in METHODS:
            state = _Run(model, SolverConfig(method))
            batch_count(state.program())
            sizes[name, method] = state._scratch.array.size
    assert sizes == {
        ("grid", "msd"): 10560, ("grid", "cmp"): 10560,
        ("grid", "trws"): 10168, ("grid", "mplp"): 40960,
        ("grid", "mplppp"): 43008, ("grid", "dmm"): 43008,
        ("grid", "tbca"): 8328, ("grid", "tbcapp"): 8328,
        ("grid", "spam"): 42880,
        ("k50", "msd"): 2164, ("k50", "cmp"): 2164, ("k50", "trws"): 2356,
        ("k50", "mplp"): 1200, ("k50", "mplppp"): 1300, ("k50", "dmm"): 988,
        ("k50", "tbca"): 2496, ("k50", "tbcapp"): 2496, ("k50", "spam"): 1300}


def test_batch_indices_index_at_native_width():
    # take and put cast any other index type on every call.
    for model in (generate_instance("sparse_grid", height=32, width=32,
                                    labels=8, seed=0),
                  generate_instance("complete", n_nodes=50, labels=4,
                                    seed=0),
                  *models(0)):
        for method in METHODS:
            prog = _Run(model, SolverConfig(method)).program()
            batch_count(prog)
            batches, _ = prog._plan
            assert {b[1].dtype for b in batches} <= {np.dtype(np.intp)}


@pytest.mark.parametrize("over_u", [False, True])
def test_mixed_marginal_is_its_two_runs_joined(over_u):
    # One output for both orientation runs, bit for bit what joining the
    # two single-orientation marginals gives.
    rng = np.random.default_rng(21)
    for lab in range(1, 17):
        m = int(rng.integers(2, 12))
        tab = rng.uniform(-3.0, 3.0, (m, lab, lab))
        tab[rng.random(tab.shape) < 0.2] = COST_CAP
        p_uv, p_vu = rng.normal(0.0, 1e3, (2, m, lab))
        for k in range(1, m):
            ref = np.concatenate((
                marginal(tab[:k], k, p_uv[:k], p_vu[:k], over_u),
                marginal(tab[k:], 0, p_uv[k:], p_vu[k:], over_u)))
            got = marginal(tab, k, p_uv, p_vu, over_u)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
            out = np.full((m + 1, lab), np.nan)[1:]
            assert marginal(tab, k, p_uv, p_vu, over_u,
                            out=out) is out
            assert out.tobytes() == ref.tobytes()


def test_marginal_is_add_then_reduce_bit_for_bit():
    # Minima over Y_a reduce theta_ab + phi_{a,b} first and add phi_{b,a}
    # to the result.  Rounding is monotone, so that is bit for bit the
    # minimum of the whole sum, signed zeros included.  The reference sums
    # every cell in the operand order of helpers.pairwise_costs, then takes
    # the minimum over the reduced index in order, as numpy reduces a
    # leading axis.  Small integers give exact ties and cancellations;
    # UAI tables keep a -0 entry as -0.0.
    rng = np.random.default_rng(22)

    def draw(shape, scale):
        x = (rng.normal(0.0, scale, shape) if rng.random() < 0.5
             else rng.integers(-3, 4, shape).astype(np.float64))
        x[rng.random(shape) < 0.15] = 0.0
        x[rng.random(shape) < 0.15] = -0.0
        return x

    def reference(tab, k, p_uv, p_vu, over_u):
        rows = []
        for i, t in enumerate(tab):
            p_a, p_b = (p_uv[i], p_vu[i]) if i < k else (p_vu[i], p_uv[i])
            t = (t + p_a[:, None]) + p_b[None, :]
            if (i < k) != over_u:       # minima over Y_b
                t = t.T
            acc = t[0]
            for row in t[1:]:
                acc = np.minimum(acc, row)
            rows.append(acc)
        return np.array(rows)

    for lab_a, lab_b in itertools.product(range(1, 17), repeat=2):
        m = int(rng.integers(1, 7))
        tab = draw((m, lab_a, lab_b), 3.0)
        tab[rng.random(tab.shape) < 0.2] = COST_CAP
        for k in range(m + 1) if lab_a == lab_b else (0, m):
            lab_u, lab_v = (lab_a, lab_b) if k else (lab_b, lab_a)
            p_uv, p_vu = draw((m, lab_u), 1e3), draw((m, lab_v), 1e3)
            for over_u in (False, True):
                want = reference(tab, k, p_uv, p_vu, over_u)
                got = marginal(tab, k, p_uv, p_vu, over_u)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (lab_a, lab_b, k)


def test_chain_cover_program_shape_on_the_32x32_grid():
    # Counted, not timed: colour-class block order, orientation-free
    # batches on square tables and packing by slack keep the chain programs
    # wide.
    model = generate_instance("sparse_grid", height=32, width=32, labels=8,
                              seed=0)
    shape = {}
    for method in ("spam", "dmm"):
        state = _Run(model, SolverConfig(method))
        prog = state.program()
        state.do_pass()
        shape[method] = max(helpers.waves(prog)) + 1, batch_count(prog)
    assert shape["spam"][0] <= 270 and shape["spam"][1] <= 340
    assert shape["dmm"][1] <= 80


def test_edge_sweep_program_shape():
    # Counted, not timed: an edge sweep goes one greedy colour class, a
    # matching, per wave.
    def shape(model, method):
        state = _Run(model, SolverConfig(method))
        prog = state.program()
        state.do_pass()
        return prog, max(helpers.waves(prog)) + 1, batch_count(prog)

    def check_order(model, prog):
        n = model.n_nodes
        visit = lambda e: ((e[0] + e[1]) % n, e)
        edges = model.edges
        classes = _colour_classes(edges, sorted(
            range(len(edges)), key=lambda i: visit(edges[i])), n)
        assert [(u, v) for _, u, v, _ in helpers.ops(prog)] == \
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
    assert shape(model, "spam")[1:] == (268, 321)


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

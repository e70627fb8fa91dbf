"""What the kernels read, pinned by digest.

``tests/test_taxonomy.py`` pins each method's operations and phi; this
file pins the compiled plan of each method's program: its waves and, per
batch, the spec, the operation count, the gather index, per part the
table positions and how many edges have u first, the weights and the
late pushes that end a wave.  The models are the seed-0 32x32x8 grid,
K_50 with 4 labels, a 32x32x16 grid with 30% of its table entries at
COST_CAP (the shape of the uai_hard benchmark) and the hostile models of
``test_waves``.
"""
import functools
import hashlib

import numpy as np
import pytest

from dualbca.generate import generate_instance
from dualbca.model import COST_CAP, GraphicalModel
from dualbca.updates import Program
from dualbca.solve import METHODS, SolverConfig, _Run
from helpers import ops, waves
from test_waves import models as hostile_models


def capped_grid(seed):
    """A 32x32x16 grid with 30% of its table entries at COST_CAP, none on
    one planted labeling."""
    rng = np.random.default_rng(seed)
    base = generate_instance("sparse_grid", height=32, width=32, labels=16,
                             seed=seed)
    planted = rng.integers(0, 16, base.n_nodes)
    pairwise = []
    for (u, v), table in zip(base.edges, base.pairwise):
        table = table.copy()
        forbid = rng.random(table.shape) < 0.3
        forbid[planted[u], planted[v]] = False
        table[forbid] = COST_CAP
        pairwise.append(table)
    return GraphicalModel(base.labels, base.edges, base.unary, pairwise)


@functools.lru_cache(maxsize=None)
def plan_models():
    return (generate_instance("sparse_grid", height=32, width=32, labels=8,
                              seed=0),
            generate_instance("complete", n_nodes=50, labels=4, seed=0),
            capped_grid(0),
            *hostile_models(0))


CASES = ([(m, "static") for m in METHODS]
         + [("tbca", "dynamic"), ("tbcapp", "dynamic")])

# Recorded on the code that built each operation with its own call; the
# plans of mplp, mplppp, dmm, tbca, tbcapp and spam again once the
# levelling packed waves by slack (their operations and phi are
# unchanged, see tests/test_taxonomy.py).
DIGESTS = {
    "msd-static":
        "f85304487d567ce7db7d97f4158dc20cb8354fde26e33cb640042c024f2fc840",
    "cmp-static":
        "6bd630088f1a4292bf324483b8b2b6e73a12186b63f7c9cb4a13aeaaa180256f",
    "trws-static":
        "7431d57313de221e01de13b1daa9202879408c5c9545df0819442ea86922a7ba",
    "mplp-static":
        "37ca5dfea000e28693a624848b1ce4c31074d8c277ecd1eae9334de0ee833159",
    "mplppp-static":
        "08900ded71433c9a162a8b57e0e5b8f77a57dc40d6b73cbae93a354a5390e025",
    "dmm-static":
        "3c61c54820d2a0927a46874cbcd312b972a5f1cb91355e03b7a9c9803325203b",
    "tbca-static":
        "8a3fe1c5599c0089f1d1097e73399a8bb10be4edd5c7caf5d8ee44a5210e898a",
    "tbcapp-static":
        "13e180f6297c42dca1fc2e529dd5b9b1ae709fce6a12d7685a234dc6f8d1a763",
    "spam-static":
        "a3989cdefa8963f4fefcc4b5ec5e45fc4dd5292c42df517119251c3ae8fb0eef",
    "tbca-dynamic":
        "403698b6c62e3786af6bb17425ebea00eb455b05b9adb6175aad6331ba2d9554",
    "tbcapp-dynamic":
        "fec32620dc493dbd8023bb69a031961ea185754a97dd96e32962d1179d69eda4",
}


def ints(h, values):
    h.update(np.ascontiguousarray(values, dtype=np.int64).tobytes())


def positions(block, tables):
    """The positions in ``block`` of a batch part's tables: given as such,
    or read off the view of the block that holds them."""
    if tables.ndim == 1:
        return tables
    assert tables.base is block.base or tables.base is block
    start, rest = divmod(tables.__array_interface__["data"][0]
                         - block.__array_interface__["data"][0],
                         block.strides[0])
    step, left = divmod(tables.strides[0], block.strides[0])
    assert rest == left == 0 and tables.strides[1:] == block.strides[1:]
    return start + step * np.arange(len(tables))


def op_rows(g, idx):
    """A batch's gather index as one row per operation.  The compiled
    index is (K, m), laid out block by block (theta^phi_u, then per part
    phi_{u,v}, phi_{v,u} and theta^phi_v), each block (m, width)."""
    m = idx.shape[1]
    blocks = [slice(0, g.uv), *(p.mine for p in g.parts),
              *(p.back for p in g.parts), *(p.excess for p in g.parts)]
    return np.hstack([idx[b].reshape(m, len(idx[b])) for b in blocks])


def plan_digest(h, model, prog):
    """Add the waves and the compiled batches of ``prog`` to ``h``."""
    ints(h, waves(prog))
    blocks = [g.block for g in model._shape_groups]
    batches, messages = prog._plan
    ints(h, [len(batches), messages])
    for g, idx, parts, r, keep, end, *_ in batches:
        # The pinned digests hash, per spec and per part, whether it has
        # more than one target, and the spec's start of the phi_{v,u}:
        # both follow from the targets per part, read off its phi_{u,v}.
        lens = [(p.mine.stop - p.mine.start) // g.lab for p in g.parts]
        h.update(repr((g.kind, g.unit, sum(lens) > 1, g.lab, g.uv,
                       g.parts[0].back.start, idx.shape[1],
                       [(next(i for i, b in enumerate(blocks)
                              if b is p.table),
                         p.lab_v, k > 1, p.mine, p.back, p.excess)
                        for p, k in zip(g.parts, lens)])).encode())
        ints(h, op_rows(g, idx))
        for p, (tables, k, _) in zip(g.parts, parts):
            ints(h, positions(p.table, tables))
            ints(h, [k])
        h.update(np.ascontiguousarray(np.column_stack((r, keep)),
                                      dtype=np.float64).tobytes())
        if end is None:
            h.update(b"-")
        else:
            ints(h, end[0])
            ints(h, end[1])


@pytest.mark.parametrize("method,tree_mode", CASES,
                         ids=[f"{m}-{t}" for m, t in CASES])
def test_plans_unchanged(method, tree_mode):
    # A dynamic run compiles a new program every pass: pin two of them.
    h = hashlib.sha256()
    for model in plan_models():
        state = _Run(model, SolverConfig(method, tree_mode=tree_mode))
        for _ in range(2 if tree_mode == "dynamic" else 1):
            prog = state.program()
            prog.run(state.phi, state.counter)
            plan_digest(h, model, prog)
    assert h.hexdigest() == DIGESTS[f"{method}-{tree_mode}"]


def count_incidence(monkeypatch):
    """The (u, v) of every scalar ``incidence`` call from now on."""
    lookups, inner = [], GraphicalModel.incidence

    def incidence(self, u, v):
        lookups.append((u, v))
        return inner(self, u, v)

    monkeypatch.setattr(GraphicalModel, "incidence", incidence)
    return lookups


@pytest.mark.parametrize("method", METHODS)
def test_building_looks_up_no_incidence(method, monkeypatch):
    # Emitting, levelling and compiling a program take whole arrays: no
    # operation looks its edge up by a scalar call.  The blocks are built
    # before the counting starts.
    model = plan_models()[0]
    state = _Run(model, SolverConfig(method))
    lookups = count_incidence(monkeypatch)
    prog = state.program()
    assert isinstance(prog, Program) and ops(prog)
    prog._compile()
    assert lookups == []


@pytest.mark.parametrize("method", ["dmm", "spam", "tbca", "tbcapp"])
def test_building_blocks_looks_up_no_incidence(method, monkeypatch):
    # Covers and trees, built as the run starts, check their edges in bulk.
    lookups = count_incidence(monkeypatch)
    _Run(plan_models()[0], SolverConfig(method))
    assert lookups == []

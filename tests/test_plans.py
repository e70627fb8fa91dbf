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

# Recorded on the code that built each operation with its own call.
DIGESTS = {
    "msd-static":
        "f85304487d567ce7db7d97f4158dc20cb8354fde26e33cb640042c024f2fc840",
    "cmp-static":
        "6bd630088f1a4292bf324483b8b2b6e73a12186b63f7c9cb4a13aeaaa180256f",
    "trws-static":
        "7431d57313de221e01de13b1daa9202879408c5c9545df0819442ea86922a7ba",
    "mplp-static":
        "63c322ecb563a97df31dcd4f3d5ba144db9d12d93781e221a478a6950d37b1f3",
    "mplppp-static":
        "29fadc3266a379ec9603bcb910176bc9d0b8eb03ec589a0d4f845bacf651c8c7",
    "dmm-static":
        "d3b8f9d0d5436828974cae1deff1b176189690af9420fb42d3d9994258e57a0d",
    "tbca-static":
        "698a331d87c82ae0334ec068178d309576f11df70998727bcbb39cc4004ec84d",
    "tbcapp-static":
        "351f77dfc5805d2e1f59ba98821885f1c992ef5b96e9b401eb31dc032ad6685e",
    "spam-static":
        "45ca57735532e902d6fc1e9d81dc695b6b6d1af5e307449a001ab46037f53eb9",
    "tbca-dynamic":
        "f4fecf1c522aa02b148f5d93fc740eb088a7aa2d5ae071401fd5527b8b62e78d",
    "tbcapp-dynamic":
        "e7ad4172997554d711512d0fbd2e56862904f2e0676341386053804deee50ae2",
}


def ints(h, values):
    h.update(np.ascontiguousarray(values, dtype=np.int64).tobytes())


def plan_digest(h, model, prog):
    """Add the waves and the compiled batches of ``prog`` to ``h``."""
    ints(h, prog.waves())
    blocks = [g.block for g in model._shape_groups]
    batches, messages = prog._plan
    ints(h, [len(batches), messages])
    for g, idx, parts, r, end in batches:
        h.update(repr((g.kind, g.unit, g.many, g.lab, g.uv, g.vu, len(idx),
                       [(next(i for i, b in enumerate(blocks)
                              if b is p.table),
                         p.lab_v, p.many, p.mine, p.back, p.excess)
                        for p in g.parts])).encode())
        ints(h, idx)
        for pos, k in parts:
            ints(h, pos)
            ints(h, [k])
        h.update(np.ascontiguousarray(r, dtype=np.float64).tobytes())
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


@pytest.mark.parametrize("method", METHODS)
def test_building_looks_up_no_incidence(method, monkeypatch):
    # Emitting, levelling and compiling a program take whole arrays: no
    # operation looks its edge up in the model's (u, v) dict.  The blocks
    # are built before the counting starts.
    lookups = []

    class Counted(dict):
        def __getitem__(self, key):
            lookups.append(key)
            return super().__getitem__(key)

        def __contains__(self, key):
            lookups.append(key)
            return super().__contains__(key)

        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

    def incidence(self, u, v):
        lookups.append((u, v))
        return inner(self, u, v)

    model = plan_models()[0]
    state = _Run(model, SolverConfig(method))
    inner = GraphicalModel.incidence
    monkeypatch.setattr(GraphicalModel, "incidence", incidence)
    monkeypatch.setattr(model, "_incidence", Counted(model._incidence))
    prog = state.program()
    assert isinstance(prog, Program) and prog.ops
    prog._compile()
    assert lookups == []

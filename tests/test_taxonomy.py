"""The method table of :mod:`dualbca.solve`.

Each method is one row of (blocks, update).  The programs the rows compile
are pinned by digest: two passes of ``helpers.ops`` and the phi after them,
on the seed-0 32x32x8 grid, K_50 with 4 labels, a ``denser`` 8x8x3 grid
and the hostile COST_CAP models of ``test_waves``.
"""
import ast
import functools
import hashlib
import inspect

import numpy as np
import pytest

from dualbca import solve
from dualbca.generate import generate_instance
from dualbca.solve import METHODS, SolverConfig, _Run
from helpers import ops
from test_waves import models as hostile_models


@functools.lru_cache(maxsize=None)
def digest_models():
    return (generate_instance("sparse_grid", height=32, width=32, labels=8,
                              seed=0),
            generate_instance("complete", n_nodes=50, labels=4, seed=0),
            generate_instance("denser", height=8, width=8, labels=3, seed=0),
            *hostile_models(0))


# (method, config fields); "random" draws a node order per model.
CASES = ([(m, {}) for m in METHODS]
         + [(m, dict(tree_mode="dynamic")) for m in ("tbca", "tbcapp")]
         + [(m, dict(cover=c)) for m in ("dmm", "spam", "tbca", "tbcapp")
            for c in ("mmc", "rows_columns", "ssp")]
         + [("trws", dict(node_order="random")),
            ("dmm", dict(cover="mmc", node_order="random"))])


def case_id(case):
    method, fields = case
    return "-".join([method, *(str(v) for v in fields.values())])


# Recorded on the code before the method table replaced its branches.
DIGESTS = {
    "msd":
        "374774b62831a9a1d84a41b57a04c990ba9c50b60ca3ebe8cc42fc32fddc8a8c",
    "cmp":
        "7ac4f634cc67de1ce3c1f7ca5c001f38ff644abcf36ece2f9f139be3c0f19d65",
    "trws":
        "0e4860c019990958ac6fc3d3266b447988c7cd979e517cb8390433d335d81083",
    "mplp":
        "999030c5da3fbf469380df05cf798b3c2bd229ded37701a3732ea29c1b40f2d4",
    "mplppp":
        "63f91b731feda07758baca46a7f98fb77890b258defe13c0603a527bdad3ef30",
    "dmm":
        "42588f41b26c0932a7ea1b84bf5eb0fd97753bdc8b911809b9d84fd49371f828",
    "tbca":
        "5218c9bc6ec9a770c66c421591b97f16631e0a5285245eafbb2f32db72c3771b",
    "tbcapp":
        "883d3b7d4febd7441159e1e71f058d068e684b2ee366cc26c67ed1a56a069ca7",
    "spam":
        "17ddae9566686da356f700588acbd3ec5bdd1feadc4225ec1ac84c585019beb1",
    "tbca-dynamic":
        "9ffa1eb033ff0dc84d721971ad07d8dfb5bbbdd6fc4848bb3d3acf88efe1b1fb",
    "tbcapp-dynamic":
        "4adc917db80e806f77c2592d2ea3db6766eb0df9bbdc4b59d8b962df48d118e6",
    "dmm-mmc":
        "b84ea72a85d0ac60f989b6a99e7b2859b9f851ecd9d938135a5ffb714c6176ce",
    "dmm-rows_columns":
        "1e328c612f6e1b29468f7fe2788459d2ce5c53796f9111ba264e7f909ab9f800",
    "dmm-ssp":
        "17ddae9566686da356f700588acbd3ec5bdd1feadc4225ec1ac84c585019beb1",
    "spam-mmc":
        "b84ea72a85d0ac60f989b6a99e7b2859b9f851ecd9d938135a5ffb714c6176ce",
    "spam-rows_columns":
        "1e328c612f6e1b29468f7fe2788459d2ce5c53796f9111ba264e7f909ab9f800",
    "spam-ssp":
        "17ddae9566686da356f700588acbd3ec5bdd1feadc4225ec1ac84c585019beb1",
    "tbca-mmc":
        "d49a0bcdb8d097c14cfc370b7cd8486e63d0d4e1fb686c87af1aed992ed3524d",
    "tbca-rows_columns":
        "a12252c18d6fa4029ca6a6caef03332ecfa869166a9d8fce7f690146470cb91f",
    "tbca-ssp":
        "a997a29b19dc3ab7f014bb02642db9d46fc6c16ffe5db996e09c6af27e726cea",
    "tbcapp-mmc":
        "1c516613fa71ac18e7f6fb380848d02c9366fee00cc2a5815d9c2100bc06e26a",
    "tbcapp-rows_columns":
        "705607f8bb5c9e2992e0d30a0713b7927453648bbfc5222302826fba43d034b5",
    "tbcapp-ssp":
        "06e3809b4380eb800d8503d0f5b483a723ced9807d1a0c623b449b7193d736b0",
    "trws-random":
        "4e009e97adf99569f56d111492d2408c6cae995bd431b6594160d748a1162418",
    "dmm-mmc-random":
        "28a39e21fec14cb47269a7e9530505c5abb6141e53b6da6856179a6cae4e30f4",
}


def program_digest(method, fields):
    h = hashlib.sha256()
    for model in digest_models():
        if fields.get("cover") == "rows_columns" and model.grid_shape is None:
            continue
        kwargs = dict(fields)
        if kwargs.get("node_order") == "random":
            rng = np.random.default_rng(model.n_nodes)
            kwargs["node_order"] = rng.permutation(model.n_nodes).tolist()
        state = _Run(model, SolverConfig(method, **kwargs))
        for _ in range(2):
            h.update(repr(ops(state.program())).encode())
            state.do_pass()
        h.update(state.phi.values.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_programs_unchanged(case):
    assert program_digest(*case) == DIGESTS[case_id(case)]


def test_one_table_knows_the_methods():
    # The default of ``dualbca bench`` and its output order.
    assert METHODS == ("msd", "cmp", "trws", "mplp", "mplppp", "dmm", "tbca",
                       "tbcapp", "spam")
    # No comparison against a method name outside ``_TAXONOMY``.
    tree = ast.parse(inspect.getsource(solve))
    table = [node.value for node in ast.walk(tree)
             if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "_TAXONOMY"
                     for t in node.targets)]
    assert len(table) == 1
    inside = {id(node) for node in ast.walk(table[0])}
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and id(node) not in inside:
            strings = {sub.value for sub in ast.walk(node)
                       if isinstance(sub, ast.Constant)}
            assert not strings & set(METHODS), \
                f"line {node.lineno} compares against a method name"


@pytest.mark.parametrize("method", METHODS)
def test_program_builds_again_from_one_run(method):
    # Every block family can be read again, so a run that drops its
    # compiled program builds the same operations.
    state = _Run(digest_models()[1], SolverConfig(method))
    first = ops(state.program())
    state._program = None
    assert ops(state.program()) == first

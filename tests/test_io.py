import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dualbca.cli import _parse_generate, main
from dualbca.generate import REGIMES, generate_instance, random_model
from dualbca.model import COST_CAP, GraphicalModel
from dualbca.uai import ModelFormatError, parse_uai, write_uai


def write(tmp_path, text, name="model.uai"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParseUai:
    def test_single_node(self, tmp_path):
        p = write(tmp_path, "MARKOV\n1\n2\n1\n1 0\n\n2\n3 5\n")
        m, shift = parse_uai(p)
        assert m.n_nodes == 1 and m.n_edges == 0
        assert m.unary[0].tolist() == [3.0, 5.0]
        assert shift == 0.0

    def test_pairwise_factor(self, tmp_path):
        p = write(tmp_path,
                  "MARKOV\n2\n2 2\n1\n2 0 1\n\n4\n0 2 3 1\n")
        m, _ = parse_uai(p)
        assert m.edges == ((0, 1),)
        assert m.pairwise[0].tolist() == [[0.0, 2.0], [3.0, 1.0]]

    def test_reversed_scope_transposed(self, tmp_path):
        p = write(tmp_path,
                  "MARKOV\n2\n2 3\n1\n2 1 0\n\n6\n1 2 3 4 5 6\n")
        m, _ = parse_uai(p)
        assert m.edges == ((0, 1),)
        # scope (1,0) tables are (labels_1, labels_0); stored canonically
        assert m.pairwise[0].tolist() == [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]

    def test_negative_entries_shifted(self, tmp_path):
        p = write(tmp_path, "MARKOV\n1\n2\n1\n1 0\n\n2\n-1 4\n")
        m, shift = parse_uai(p)
        assert m.unary[0].tolist() == [0.0, 5.0]
        assert shift == -1.0

    def test_probability_mode(self, tmp_path):
        p = write(tmp_path, "MARKOV\n1\n2\n1\n1 0\n\n2\n1.0 0.5\n")
        m, _ = parse_uai(p, probabilities=True)
        assert m.unary[0][0] == 0.0
        assert m.unary[0][1] == pytest.approx(np.log(2.0))

    def test_zero_probability_capped(self, tmp_path):
        p = write(tmp_path, "MARKOV\n1\n2\n1\n1 0\n\n2\n0 1\n")
        m, _ = parse_uai(p, probabilities=True)
        assert m.unary[0][0] == COST_CAP

    def test_higher_order_rejected(self, tmp_path):
        p = write(tmp_path,
                  "MARKOV\n3\n2 2 2\n1\n3 0 1 2\n\n8\n0 0 0 0 0 0 0 0\n")
        with pytest.raises(ModelFormatError, match="arity"):
            parse_uai(p)

    def test_duplicate_edge_rejected(self, tmp_path):
        p = write(tmp_path,
                  "MARKOV\n2\n2 2\n2\n2 0 1\n2 1 0\n\n4\n0 0 0 0\n\n4\n0 0 0 0\n")
        with pytest.raises(ModelFormatError, match="duplicate edge"):
            parse_uai(p)

    def test_wrong_header_rejected(self, tmp_path):
        p = write(tmp_path, "BAYES\n1\n2\n0\n")
        with pytest.raises(ModelFormatError, match="MARKOV"):
            parse_uai(p)

    def test_parse_error_carries_line_number(self, tmp_path):
        p = write(tmp_path, "MARKOV\n1\nxyz\n")
        with pytest.raises(ModelFormatError) as exc:
            parse_uai(p)
        assert exc.value.line == 3
        assert "line 3" in str(exc.value)

    def test_truncated_file(self, tmp_path):
        p = write(tmp_path, "MARKOV\n2\n2 2\n1\n2 0 1\n\n4\n0 1\n")
        with pytest.raises(ModelFormatError):
            parse_uai(p)

    def test_truncated_file_reports_last_token_line(self, tmp_path):
        # The table on line 7 is cut after one entry (line 8); blank lines
        # follow.  The error points at the last token read.
        p = write(tmp_path, "MARKOV\n1\n2\n1\n1 0\n\n2\n3\n\n\n")
        with pytest.raises(ModelFormatError, match="end of file") as exc:
            parse_uai(p)
        assert exc.value.line == 8
        p = write(tmp_path, "MARKOV\n2\n\n")
        with pytest.raises(ModelFormatError, match="cardinality") as exc:
            parse_uai(p)
        assert exc.value.line == 2

    @pytest.mark.parametrize("text, line, what", [
        ("MARKOV 1 0 1 1 0 0", 1, "cardinality 0"),
        ("MARKOV\n2\n2 -3\n0\n", 3, "cardinality -3"),
        ("MARKOV\n-1\n0\n", 2, "variable count -1"),
        ("MARKOV\n1\n2\n-1\n", 4, "factor count -1"),
        # The scope size is checked before any variable index is read.
        ("MARKOV\n2\n2 2\n2\n1000000 0\n1 1\n\n4\n0 0 0 0\n\n2\n0 0\n",
         5, "arity 1000000"),
    ], ids=["zero-cardinality", "negative-cardinality",
            "negative-variable-count", "negative-factor-count",
            "huge-scope-size"])
    def test_hostile_counts_rejected(self, tmp_path, text, line, what):
        p = write(tmp_path, text)
        with pytest.raises(ModelFormatError, match=what) as exc:
            parse_uai(p)
        assert exc.value.line == line

    @pytest.mark.parametrize("text, line, what", [
        ("MARKOV\n1\n4\n1\n1 0\n\n4\n1 2\n3 x\n", 9,
         "expected table entry, got 'x'"),
        ("MARKOV\n2\n2 2\n2\n1 0\n1 1\n\n2\n1 2 3\n4 5 6\n", 9,
         "declares 3 entries, needs 2"),
        ("MARKOV\n1\n2\n2\n1 0\n1 0\n\n2\n1 2\n\n2\n3\n4\n", 13,
         "duplicate unary factor on variable 0"),
        ("MARKOV\n1\n3\n1\n1 0\n\n3\n1 2", 8,
         "unexpected end of file, expected table entry"),
        # A non-finite table is reported at its last entry's line.
        *((f"MARKOV\n1\n3\n1\n1 0\n\n3\n{bad} 1\n2\n", 9,
           "non-finite table entry")
          for bad in ("nan", "inf", "-Infinity", "1e400")),
    ], ids=["bad-token-second-line", "size-shares-line",
            "duplicate-unary", "eof-mid-line",
            "nan", "inf", "minus-infinity", "overflow"])
    def test_table_entry_errors(self, tmp_path, text, line, what):
        p = write(tmp_path, text)
        with pytest.raises(ModelFormatError, match=what) as exc:
            parse_uai(p)
        assert exc.value.line == line

    @pytest.mark.parametrize("data, line, what", [
        (b"MARKOV\n1\n2\n1\n1 0\n\n2\n1 \xff\n", 8,
         r"expected table entry, got '\\udcff'"),
        (b"MARK\xffOV\n1\n2\n0\n", 1, "expected MARKOV network"),
    ], ids=["in-table", "in-header"])
    def test_non_utf8_byte_reported_at_its_line(self, tmp_path, data, line,
                                                what):
        p = tmp_path / "model.uai"
        p.write_bytes(data)
        with pytest.raises(ModelFormatError, match=what) as exc:
            parse_uai(p)
        assert exc.value.line == line

    def test_negative_probability_rejected(self, tmp_path):
        p = write(tmp_path, "MARKOV\n1\n2\n1\n1 0\n\n2\n0.5\n-0.1\n")
        with pytest.raises(ModelFormatError, match="negative probability") \
                as exc:
            parse_uai(p, probabilities=True)
        assert exc.value.line == 9

    def test_tables_sharing_lines(self, tmp_path):
        # Entries read as float() reads them, wherever the lines break.
        p = write(tmp_path, "MARKOV\n2\n2 3\n3\n1 0\n1 1\n2 0 1\n"
                            "2 1_0\n\u0661\u0662 3 +4 .5\n6e0 6\n"
                            "1 2 3 4 5 6\n")
        m, _ = parse_uai(p)
        assert m.unary[0].tolist() == [10.0, 12.0]
        assert m.unary[1].tolist() == [4.0, 0.5, 6.0]
        assert m.pairwise[0].tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    def test_trailing_content_rejected(self, tmp_path):
        p = write(tmp_path, "MARKOV\n1\n2\n1\n1 0\n\n2\n3 5\n7\n")
        with pytest.raises(ModelFormatError, match="trailing"):
            parse_uai(p)

    def test_missing_unaries_default_to_zero(self, tmp_path):
        p = write(tmp_path, "MARKOV\n2\n2 2\n1\n2 0 1\n\n4\n0 1 1 0\n")
        m, _ = parse_uai(p)
        assert m.unary[0].tolist() == [0.0, 0.0]


class TestRoundTrip:
    def test_random_models_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(10):
            m = random_model(rng, n_nodes=int(rng.integers(1, 7)),
                             edge_prob=0.5)
            p = tmp_path / f"m{i}.uai"
            write_uai(m, p)
            m2, shift = parse_uai(p)
            assert shift == 0.0
            assert m2.labels == m.labels
            assert m2.edges == m.edges
            for u in range(m.n_nodes):
                assert np.array_equal(m2.unary[u], m.unary[u])
            for e in range(m.n_edges):
                assert np.array_equal(m2.pairwise[e], m.pairwise[e])

    def test_written_text(self, tmp_path):
        m = GraphicalModel(
            [1, 3, 2], [(0, 1), (1, 2)],
            [np.array([0.5]), np.array([0.0, 1e-05, 2.0]),
             np.array([0.1, 3.0])],
            [np.array([[1.0, 0.25, 7.0]]),
             np.array([[0.0, 1e12], [2.5, 0.3], [4.0, 1.5e-300]])])
        p = tmp_path / "m.uai"
        write_uai(m, p)
        assert p.read_text() == (
            "MARKOV\n3\n1 3 2\n5\n1 0\n1 1\n1 2\n2 0 1\n2 1 2\n"
            "\n1\n0.5\n"
            "\n3\n0.0 1e-05 2.0\n"
            "\n2\n0.1 3.0\n"
            "\n3\n1.0 0.25 7.0\n"
            "\n6\n0.0 1000000000000.0 2.5 0.3 4.0 1.5e-300\n")


# Token-level mutations of valid files.  Every integer a mutation can put in
# a count is at most a small model's table size, so no mutation can ask for
# a large allocation.
_FUZZ_TOKENS = ["-1", "0", "1", "2", "3", "x", "nan", "1e400", "2.5"]


@st.composite
def mutated_uai(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    model = random_model(rng, n_nodes=draw(st.integers(1, 4)), edge_prob=0.5)
    return model, draw(st.lists(
        st.tuples(st.sampled_from(["delete", "duplicate", "swap", "truncate",
                                   "replace"]),
                  st.integers(0, 10**6), st.sampled_from(_FUZZ_TOKENS)),
        min_size=1, max_size=3))


def _mutate(text, mutations):
    """Apply (kind, position, token) mutations to the tokens of ``text``;
    line breaks stay where they are unless a truncation cuts them off."""
    lines = [line.split() for line in text.splitlines()]
    for kind, pos, tok in mutations:
        where = [(i, j) for i, line in enumerate(lines)
                 for j in range(len(line))]
        if not where:
            break
        i, j = where[pos % len(where)]
        if kind == "delete":
            del lines[i][j]
        elif kind == "duplicate":
            lines[i].insert(j, lines[i][j])
        elif kind == "swap":
            k, l = where[(pos + 1) % len(where)]
            lines[i][j], lines[k][l] = lines[k][l], lines[i][j]
        elif kind == "truncate":
            lines = lines[:i] + [lines[i][:j]]
        else:
            lines[i][j] = tok
    return "\n".join(" ".join(line) for line in lines)


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_uai())
def test_parse_mutated_files(tmp_path, case):
    model, mutations = case
    p = tmp_path / "m.uai"
    write_uai(model, p)
    text = _mutate(p.read_text(), mutations)
    p.write_text(text)
    try:
        parse_uai(p)
    except ModelFormatError as exc:
        assert 1 <= exc.line <= max(1, len(text.splitlines()))


class TestGenerate:
    def test_sparse_grid_counts(self):
        m = generate_instance("sparse_grid", height=3, width=3, seed=0)
        assert m.n_nodes == 9
        assert m.n_edges == 12
        assert m.grid_shape == (3, 3)

    def test_complete_counts(self):
        m = generate_instance("complete", n_nodes=5, seed=0)
        assert m.n_edges == 10

    def test_denser_connectivity_target(self):
        m = generate_instance("denser", height=4, width=5,
                              connectivity=0.3, seed=0)
        target = round(0.3 * 20 * 19 / 2)
        assert abs(m.n_edges - target) <= 1

    def test_deterministic_per_seed(self, tmp_path):
        for regime in REGIMES:
            a = generate_instance(regime, height=3, width=3, n_nodes=6,
                                  seed=4)
            b = generate_instance(regime, height=3, width=3, n_nodes=6,
                                  seed=4)
            pa, pb = tmp_path / "a.uai", tmp_path / "b.uai"
            write_uai(a, pa)
            write_uai(b, pb)
            assert pa.read_bytes() == pb.read_bytes()

    def test_costs_nonnegative(self):
        for regime in REGIMES:
            m = generate_instance(regime, height=3, width=4, n_nodes=6,
                                  seed=1)
            assert all(t.min() >= 0 for t in m.unary)
            assert all(t.min() >= 0 for t in m.pairwise)

    def test_connectivity_beyond_the_complete_graph_rejected(self):
        # A 3x3 grid has 36 node pairs: connectivity 1 is K_9, 1.1 too many.
        m = generate_instance("denser", height=3, width=3, connectivity=1.0)
        assert m.n_edges == 36
        with pytest.raises(ValueError, match="exceeds the complete graph"):
            generate_instance("denser", height=3, width=3, connectivity=1.1)

    @pytest.mark.parametrize("spec, name", [
        ("sparse_grid:-1", "height"), ("sparse_grid:3,-2", "width"),
        ("complete:-3", "n_nodes"), ("denser:4,4,3,-0.5", "connectivity")])
    def test_bad_sizes_rejected(self, spec, name, capsys):
        regime, kwargs = _parse_generate(spec)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            generate_instance(regime, **kwargs)
        assert main(["solve", "--generate", spec, "--method", "msd"]) == 1
        assert f"{name} must be" in capsys.readouterr().err

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError):
            generate_instance("ring", seed=0)

    # sha256 of each instance's unary tables, pairwise tables and edges (as
    # little-endian float64 and int64): generation is pinned to the bit.
    @pytest.mark.parametrize("regime, size, seed, digest", [
        ("sparse_grid", dict(height=32, width=32, labels=8), 0,
         "47657fb714bc179467b13d01ca5162292d6ad7d1fe06144af3af5c234fe9d2e6"),
        ("sparse_grid", dict(height=32, width=32, labels=8), 1,
         "a1bfc59a600cca97c9ae48e50b293e8e0c094702a84019ecbcfc9b7fc98163c3"),
        ("sparse_grid", dict(height=5, width=7, labels=3), 0,
         "6b87f83b6fd6d0977869e74c9e1728fbff2b4190d68a92d2c18ea3b218d08920"),
        ("sparse_grid", dict(height=5, width=7, labels=3), 1,
         "595f857ca6af2acb4b9889cf9a6e887ec20fd49d564fa50e670926cc2f265848"),
        ("denser", dict(height=12, width=12, labels=6), 0,
         "92f2e121b7af4d01adbc4dbe82f3705f087f352b73e089e14b5e34dfa4e92580"),
        ("denser", dict(height=12, width=12, labels=6), 1,
         "b23f69f3edb4c910d3b5b4cdd60deeb37c7757598cd08c4903f4c08ec47dea9d"),
        ("complete", dict(n_nodes=50, labels=4), 0,
         "5871a4e7dfa5e5b494127da896aa9196fcd56bc69f9ab818e92c6ae2f1dba6a0"),
        ("complete", dict(n_nodes=50, labels=4), 1,
         "88d645ffa691ad4117101862c5f4c8fa227065c4defbe8ace225f87095e00f0c"),
    ])
    def test_tables_pinned(self, regime, size, seed, digest):
        m = generate_instance(regime, seed=seed, **size)
        h = hashlib.sha256()
        h.update(np.concatenate(m.unary).astype("<f8").tobytes())
        h.update(np.stack(m.pairwise).astype("<f8").tobytes())
        h.update(np.array(m.edges, dtype="<i8").tobytes())
        assert h.hexdigest() == digest

import numpy as np
import pytest

from dualbca.generate import REGIMES, generate_instance, random_model
from dualbca.model import COST_CAP
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
    ], ids=["zero-cardinality", "negative-cardinality",
            "negative-variable-count", "negative-factor-count"])
    def test_hostile_counts_rejected(self, tmp_path, text, line, what):
        p = write(tmp_path, text)
        with pytest.raises(ModelFormatError, match=what) as exc:
            parse_uai(p)
        assert exc.value.line == line

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

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError):
            generate_instance("ring", seed=0)

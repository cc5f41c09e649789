"""Binary-tree aggregation baseline and strategy-matrix loading.

The covering construction is pinned on hand-checkable sizes, the full
decoder against numpy's pseudoinverse, the closed-form errors and
sensitivity against the dense tree and decoder, and the published-table
loss row as a regression anchor.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrnoise.loss_metrics import dense_error, mechanism_loss
from corrnoise.participation import ParticipationSchema, matrix_sensitivity_lower_bound
from corrnoise.tree_baseline import (
    _tree_errors,
    _tree_sensitivity,
    build_tree_matrix,
    eval_tree,
    full_decoder,
    load_strategy_matrix,
    tree_eval_horizon,
    tree_loss_fn,
)


class TestBuildTree:
    def test_n1(self):
        t = build_tree_matrix(1)
        np.testing.assert_array_equal(t.C, [[1.0]])

    def test_n2(self):
        t = build_tree_matrix(2)
        np.testing.assert_array_equal(t.C, [[1, 0], [0, 1], [1, 1]])

    def test_n4_structure(self):
        C = build_tree_matrix(4).C
        assert C.shape == (7, 4)
        # every column participates once per level
        np.testing.assert_array_equal(C.sum(axis=0), [3, 3, 3, 3])
        assert np.all((C == 0) | (C == 1))

    def test_n3_truncation_drops_zero_rows(self):
        C = build_tree_matrix(3).C
        assert C.shape[1] == 3
        assert np.all(np.abs(C).sum(axis=1) > 0)
        # column sums still equal the level count of the covering tree
        np.testing.assert_array_equal(C.sum(axis=0), [3, 3, 3])

    def test_levels_match_bit_length(self):
        for n in (1, 2, 4, 8, 16, 64):
            t = build_tree_matrix(n)
            assert t.levels == int(np.log2(n)) + 1

    def test_guard(self):
        with pytest.raises(ValueError):
            build_tree_matrix(100000)


class TestFullDecoder:
    def test_decoder_reconstructs_prefix_sums(self):
        for n in (1, 2, 8, 32):
            tree = build_tree_matrix(n)
            B = full_decoder(tree)
            A = np.tril(np.ones((n, n)))
            np.testing.assert_allclose(B @ tree.C, A, atol=1e-10)

    def test_matches_pinv_oracle(self):
        tree = build_tree_matrix(16)
        B = full_decoder(tree)
        Bref = np.cumsum(np.linalg.pinv(tree.C), axis=0)
        np.testing.assert_allclose(B, Bref, atol=1e-9)


@lru_cache(maxsize=None)
def _dense_tree(h):
    return build_tree_matrix(h)


class TestClosedForm:
    @pytest.mark.parametrize("h", [1 << L for L in range(12)])
    def test_errors_match_dense_decoder(self, h):
        want = dense_error(full_decoder(_dense_tree(h)))
        np.testing.assert_allclose(_tree_errors(h), want, rtol=1e-12, atol=0)

    @given(
        levels=st.integers(0, 10),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_sensitivity_equals_dense_lower_bound(self, levels, data):
        # n runs past the horizon h, so the k capping is exercised too
        h = 1 << levels
        n = data.draw(st.integers(1, 2 * h), label="n")
        b = data.draw(st.integers(1, n), label="b")
        k = data.draw(st.integers(1, -(-n // b)), label="k")
        schema = ParticipationSchema(n, b, k)
        want = matrix_sensitivity_lower_bound(_dense_tree(h).C, schema)
        assert _tree_sensitivity(h, schema) == want

    def test_rms_error_matches_exact_rational_at_2_to_the_20(self):
        # mean over t of the prefix variance, term by term: the constant
        # vector averages (h+1)(2h+1) / (6 h (2h-1)); at scale s, with
        # q = 2^(s-1), sum_a min(a, 2^s - a)^2 over a block is
        # 2 (q-1) q (2q-1) / 6 + q^2
        h = 1 << 20
        mean_var = Fraction((h + 1) * (2 * h + 1), 6 * h * (2 * h - 1))
        for s in range(1, 21):
            q, size = 1 << (s - 1), 1 << s
            block = Fraction(2 * (q - 1) * q * (2 * q - 1), 6) + q * q
            mean_var += block / (size * size * (size - 1))
        _, rms_error = _tree_errors(h)
        assert rms_error == pytest.approx(math.sqrt(mean_var), rel=1e-15, abs=0)


class TestEvalHorizon:
    @pytest.mark.parametrize(
        "n,expect", [(1, 1), (2, 2), (3, 2), (16, 16), (17, 16), (2052, 2048), (2048, 2048)]
    )
    def test_horizon(self, n, expect):
        assert tree_eval_horizon(n) == expect


class TestEvalTree:
    def test_reference_schema_regression(self):
        # deterministic construction: values pinned from this implementation,
        # consistent with the published comparison row
        bundle = eval_tree(ParticipationSchema(2052, 342, 6))
        assert bundle.sens == pytest.approx(np.sqrt(118.0), rel=1e-12)
        assert bundle.max_error == pytest.approx(1.3791051582881841, rel=1e-9)
        assert bundle.rms_error == pytest.approx(1.1482432515934156, rel=1e-9)
        assert bundle.max_loss == pytest.approx(14.980916608766472, rel=1e-9)
        assert bundle.rms_loss == pytest.approx(12.473114392561255, rel=1e-9)
        assert bundle.sens_method == "lower_bound"

    def test_single_participation_power_of_two(self):
        # at n=16, k=1 the worst column participates in 5 levels: sens sqrt(5)
        bundle = eval_tree(ParticipationSchema(16, 16, 1))
        assert bundle.sens == pytest.approx(np.sqrt(5.0), rel=1e-12)

    def test_schema_on_bundle_is_the_requested_one(self):
        s = ParticipationSchema(100, 10, 10)
        bundle = eval_tree(s)
        assert bundle.schema == s  # horizon capping is internal

    def test_evaluator_rejects_schema_of_another_horizon(self):
        # evaluated at n = 64, a 128-round schema would read sens 6.63
        # against 12.33 at its own n: an under-reported sensitivity
        loss_fn = tree_loss_fn(64)
        s = ParticipationSchema(64, 16, 4)
        assert loss_fn(s) == eval_tree(s)
        with pytest.raises(ValueError, match="schema has n = 128"):
            loss_fn(ParticipationSchema(128, 16, 8))
        assert eval_tree(ParticipationSchema(128, 16, 8)).sens == pytest.approx(
            math.sqrt(152.0), rel=1e-12
        )


class TestMatrixContainer:
    def test_csv_roundtrip_bit_identical(self, tmp_path, rng):
        C = np.tril(rng.normal(size=(6, 6))) + 2 * np.eye(6)
        path = tmp_path / "strategy.csv"
        np.savetxt(path, C, delimiter=",", fmt="%.17g")
        np.testing.assert_array_equal(load_strategy_matrix(path), C)

    def test_binary_roundtrip_bit_identical(self, tmp_path, rng):
        # .npy is the binary format
        C = np.tril(rng.normal(size=(5, 5))) + 2 * np.eye(5)
        path = tmp_path / "strategy.npy"
        np.save(path, C)
        np.testing.assert_array_equal(load_strategy_matrix(path), C)

    def test_format_sniffing(self, tmp_path, rng):
        # .npy by extension, anything else parsed as CSV
        C = np.tril(rng.normal(size=(4, 4))) + 2 * np.eye(4)
        p1, p2 = tmp_path / "a.npy", tmp_path / "b.any"
        np.save(p1, C)
        np.savetxt(p2, C, delimiter=",", fmt="%.17g")
        np.testing.assert_array_equal(load_strategy_matrix(p1), load_strategy_matrix(p2))

    def test_loader_reads_and_mechanism_loss_checks(self, tmp_path):
        # the loader only reads; the matrix is checked where it is used
        schema = ParticipationSchema(2, 1, 2)
        for name, C, reason in [
            ("nonsq", np.ones((2, 3)), r"must be \(2, 2\), got \(2, 3\)"),
            ("nonlt", np.array([[1.0, 0.5], [0.0, 1.0]]), "lower-triangular"),
            ("nan", np.array([[np.nan, 0.0], [1.0, 1.0]]), "NaN or Inf"),
            ("zerodiag", np.array([[1.0, 0.0], [1.0, 0.0]]), "nonzero diagonal"),
        ]:
            csv_path, npy_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.npy"
            np.savetxt(csv_path, C, delimiter=",")
            np.save(npy_path, C)
            for path in (csv_path, npy_path):
                loaded = load_strategy_matrix(path)
                np.testing.assert_array_equal(loaded, C)
                with pytest.raises(ValueError, match=reason):
                    mechanism_loss(loaded, schema)
        # what cannot be read raises, naming the file
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("1.0,0.0\n1.0\n")
        pickled = tmp_path / "pickled.npy"
        np.save(pickled, np.array([[{"a": 1}]], dtype=object))  # never unpickled
        for path in (ragged, pickled):
            with pytest.raises(ValueError, match=path.name):
                load_strategy_matrix(path)

"""Strategy coefficients, the inverse pairing, and streaming multiplication.

Oracles: geometric series closed forms at d=1, dense triangular algebra
for the streaming paths, and polynomial convolution for the pairing
roundtrip. Published four-buffer parameter sets are pinned as regression
anchors.
"""

import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrnoise.blt_core as blt_core
from corrnoise.blt_core import (
    DEGENERATE_GAP,
    IDENTITY_MECHANISM,
    BltParams,
    DegenerateParamsError,
    blt_coefs,
    blt_inverse_coefs,
    calc_output_scale,
    inverse_blt_params,
    load_params,
    make_noise_generator,
    save_params,
    stream_mult_inverse,
    stream_mult_inverse_block,
    toeplitz_inverse_coefs,
)
import corrnoise.blt_optimizer as blt_optimizer
import corrnoise.tree_baseline as tree_baseline
from corrnoise.blt_optimizer import OptimizerConfig, _chain, _init_point, optimize_blt
from corrnoise.ftrl_sim import TrainConfig, make_population
from corrnoise.participation import ParticipationSchema
from corrnoise.tree_baseline import build_tree_matrix, tree_loss_fn

# reference four-buffer parameter sets (production-grade optima)
THETA_B400 = np.array(
    [0.9999999999921251, 0.9944453083640997, 0.8985923474607591, 0.4912001418098778]
)
OMEGA_B400 = np.array(
    [0.0070314825502323835, 0.10613806907600574, 0.1898159060327625, 0.1966594748073734]
)


from oracles import lt_toeplitz, stream_mult, stream_mult_inverse_gemv
from strategies import blt_params_strategy, near_unit_params_strategy


class TestBltParams:
    def test_d_property_and_shape_mismatch(self):
        p = BltParams(np.array([0.5, 0.2]), np.array([0.1, 0.1]))
        assert p.d == 2
        with pytest.raises(ValueError):
            BltParams(np.array([0.5]), np.array([0.1, 0.1]))

    @pytest.mark.parametrize(
        "theta, omega",
        [
            ([1.0], [0.5]),  # decay at 1 not allowed strictly
            ([0.0], [0.5]),
            ([-0.1], [0.5]),
            ([0.5, 0.5], [0.1, 0.1]),  # duplicate decays
            ([0.2, 0.5], [0.1, 0.1]),  # wrong order
            ([0.5], [0.0]),  # zero weight not allowed strictly
            ([0.5], [-0.1]),
            ([0.9, 0.5], [0.7, 0.5]),  # sum > 1
        ],
    )
    def test_strict_validation_rejects(self, theta, omega):
        with pytest.raises(ValueError):
            BltParams(np.array(theta, dtype=float), np.array(omega, dtype=float)).validate()

    def test_identity_is_the_zero_buffer_blt(self):
        assert IDENTITY_MECHANISM.d == 0
        assert IDENTITY_MECHANISM.validate() is IDENTITY_MECHANISM
        np.testing.assert_array_equal(blt_coefs(IDENTITY_MECHANISM, 5), np.eye(5)[0])


class TestBltCoefs:
    def test_d1_geometric_closed_form(self):
        p = BltParams(np.array([0.5]), np.array([0.25]))
        c = blt_coefs(p, 6)
        expect = np.array([1.0, 0.25, 0.125, 0.0625, 0.03125, 0.015625])
        np.testing.assert_allclose(c, expect, rtol=0, atol=0)

    def test_first_coef_is_one_second_is_omega_sum(self):
        c = blt_coefs(BltParams(THETA_B400, OMEGA_B400), 4)
        assert c[0] == 1.0
        assert c[1] == pytest.approx(OMEGA_B400.sum(), rel=1e-15)

    def test_reference_params_give_decreasing_positive_coefs(self):
        c = blt_coefs(BltParams(THETA_B400, OMEGA_B400), 2000)
        assert np.all(c > 0)
        assert np.all(np.diff(c[1:]) <= 0)

    def test_unit_decay_rejected(self):
        # theta = 1, omega = 1 would be the prefix-sum column, which is not a BLT
        with pytest.raises(ValueError, match="strictly inside"):
            blt_coefs(BltParams(np.array([1.0]), np.array([1.0])), 5)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            blt_coefs(BltParams(np.array([0.5]), np.array([0.25])), 0)


class TestOutputScalePairing:
    def test_d1_weight_is_decay_difference(self):
        # for a single buffer the pairing weight is theta - theta_hat,
        # positive when theta_hat < theta
        w = calc_output_scale(np.array([0.5]), np.array([0.25]))
        assert w.shape == (1,)
        assert w[0] == pytest.approx(0.25, rel=1e-15)

    def test_identical_decays_give_zero_weights(self):
        th = np.array([0.8, 0.3])
        np.testing.assert_allclose(calc_output_scale(th, th), 0.0, atol=1e-14)

    def test_duplicate_decays_rejected(self):
        with pytest.raises(DegenerateParamsError):
            calc_output_scale(np.array([0.5, 0.5 + DEGENERATE_GAP / 2]), np.array([0.3, 0.2]))

    def test_pairing_builds_mutual_inverses(self, rng):
        # for ANY distinct decays, weights from the pairing formula make
        # the two strategies exact inverses (polynomial identity)
        theta = np.array([0.9, 0.6, 0.2])
        theta_hat = np.array([0.85, 0.5, 0.1])
        omega = calc_output_scale(theta, theta_hat)
        omega_hat = calc_output_scale(theta_hat, theta)
        from corrnoise.blt_core import _geometric_coefs

        n = 40
        c = _geometric_coefs(theta, omega, n).real
        chat = _geometric_coefs(theta_hat, omega_hat, n).real
        conv = np.convolve(c, chat)[:n]
        expect = np.zeros(n)
        expect[0] = 1.0
        np.testing.assert_allclose(conv, expect, atol=1e-12)


class TestInverseBltParams:
    def test_d1_closed_form(self):
        pair = inverse_blt_params(BltParams(np.array([0.5]), np.array([0.25])))
        assert pair.theta_hat[0] == pytest.approx(0.25, abs=1e-14)
        assert pair.omega_hat[0] == pytest.approx(-0.25, abs=1e-14)

    def test_identity_params(self):
        # the 0 x 0 eigenproblem: the inverse of no buffers has no buffers
        pair = inverse_blt_params(IDENTITY_MECHANISM)
        assert pair.theta_hat.shape == pair.omega_hat.shape == (0,)
        np.testing.assert_array_equal(blt_inverse_coefs(IDENTITY_MECHANISM, 5), np.eye(5)[0])

    def test_reference_params_roundtrip(self):
        p = BltParams(THETA_B400, OMEGA_B400)
        pair = inverse_blt_params(p)
        n = 512
        conv = np.convolve(blt_coefs(p, n), blt_inverse_coefs(p, n))[:n]
        expect = np.zeros(n)
        expect[0] = 1.0
        np.testing.assert_allclose(conv, expect, atol=1e-9)
        assert np.all(pair.theta_hat < p.theta)  # inverse decays interlace below

    def test_double_inverse_returns_original(self):
        p = BltParams(np.array([0.9, 0.4]), np.array([0.3, 0.2]))
        pair = inverse_blt_params(p)
        # invert the inverse: coefficients must match the originals
        n = 64
        from corrnoise.blt_core import _geometric_coefs

        chat = _geometric_coefs(pair.theta_hat, pair.omega_hat, n).real
        back = toeplitz_inverse_coefs(chat)
        np.testing.assert_allclose(back, blt_coefs(p, n), atol=1e-11)

    @pytest.mark.parametrize(
        "theta, omega", [([0.5], [0.5]), ([0.6, 0.2], [0.3, 0.1])]
    )
    def test_zero_inverse_decay_matches_recurrence(self, theta, omega):
        # sum omega_j/theta_j = 1 drops the numerator's top coefficient,
        # so one inverse decay is exactly 0
        p = BltParams(np.array(theta), np.array(omega))
        assert 0.0 in inverse_blt_params(p).theta_hat
        n = 64
        np.testing.assert_allclose(
            blt_inverse_coefs(p, n), toeplitz_inverse_coefs(blt_coefs(p, n)), atol=1e-15
        )

    def test_clustered_near_unit_decays_recovered(self):
        # strictly valid, decays clustered within 2e-7 of 1: the inverse
        # must still match the O(n^2) recurrence
        p = BltParams(
            np.array(
                [0.9999999999979902, 0.9999991690470281, 0.9999988894693115, 0.9998056233041457]
            ),
            np.array(
                [0.011336799171235427, 0.08245482036850915, 0.010255957597176691, 0.03865370313777184]
            ),
        )
        p.validate()
        n = 512
        np.testing.assert_allclose(
            blt_inverse_coefs(p, n), toeplitz_inverse_coefs(blt_coefs(p, n)), rtol=0, atol=1e-12
        )

    @settings(max_examples=60)
    @given(near_unit_params_strategy())
    def test_near_unit_decays_match_recurrence(self, p):
        n = 512
        np.testing.assert_allclose(
            blt_inverse_coefs(p, n), toeplitz_inverse_coefs(blt_coefs(p, n)), rtol=0, atol=1e-12
        )


class TestToeplitzInverseCoefs:
    def test_hand_cases(self):
        np.testing.assert_array_equal(toeplitz_inverse_coefs(np.array([1.0])), [1.0])
        np.testing.assert_array_equal(
            toeplitz_inverse_coefs(np.array([2.0, 0.0, 0.0])), [0.5, 0.0, 0.0]
        )
        np.testing.assert_array_equal(
            toeplitz_inverse_coefs(np.array([1.0, 1.0])), [1.0, -1.0]
        )
        # c = (1, 1/2, 1/4): inverse terminates after one step
        np.testing.assert_allclose(
            toeplitz_inverse_coefs(np.array([1.0, 0.5, 0.25])), [1.0, -0.5, 0.0], atol=1e-15
        )

    def test_dense_inverse_oracle(self, rng):
        c = np.array([1.0, *rng.uniform(-0.4, 0.4, 19)])
        Cinv = np.linalg.inv(lt_toeplitz(c))
        np.testing.assert_allclose(toeplitz_inverse_coefs(c), Cinv[:, 0], atol=1e-12)

    def test_zero_leading_coef_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_inverse_coefs(np.array([0.0, 1.0]))


class TestStreaming:
    def test_stream_mult_matches_dense(self, rng):
        p = BltParams(np.array([0.9, 0.5]), np.array([0.2, 0.3]))
        X = rng.normal(size=(12, 3))
        dense = lt_toeplitz(blt_coefs(p, 12)) @ X
        np.testing.assert_allclose(stream_mult(p, X), dense, atol=1e-12)

    def test_stream_mult_inverse_matches_dense_solve(self, rng):
        p = BltParams(np.array([0.9, 0.5]), np.array([0.2, 0.3]))
        Z = rng.normal(size=(12, 3))
        dense = np.linalg.solve(lt_toeplitz(blt_coefs(p, 12)), Z)
        state = make_noise_generator(p, m=3, noise_std=0.0, max_rounds=12)
        out = np.stack([stream_mult_inverse(state, Z[t])[0] for t in range(12)])
        np.testing.assert_allclose(out, dense, atol=1e-12)

    def test_buffer_state_is_exactly_d_by_m(self):
        state = make_noise_generator(
            BltParams(np.array([0.9, 0.5, 0.1]), np.array([0.2, 0.2, 0.2])),
            m=7,
            noise_std=1.0,
        )
        assert state.buffers.shape == (3, 7)
        assert state.buffers.size == 3 * 7

    def test_seed_determinism_and_horizon_guard(self):
        p = BltParams(np.array([0.7]), np.array([0.3]))
        a = make_noise_generator(p, m=2, noise_std=1.5, seed=42, max_rounds=3)
        b = make_noise_generator(p, m=2, noise_std=1.5, seed=42, max_rounds=3)
        rows_a = [stream_mult_inverse(a)[0] for _ in range(3)]
        rows_b = [stream_mult_inverse(b)[0] for _ in range(3)]
        np.testing.assert_array_equal(np.stack(rows_a), np.stack(rows_b))
        with pytest.raises(RuntimeError):
            stream_mult_inverse(a)

    @pytest.mark.parametrize("supplied", [False, True], ids=["philox", "supplied"])
    def test_resume_from_checkpoint_is_bit_identical(self, monkeypatch, supplied, rng):
        monkeypatch.setattr(blt_core, "_CHUNK", 16)
        block = blt_core._BLOCK_CHUNKS * 16  # 128 columns
        p = BltParams(np.array([0.9, 0.5]), np.array([0.2, 0.3]))
        for m in (3, 2 * block + 37):  # one block, and three with the worker thread
            rows = list(rng.normal(size=(10, m))) if supplied else [None] * 10

            def fresh(seed):
                return make_noise_generator(p, m=m, noise_std=1.5, seed=seed, max_rounds=10)

            whole = fresh(42)
            expect = np.stack([stream_mult_inverse(whole, rows[t])[0] for t in range(10)])
            first = fresh(42)
            head = [stream_mult_inverse(first, rows[t])[0] for t in range(5)]
            checkpoint = (first.buffers.copy(), first.round, first.rng.bit_generator.state)
            # a different seed shows the restored Philox state, not the seed, drives it
            resumed = fresh(7)
            resumed.buffers[...] = checkpoint[0]
            resumed.round = checkpoint[1]
            resumed.rng.bit_generator.state = checkpoint[2]
            tail = [stream_mult_inverse(resumed, rows[t])[0] for t in range(5, 10)]
            np.testing.assert_array_equal(np.stack(head + tail), expect)
            with pytest.raises(RuntimeError):  # the restored round keeps the horizon
                stream_mult_inverse(resumed)

    def test_identity_stream_passes_rows_through(self, rng):
        state = make_noise_generator(IDENTITY_MECHANISM, m=3, noise_std=1.0)
        assert state.buffers.shape == (0, 3)
        for row in rng.normal(size=(4, 3)):
            np.testing.assert_array_equal(stream_mult_inverse(state, row)[0], row)
        np.testing.assert_array_equal(stream_mult(IDENTITY_MECHANISM, np.eye(3)), np.eye(3))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_bad_noise_std_rejected(self, bad):
        with pytest.raises(ValueError, match="noise_std"):
            make_noise_generator(IDENTITY_MECHANISM, m=2, noise_std=bad)

    @pytest.mark.parametrize("bad", [-1, 1.5])
    def test_bad_seed_rejected(self, bad):
        # numpy rejects -1 with its own error, and Philox(int(1.5)) was seed 1
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            make_noise_generator(IDENTITY_MECHANISM, m=2, noise_std=1.0, seed=bad)

    def test_input_row_shape_check(self):
        p = BltParams(np.array([0.7]), np.array([0.3]))
        state = make_noise_generator(p, m=2, noise_std=1.0)
        with pytest.raises(ValueError):
            stream_mult_inverse(state, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected_without_state_change(self, bad):
        p = BltParams(np.array([0.9, 0.5]), np.array([0.2, 0.3]))
        state = make_noise_generator(p, m=3, noise_std=1.0)
        stream_mult_inverse(state, np.array([1.0, -2.0, 0.5]))
        buffers = state.buffers.copy()
        with pytest.raises(ValueError):
            stream_mult_inverse(state, np.array([1.0, bad, 0.5]))
        np.testing.assert_array_equal(state.buffers, buffers)
        assert state.round == 1

    @given(params=blt_params_strategy(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 48))
    @settings(max_examples=100)
    def test_stream_roundtrip_recovers_input(self, params, seed, n):
        # C^-1 (C X) = X through the two streaming passes
        X = np.random.default_rng(seed).normal(size=(n, 2))
        Z = stream_mult(params, X)
        state = make_noise_generator(params, m=2, noise_std=0.0)
        back = np.stack([stream_mult_inverse(state, Z[t])[0] for t in range(n)])
        np.testing.assert_allclose(back, X, atol=1e-9)


STREAM_PARAMS = {
    0: IDENTITY_MECHANISM,
    1: BltParams(np.array([0.9]), np.array([0.3])),
    4: BltParams(THETA_B400, OMEGA_B400),
}


def _philox_state(gen):
    """The generator's state as text, so that its arrays compare whole."""
    return repr(gen.bit_generator.state)


class _FailingRng:
    """Passes draws on to ``rng`` until draw number ``fail_at``, which raises."""

    def __init__(self, rng, fail_at):
        self.rng, self.fail_at, self.calls, self.failed_on = rng, fail_at, 0, None

    def standard_normal(self, out):
        self.calls += 1
        if self.calls == self.fail_at:
            self.failed_on = threading.current_thread()
            raise RuntimeError("draw failed")
        return self.rng.standard_normal(out=out)


class _CountingThread(threading.Thread):
    """``threading.Thread`` that counts its starts and joins."""

    starts = joins = 0

    def start(self):
        type(self).starts += 1
        super().start()

    def join(self, timeout=None):
        type(self).joins += 1
        super().join(timeout)


class TestFusedRound:
    """The chunked round: its bits, its Philox draws, its worker thread and its allocation."""

    CHUNK = 16
    BLOCK = blt_core._BLOCK_CHUNKS * CHUNK
    MULTI_BLOCK = 3 * BLOCK + 37

    def _stream(self, monkeypatch, chunk, d, m, supplied):
        """Rows, final buffers and per-round Philox states of a four-round stream."""
        monkeypatch.setattr(blt_core, "_CHUNK", chunk)
        state = make_noise_generator(STREAM_PARAMS[d], m=m, noise_std=1.5, seed=9)
        rows = np.random.default_rng(d * 1000 + m).normal(size=(4, m))
        out, rngs = [], []
        for t in range(4):
            out.append(stream_mult_inverse(state, rows[t] if supplied else None)[0])
            rngs.append(_philox_state(state.rng))
        return np.stack(out), state.buffers, rngs

    @pytest.mark.parametrize("supplied", [False, True], ids=["philox", "supplied"])
    @pytest.mark.parametrize("d", [0, 1, 4])
    @pytest.mark.parametrize(
        "m",
        [1, 5, CHUNK, CHUNK + 1, 5 * CHUNK + 3, BLOCK, BLOCK + 1, MULTI_BLOCK],
        ids=["m1", "below-chunk", "chunk", "chunk-plus-1", "odd-multi-chunk",
             "block", "block-plus-1", "odd-multi-block"],
    )
    def test_bits_independent_of_chunk_width(self, monkeypatch, m, d, supplied):
        ref = self._stream(monkeypatch, m, d, m, supplied)  # one chunk
        for chunk in (1, 3, self.CHUNK):
            got = self._stream(monkeypatch, chunk, d, m, supplied)
            assert got[0].tobytes() == ref[0].tobytes()
            assert got[1].tobytes() == ref[1].tobytes()
            assert got[2] == ref[2]

    @pytest.mark.parametrize("supplied", [False, True], ids=["philox", "supplied"])
    def test_bits_hold_under_fast_thread_switching(self, monkeypatch, supplied):
        # a recurrence that ran ahead of its worker would read unfilled columns
        ref = self._stream(monkeypatch, self.MULTI_BLOCK, 4, self.MULTI_BLOCK, supplied)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):  # blocks of 8 columns: 53 per round
                got = self._stream(monkeypatch, 1, 4, self.MULTI_BLOCK, supplied)
                assert got[0].tobytes() == ref[0].tobytes()
                assert got[1].tobytes() == ref[1].tobytes()
                assert got[2] == ref[2]
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("noise_std", [1.5, 0.0])
    @pytest.mark.parametrize("d", [0, 4])
    def test_philox_state_follows_one_normal_draw_per_round(
        self, monkeypatch, d, noise_std
    ):
        monkeypatch.setattr(blt_core, "_CHUNK", self.CHUNK)
        for m in (5 * self.CHUNK + 3, self.BLOCK + 1, self.MULTI_BLOCK):
            state = make_noise_generator(STREAM_PARAMS[d], m=m, noise_std=noise_std, seed=4)
            twin = np.random.Generator(np.random.Philox(4))
            for t in range(5):
                row = stream_mult_inverse(state)[0]
                draw = twin.normal(0.0, noise_std, size=m)
                assert _philox_state(state.rng) == _philox_state(twin)
                if t == 0:  # zero buffers: the first row is the draw, signed zeros too
                    assert row.tobytes() == draw.tobytes()

    @pytest.mark.parametrize("m", [1, 7, 20, 1000])
    def test_within_rounding_of_matrix_product_form(self, monkeypatch, m):
        monkeypatch.setattr(blt_core, "_CHUNK", self.CHUNK)
        params = STREAM_PARAMS[4]
        state = make_noise_generator(params, m=m, noise_std=1.0, seed=3)
        twin = np.random.Generator(np.random.Philox(3))
        S = np.zeros((params.d, m))
        for _ in range(30):
            row = stream_mult_inverse(state)[0]
            expect = stream_mult_inverse_gemv(params, S, twin.normal(0.0, 1.0, size=m))
            assert np.max(np.abs(row - expect)) <= 1e-14 * np.max(np.abs(expect))

    @pytest.fixture
    def threads(self, monkeypatch):
        """Count the threads started and joined from here on."""
        monkeypatch.setattr(blt_core, "_CHUNK", self.CHUNK)
        monkeypatch.setattr(threading, "Thread", _CountingThread)
        monkeypatch.setattr(_CountingThread, "starts", 0)
        monkeypatch.setattr(_CountingThread, "joins", 0)
        return _CountingThread

    @pytest.mark.parametrize("fail_at", [2, 4], ids=["second-block", "last-block"])
    def test_worker_error_is_raised_and_its_thread_joined(self, threads, fail_at):
        state = make_noise_generator(
            STREAM_PARAMS[4], m=self.MULTI_BLOCK, noise_std=1.0, seed=2
        )
        state.rng = failing = _FailingRng(state.rng, fail_at)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            stream_mult_inverse(state)
        assert failing.failed_on is not threading.main_thread()
        assert (threads.starts, threads.joins) == (1, 1)
        assert threading.active_count() == before
        assert state.round == 0

    def test_only_rounds_past_one_block_start_a_thread(self, threads):
        # a supplied row is read in place at any width; only draws need the worker
        before = threading.active_count()
        for m in (1, 20, self.BLOCK, self.BLOCK + 1, self.MULTI_BLOCK):
            state = make_noise_generator(STREAM_PARAMS[4], m=m, noise_std=1.0, seed=2)
            stream_mult_inverse(state, np.ones(m))
            if m <= self.BLOCK:
                stream_mult_inverse(state)
        assert threads.starts == 0
        state = make_noise_generator(STREAM_PARAMS[4], m=self.BLOCK + 1, noise_std=1.0)
        stream_mult_inverse(state)
        assert (threads.starts, threads.joins) == (1, 1)  # one worker per drawn round
        assert threading.active_count() == before

    def test_import_starts_no_thread(self):
        # a fresh interpreter that counts every thread started from here on
        code = (
            "import threading\n"
            "starts = []\n"
            "start = threading.Thread.start\n"
            "threading.Thread.start = lambda self: (starts.append(self), start(self))\n"
            "import corrnoise\n"
            "print(len(starts), threading.active_count())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(blt_core.__file__))},
        )
        assert proc.stdout.split() == ["0", "1"]

    @pytest.mark.parametrize("supplied", [False, True], ids=["philox", "supplied"])
    def test_round_allocates_one_row(self, supplied):
        m = 1 << 18
        state = make_noise_generator(STREAM_PARAMS[4], m=m, noise_std=1.0, seed=1)
        row = np.random.default_rng(1).normal(size=m) if supplied else None
        stream_mult_inverse(state, row)  # warm-up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stream_mult_inverse(state, row)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * m


BLOCK_PARAMS = {
    **STREAM_PARAMS,
    2: BltParams(np.array([0.9, 0.5]), np.array([0.2, 0.3])),
    3: BltParams(np.array([0.9, 0.5, 0.1]), np.array([0.2, 0.2, 0.2])),
}


class TestNoiseBlock:
    """A block of rows equals as many streaming rounds: rows, buffers, round, Philox."""

    @staticmethod
    def _twins(d, m, noise_std, start, max_rounds=None):
        """Two equal states, each ``start`` rounds into the stream."""
        states = [
            make_noise_generator(
                BLOCK_PARAMS[d], m=m, noise_std=noise_std, seed=21, max_rounds=max_rounds
            )
            for _ in range(2)
        ]
        for state in states:
            for _ in range(start):
                stream_mult_inverse(state)
        return states

    @staticmethod
    def _checkpoint(state):
        return state.buffers.tobytes(), state.round, _philox_state(state.rng)

    @pytest.mark.parametrize("noise_std", [1.5, 0.0])
    @pytest.mark.parametrize("start", [0, 3], ids=["fresh", "mid-stream"])
    @pytest.mark.parametrize("m", [1, 20, (1 << 16) + 3])
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    def test_equals_streaming_rounds(self, d, m, start, noise_std):
        # the horizon is reached exactly, which both paths allow
        streamed, blocked = self._twins(d, m, noise_std, start, max_rounds=start + 5)
        want = np.stack([stream_mult_inverse(streamed)[0] for _ in range(5)])
        got = stream_mult_inverse_block(blocked, 5)
        assert got.shape == (5, m)
        assert got.tobytes() == want.tobytes()  # signed zeros too
        assert self._checkpoint(blocked) == self._checkpoint(streamed)
        assert blocked.round == start + 5

    def test_block_past_the_horizon_raises_before_any_change(self):
        streamed, blocked = self._twins(4, 20, 1.0, 2, max_rounds=6)
        before = self._checkpoint(blocked)
        with pytest.raises(RuntimeError, match="exhausted its declared horizon of 6 rounds"):
            stream_mult_inverse_block(blocked, 5)
        assert self._checkpoint(blocked) == before
        # the rounds left are still the stream's
        want = np.stack([stream_mult_inverse(streamed)[0] for _ in range(4)])
        assert stream_mult_inverse_block(blocked, 4).tobytes() == want.tobytes()
        with pytest.raises(RuntimeError, match="exhausted"):
            stream_mult_inverse_block(blocked, 1)


class TestParamsIO:
    def test_roundtrip_exact_and_key_set(self, tmp_path):
        path = tmp_path / "params.json"
        p = BltParams(THETA_B400, OMEGA_B400)
        save_params(path, p, opt_n=2000, opt_min_sep=400, opt_max_part=5, objective="max")
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "d",
            "theta",
            "omega",
            "opt_n",
            "opt_min_sep",
            "opt_max_part",
            "objective",
        }
        loaded, meta = load_params(path)
        np.testing.assert_array_equal(loaded.theta, p.theta)  # bit-exact doubles
        np.testing.assert_array_equal(loaded.omega, p.omega)
        assert meta == {
            "opt_n": 2000,
            "opt_min_sep": 400,
            "opt_max_part": 5,
            "objective": "max",
        }

    def test_d_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "d": 3,
                    "theta": [0.5],
                    "omega": [0.2],
                    "opt_n": 10,
                    "opt_min_sep": 1,
                    "opt_max_part": 1,
                    "objective": "max",
                }
            )
        )
        with pytest.raises(ValueError):
            load_params(path)

    @pytest.mark.parametrize("key", ["opt_n", "opt_min_sep", "opt_max_part"])
    @pytest.mark.parametrize("value", [2052.5, 0, "2052"])
    def test_non_integer_metadata_rejected(self, tmp_path, key, value):
        # int() used to truncate 2052.5 to 2052 and accept the string "2052"
        path = tmp_path / "bad.json"
        doc = {"d": 1, "theta": [0.5], "omega": [0.2], "opt_n": 2052,
               "opt_min_sep": 342, "opt_max_part": 6, "objective": "max"}
        path.write_text(json.dumps({**doc, key: value}))
        message = f"{path}: {key} must be an integer >= 1, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_params(path)

    @pytest.mark.parametrize(
        "key, value, reason",
        [("theta", ["0.5"], "theta must be a list of numbers, got ['0.5']"),
         ("theta", 0.5, "theta must be a list of numbers, got 0.5"),
         ("omega", [True], "omega must be a list of numbers, got [True]"),
         ("d", True, "d must be an integer >= 0, got True"),
         ("d", 1.0, "d must be an integer >= 0, got 1.0"),
         ("d", -1, "d must be an integer >= 0, got -1"),
         ("objective", 7, "objective must be one of ('max', 'rms'), got 7"),
         ("objective", "median", "objective must be one of ('max', 'rms'), got 'median'")],
        ids=["string-theta", "scalar-theta", "boolean-omega", "boolean-d", "float-d",
             "negative-d", "numeric-objective", "unknown-objective"],
    )
    def test_wrongly_typed_entry_rejected(self, tmp_path, key, value, reason):
        # np.array kept "0.5" as a string and true as a bool, and any
        # objective was read back
        path = tmp_path / "bad.json"
        doc = {"d": 1, "theta": [0.5], "omega": [0.2], "opt_n": 2052,
               "opt_min_sep": 342, "opt_max_part": 6, "objective": "max"}
        path.write_text(json.dumps({**doc, key: value}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {reason}")):
            load_params(path)

    def test_identity_document_loads(self, tmp_path):
        path = tmp_path / "identity.json"
        save_params(path, IDENTITY_MECHANISM, opt_n=8, opt_min_sep=1, opt_max_part=8,
                    objective="rms")
        params, meta = load_params(path)
        assert params.d == 0 and meta["objective"] == "rms"

    def test_bad_objective_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_params(
                tmp_path / "x.json",
                BltParams(np.array([0.5]), np.array([0.2])),
                opt_n=1,
                opt_min_sep=1,
                opt_max_part=1,
                objective="median",
            )


P2 = BltParams(np.array([0.9, 0.5]), np.array([0.2, 0.3]))
# (entry, valid keyword arguments, the integers it takes with their lower bounds)
INTEGER_ENTRIES = [
    (ParticipationSchema, dict(n=64, b=16, k=4), dict(n=1, b=1, k=1)),
    (
        OptimizerConfig,
        dict(schema=ParticipationSchema(64, 16, 4), d=2, restarts=1, seed=0),
        dict(d=1, restarts=1, seed=0),
    ),
    (
        TrainConfig,
        dict(rounds=12, clients_per_round=2, client_lr=0.1, server_lr=1.0, est_max_part=3),
        dict(rounds=1, clients_per_round=1, min_sep=1, local_epochs=1, batch_size=1,
             est_max_part=1, seed=0),
    ),
    (
        make_population,
        dict(n_clients=4, dim=2, samples_per_client=3, eval_samples=5),
        dict(n_clients=1, dim=1, samples_per_client=1, eval_samples=1, seed=0),
    ),
    (make_noise_generator, dict(params=P2, m=3, noise_std=1.0), dict(m=1, seed=0, max_rounds=1)),
    (
        stream_mult_inverse_block,
        dict(state=make_noise_generator(P2, m=3, noise_std=1.0), rounds=2),
        dict(rounds=1),
    ),
    (blt_coefs, dict(params=P2, n=8), dict(n=1)),
    (blt_inverse_coefs, dict(params=P2, n=8), dict(n=1)),
    (build_tree_matrix, dict(n=8), dict(n=1)),
]


class TestIntegerEntries:
    # every count and seed is checked by one rule with one message where it
    # enters: a fraction would otherwise be truncated or fail mid-run
    @pytest.mark.parametrize(
        "entry, kwargs, name, low",
        [
            pytest.param(e, kw, name, low, id=f"{e.__name__}-{name}")
            for e, kw, ints in INTEGER_ENTRIES
            for name, low in ints.items()
        ],
    )
    @pytest.mark.parametrize("bad", ["fractional", "below-bound", "boolean"])
    def test_rejected_with_the_shared_message(self, entry, kwargs, name, low, bad):
        # True is a numbers.Integral equal to 1, so it passed the bound
        value = {"fractional": 2.5, "below-bound": low - 1, "boolean": True}[bad]
        message = f"{name} must be an integer >= {low}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            entry(**{**kwargs, name: value})

    @pytest.mark.parametrize("schema", [(2052.5, 342, 6), (2052, 342.5, 6)])
    def test_fractional_schema_rejected(self, schema):
        # b = 342.5 used to evaluate to a meaningless sensitivity
        name = "n" if schema[0] != 2052 else "b"
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
            ParticipationSchema(*schema)


INF = float("inf")
# (entry, valid keyword arguments, the reals it takes with their [low, high) bounds)
REAL_ENTRIES = [
    (
        TrainConfig,
        dict(rounds=12, clients_per_round=2, client_lr=0.1, server_lr=1.0),
        dict(client_lr=(-INF, INF), server_lr=(-INF, INF), momentum=(0, 1),
             noise_multiplier=(0, INF)),
    ),
    (
        make_population,
        dict(n_clients=4, dim=2, samples_per_client=3, eval_samples=5),
        dict(heterogeneity=(0, INF)),
    ),
    (make_noise_generator, dict(params=P2, m=3, noise_std=1.0), dict(noise_std=(0, INF))),
]


def _real_cases():
    """(entry, kwargs, name, low, high, bad value) for every real of REAL_ENTRIES."""
    for entry, kwargs, reals in REAL_ENTRIES:
        for name, (low, high) in reals.items():
            bad = {"boolean": True, "nan": float("nan"), "infinite": INF, "string": "0.5"}
            if low > -INF:
                bad["below-bound"] = low - 0.5
            if high < INF:
                bad["at-upper-bound"] = high
            for kind, value in bad.items():
                yield pytest.param(
                    entry, kwargs, name, low, high, value, id=f"{entry.__name__}-{name}-{kind}"
                )


class TestRealEntries:
    # every rate and scale is checked by one rule with one message where it
    # enters: true passed as 1.0, and a momentum of 1e30 overflowed mid-run
    @pytest.mark.parametrize("entry, kwargs, name, low, high, value", _real_cases())
    def test_rejected_with_the_shared_message(self, entry, kwargs, name, low, high, value):
        rule = "finite" + (f" and >= {low}" if low > -INF else "")
        rule += f" and < {high}" if high < INF else ""
        message = f"{name} must be {rule}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entry(**{**kwargs, name: value})

    @pytest.mark.parametrize(
        "entry, kwargs, name, value",
        [pytest.param(e, kw, name, low if low > -INF else -1e300, id=f"{e.__name__}-{name}")
         for e, kw, reals in REAL_ENTRIES for name, (low, _) in reals.items()]
        + [pytest.param(TrainConfig, REAL_ENTRIES[0][1], "momentum", np.float64(0.999),
                        id="TrainConfig-momentum-numpy")],
    )
    def test_bounds_and_numpy_reals_accepted(self, entry, kwargs, name, value):
        entry(**{**kwargs, name: value})


def _interlaced_params(d):
    """A valid d-buffer BLT from the fit's own start point; d = 0 is the identity."""
    if d == 0:
        return IDENTITY_MECHANISM
    theta, theta_hat = _chain(_init_point(np.random.default_rng(d), d))
    return BltParams(theta, calc_output_scale(theta, theta_hat))


def _noise_job(d, size):
    state = make_noise_generator(_interlaced_params(d), size, 1.0)
    stream_mult_inverse(state)


def _fit_job(d, size):
    optimize_blt(OptimizerConfig(ParticipationSchema(size, size // 2, 2), d, restarts=1))


def _tree_job(d, size):
    tree_loss_fn(size)(ParticipationSchema(size, size // 6, 6))


class TestMemoryRule:
    # each job sizes its O(n) or O(m) arrays with _require_memory before it
    # makes them; its traced peak must stay within the rule's float64s, so
    # the rule never under-counts what it lets through
    @pytest.mark.parametrize("size", [1 << 16, (1 << 17) + 3, 1 << 18])
    @pytest.mark.parametrize(
        "job, ds",
        [(_noise_job, range(5)), (_fit_job, range(1, 5)), (_tree_job, [0])],
        ids=["noise-round", "fit-check", "tree-errors"],
    )
    def test_peak_within_the_rule(self, job, ds, size, monkeypatch):
        sized = []

        def record(values, what):
            sized.append(values)

        for module in (blt_core, blt_optimizer, tree_baseline):
            monkeypatch.setattr(module, "_require_memory", record)
        for d in ds:
            job(d, 1 << 12)  # a first call's imports and caches stay out of the peak
            sized.clear()
            tracemalloc.start()
            try:
                job(d, size)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            [values] = sized
            assert peak <= 8 * values, (d, peak / 8 / size)

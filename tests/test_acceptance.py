"""Acceptance gate: end-to-end reproduction targets and property suites.

Reference loss values are bound to metrics by the invariant that a
root-mean-square over prefix indices can never exceed the corresponding
maximum, so in every (value, metric) pairing below the smaller reference
number binds rms_loss and the larger binds max_loss.

Monte-Carlo tests run at fixed seeds and are therefore deterministic;
the statistical thresholds (3 standard errors, one-sided 95%) refer to
the sampling design, not to run-to-run flakiness.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    blt_loss_gradient,
    exact_sensitivity_bruteforce,
    log_entries,
    lt_toeplitz,
    stream_mult,
)
from strategies import blt_params_strategy, monotone_coefs_strategy

from corrnoise.accountant import eps_of_zcdp, zcdp_of
from corrnoise.blt_core import (
    BltParams,
    blt_coefs,
    blt_inverse_coefs,
    load_params,
    make_noise_generator,
    stream_mult_inverse,
    toeplitz_inverse_coefs,
)
from corrnoise.blt_optimizer import OptimizerConfig, blt_loss, optimize_blt
from corrnoise.ftrl_sim import TrainConfig, make_population, run_training
from corrnoise.loss_metrics import blt_mechanism_loss, dense_error, toeplitz_error
from corrnoise.participation import (
    ParticipationSchema,
    max_participations,
    toeplitz_sensitivity,
)
from corrnoise.tree_baseline import eval_tree

REFERENCE_SCHEMA = ParticipationSchema(2052, 342, 6)

# production four-buffer parameter sets used as fixed test mechanisms
THETA_B400 = np.array(
    [0.9999999999921251, 0.9944453083640997, 0.8985923474607591, 0.4912001418098778]
)
OMEGA_B400 = np.array(
    [0.0070314825502323835, 0.10613806907600574, 0.1898159060327625, 0.1966594748073734]
)
THETA_B1000 = np.array(
    [0.9999999999983397, 0.9973412136664378, 0.9584629472313878, 0.6581796870749317]
)
OMEGA_B1000 = np.array(
    [0.008657392263671862, 0.05890891298180163, 0.14548176930698697, 0.2770117005326523]
)

PER_CONFIG_BUDGET_S = 300.0  # five minutes per optimizer configuration


def _fit(schema, d, objective="max", restarts=8, seed=0):
    t0 = time.perf_counter()
    res = optimize_blt(
        OptimizerConfig(schema=schema, d=d, objective=objective, restarts=restarts, seed=seed)
    )
    elapsed = time.perf_counter() - t0
    return res, elapsed


class TestCriterion1OptimizerReferenceLosses:
    def test_three_buffers(self):
        res, elapsed = _fit(REFERENCE_SCHEMA, d=3)
        assert elapsed <= PER_CONFIG_BUDGET_S
        assert res.converged
        bundle = blt_mechanism_loss(res.params, REFERENCE_SCHEMA)
        assert bundle.rms_loss <= 9.43
        assert bundle.max_loss <= 10.90

    def test_two_buffers(self):
        res, elapsed = _fit(REFERENCE_SCHEMA, d=2)
        assert elapsed <= PER_CONFIG_BUDGET_S
        assert res.converged
        bundle = blt_mechanism_loss(res.params, REFERENCE_SCHEMA)
        assert bundle.rms_loss <= 9.44
        assert bundle.max_loss <= 10.92


class TestCriterion2SingleParticipationFit:
    def test_single_participation_params_on_reference_schema(self):
        res, elapsed = _fit(ParticipationSchema(2052, 2052, 1), d=2)
        assert elapsed <= PER_CONFIG_BUDGET_S
        bundle = blt_mechanism_loss(res.params, REFERENCE_SCHEMA)
        assert bundle.rms_loss <= 11.26
        assert bundle.max_loss <= 11.92


class TestCriterion3TreeBaseline:
    def test_full_decoded_tree_reference_losses(self):
        bundle = eval_tree(REFERENCE_SCHEMA)
        assert bundle.max_loss == pytest.approx(14.98, abs=0.15)
        assert bundle.rms_loss == pytest.approx(12.47, abs=0.13)


class TestCriterion4ProductionZcdp:
    def test_min_sep_1000_parameters(self):
        sens = toeplitz_sensitivity(
            blt_coefs(BltParams(THETA_B1000, OMEGA_B1000), 2000),
            ParticipationSchema(2000, 1000, 1),
        )
        rho = zcdp_of(sens, 8.681)
        assert rho == pytest.approx(2.23e-2, rel=2e-2)


class TestCriterion5EpsilonConversion:
    def test_closed_form_window(self):
        eps = eps_of_zcdp(0.5, 1e-7)
        assert 5.3 <= eps <= 6.3


class TestCriterion6PropertySuites:
    """Five oracle-equivalence suites, each at >= 100 randomized cases."""

    @given(
        params=blt_params_strategy(),
        n=st.integers(1, 128),
        m=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100)
    def test_streaming_matches_dense_products(self, params, n, m, seed):
        X = np.random.default_rng(seed).normal(size=(n, m))
        C = lt_toeplitz(blt_coefs(params, n))
        np.testing.assert_allclose(stream_mult(params, X), C @ X, rtol=1e-10, atol=1e-12)
        state = make_noise_generator(params, m=m, noise_std=0.0)
        inv = np.stack([stream_mult_inverse(state, X[t])[0] for t in range(n)])
        oracle = scipy.linalg.solve_triangular(C, X, lower=True)
        np.testing.assert_allclose(inv, oracle, rtol=1e-10, atol=1e-12)

    @given(params=blt_params_strategy(), n=st.integers(1, 512))
    @settings(max_examples=100)
    # sum omega_j/theta_j = 1: the inverse has a zero decay
    @example(params=BltParams(np.array([0.5]), np.array([0.5])), n=64)
    @example(params=BltParams(np.array([0.6, 0.2]), np.array([0.3, 0.1])), n=64)
    def test_output_scale_pairing_roundtrip(self, params, n):
        conv = np.convolve(blt_coefs(params, n), blt_inverse_coefs(params, n))[:n]
        target = np.zeros(n)
        target[0] = 1.0
        np.testing.assert_allclose(conv, target, atol=1e-8)

    @given(
        c=monotone_coefs_strategy(nmax=16),
        b=st.integers(1, 16),
        k=st.integers(1, 16),
    )
    @settings(max_examples=100)
    def test_shifted_sum_sensitivity_matches_bruteforce(self, c, b, k):
        n = len(c)
        b = min(b, n)
        k = min(k, max_participations(n, b))
        schema = ParticipationSchema(n, b, k)
        fast = toeplitz_sensitivity(c, schema)
        exact = exact_sensitivity_bruteforce(lt_toeplitz(c), schema)
        assert abs(fast - exact) <= 1e-12

    @given(params=blt_params_strategy(), n=st.integers(1, 96))
    @settings(max_examples=100)
    def test_toeplitz_and_dense_error_paths_agree(self, params, n):
        c = blt_coefs(params, n)
        max_t, rms_t = toeplitz_error(toeplitz_inverse_coefs(c))
        Cinv = scipy.linalg.solve_triangular(lt_toeplitz(c), np.eye(n), lower=True)
        max_d, rms_d = dense_error(np.cumsum(Cinv, axis=0))
        assert max_t == pytest.approx(max_d, rel=1e-10)
        assert rms_t == pytest.approx(rms_d, rel=1e-10)

    @given(
        d=st.integers(1, 3),
        levels=st.data(),
        n=st.integers(8, 64),
        b_raw=st.integers(1, 64),
        k_raw=st.integers(1, 8),
        objective=st.sampled_from(("max", "rms")),
        lam=st.sampled_from((0.0, 1e-7)),
    )
    @settings(max_examples=100)
    def test_gradient_matches_central_differences(
        self, d, levels, n, b_raw, k_raw, objective, lam
    ):
        grid = levels.draw(st.sets(st.integers(10, 95), min_size=d, max_size=d))
        theta = np.array(sorted(grid, reverse=True), dtype=float) / 100.0
        shrink = np.array(
            levels.draw(st.lists(st.integers(5, 40), min_size=d, max_size=d)),
            dtype=float,
        )
        theta_hat = theta * (1.0 - shrink / 100.0)
        if d > 1:
            assume(np.min(np.abs(np.diff(np.sort(theta_hat)))) > 1e-3)
        b = min(b_raw, n)
        k = min(k_raw, max_participations(n, b))
        schema = ParticipationSchema(n, b, k)
        assume(np.isfinite(blt_loss(theta, theta_hat, schema, objective, lam)))

        h = 1e-6
        x = np.concatenate([theta, theta_hat])
        fd = np.empty(2 * d)
        for j in range(2 * d):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fp = blt_loss(xp[:d], xp[d:], schema, objective, lam)
            fm = blt_loss(xm[:d], xm[d:], schema, objective, lam)
            assume(np.isfinite(fp) and np.isfinite(fm))
            fd[j] = (fp - fm) / (2 * h)
        g_th, g_thh = blt_loss_gradient(theta, theta_hat, schema, objective, lam)
        np.testing.assert_allclose(
            np.concatenate([g_th, g_thh]), fd, rtol=1e-5, atol=1e-6
        )


class TestCriterion7Robustness:
    def test_min_sep_sweep_is_smooth(self):
        res, elapsed = _fit(ParticipationSchema(2000, 400, 2), d=4, restarts=4)
        assert elapsed <= PER_CONFIG_BUDGET_S
        losses = np.array(
            [
                blt_mechanism_loss(res.params, ParticipationSchema(2000, b, 2)).max_loss
                for b in range(100, 1001, 10)
            ]
        )
        jumps = np.abs(np.diff(losses)) / losses[:-1]
        assert jumps.max() <= 0.05

    def test_sensitivity_monotone_beyond_fit_horizon(self):
        res, _ = _fit(ParticipationSchema(800, 400, 2), d=4, restarts=4)
        sens = [
            toeplitz_sensitivity(
                blt_coefs(res.params, n), ParticipationSchema(n, 400, 2)
            )
            for n in range(800, 2001, 100)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(sens, sens[1:]))


MECH2 = BltParams(np.array([0.9, 0.5]), np.array([0.2, 0.3]))


class TestCriterion8Simulator:
    def test_zero_noise_bitwise_matches_plain_averaging(self):
        pop = make_population(40, 8, 32, task="linear", seed=1)
        base = dict(
            rounds=12, clients_per_round=4, client_lr=0.1, server_lr=0.3,
            noise_multiplier=0.0, min_sep=3, seed=5,
        )
        with_mech = run_training(TrainConfig(mechanism=MECH2, **base), pop)
        plain = run_training(TrainConfig(mechanism=None, **base), pop)
        np.testing.assert_array_equal(with_mech.final_model, plain.final_model)
        assert with_mech.metrics == plain.metrics
        np.testing.assert_array_equal(with_mech.cohorts, plain.cohorts)

    def test_min_sep_audit_on_noisy_run(self):
        pop = make_population(40, 8, 32, task="linear", seed=1)
        result = run_training(
            TrainConfig(
                rounds=20, clients_per_round=4, client_lr=0.1, server_lr=0.3,
                noise_multiplier=0.4, mechanism=MECH2, min_sep=4, seed=2,
            ),
            pop,
        )
        last = {}
        for t, cid in log_entries(result.cohorts):
            if cid in last:
                assert t - last[cid] >= 4
            last[cid] = t
        assert result.realized_k <= math.ceil(20 / result.realized_b)

    def test_noise_calibration_monte_carlo(self):
        n, m, n_seeds = 32, 4, 200
        sigma_zeta = 1.3
        chat = blt_inverse_coefs(MECH2, n)
        row_sq = np.cumsum(chat**2)  # per-round marginal variance / sigma^2
        bc = np.cumsum(chat)
        prefix_sq = np.cumsum(bc**2)  # prefix-sum noise variance / sigma^2

        per_round = np.empty((n_seeds, n, m))
        for s in range(n_seeds):
            state = make_noise_generator(MECH2, m=m, noise_std=sigma_zeta, seed=10_000 + s)
            per_round[s] = np.stack([stream_mult_inverse(state)[0] for _ in range(n)])
        prefix = np.cumsum(per_round, axis=1)

        n_samp = n_seeds * m
        se_factor = 3.0 * math.sqrt(2.0 / (n_samp - 1))
        for pred, emp in (
            (sigma_zeta**2 * row_sq, per_round.var(axis=(0, 2))),
            (sigma_zeta**2 * prefix_sq, prefix.var(axis=(0, 2))),
        ):
            np.testing.assert_array_less(np.abs(emp - pred), se_factor * pred + 1e-12)

    def test_correlated_noise_beats_independent_at_matched_rho(self):
        # same noise multiplier = same zCDP cost for both mechanisms; the
        # correlated mechanism is fit for the schema it actually runs under
        fit = optimize_blt(
            OptimizerConfig(
                schema=ParticipationSchema(512, 8, 64),
                d=2, objective="rms", restarts=4, seed=0,
            )
        )
        pop = make_population(60, 8, 32, task="linear", seed=3)
        final = {"blt": [], "indep": []}
        for seed in range(20):
            for label, mech in (("blt", fit.params), ("indep", None)):
                cfg = TrainConfig(
                    rounds=512, clients_per_round=4, client_lr=0.1, server_lr=0.2,
                    noise_multiplier=0.05, mechanism=mech, min_sep=8, seed=seed,
                )
                result = run_training(cfg, pop)
                final[label].append(result.metrics[-1]["eval_loss"])
        diffs = np.array(final["indep"]) - np.array(final["blt"])
        assert diffs.mean() > 0  # ordering of the means
        t_stat = diffs.mean() / (diffs.std(ddof=1) / math.sqrt(len(diffs)))
        assert t_stat > 1.729  # one-sided 95%, 19 degrees of freedom


class TestOneSensitivityFormula:
    @pytest.mark.parametrize(
        "mech, schema",
        [
            ("b400", (2052, 342, 6)),
            ("b400", (1000, 7, 50)),
            ("b400", (20000, 400, 50)),
            ("sim_mech.json", (64, 8, 8)),
        ],
    )
    def test_noise_is_calibrated_with_the_sens_eval_prints(self, mech, schema):
        # one sensitivity formula: the simulator's configured sens is eval's,
        # bit for bit; an O(n) shifted sum once put it an ulp below
        if mech == "b400":
            params = BltParams(THETA_B400, OMEGA_B400)
        else:
            params, _ = load_params(Path(__file__).parent / "golden" / "readme" / "files" / mech)
        n, b, k = schema
        cfg = TrainConfig(
            rounds=n, clients_per_round=1, client_lr=0.1, server_lr=0.1,
            mechanism=params, min_sep=b, est_max_part=k,
        )
        sens = run_training(cfg, make_population(b, 1, 1, eval_samples=1)).sens_configured
        assert sens == blt_mechanism_loss(params, ParticipationSchema(*schema)).sens


class TestCriterion9Performance:
    def test_pairing_speedup_and_state_size(self):
        params = BltParams(THETA_B400, OMEGA_B400)
        n = 200_000
        c = blt_coefs(params, n)

        t0 = time.perf_counter()
        slow_tail = toeplitz_inverse_coefs(c)
        t_slow = time.perf_counter() - t0
        t0 = time.perf_counter()
        fast_tail = blt_inverse_coefs(params, n)
        t_fast = time.perf_counter() - t0
        np.testing.assert_allclose(fast_tail[:4096], slow_tail[:4096], atol=1e-10)
        assert t_slow >= 50.0 * t_fast

        state = make_noise_generator(params, m=13, noise_std=1.0)
        assert state.buffers.shape == (params.d, 13)
        assert state.buffers.size == params.d * 13  # exactly d*m reals
        for _ in range(5):
            stream_mult_inverse(state)
        assert state.buffers.shape == (params.d, 13)  # state never grows

"""Differentiable loss and the quasi-Newton fitting driver.

The loss function is checked against the mechanism-loss pipeline at
feasible points and against closed-form infeasibility elsewhere; the
driver is checked for determinism, objective dominance, and for beating
the baselines it exists to beat.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    blt_loss_gradient,
    toeplitz_mechanism_loss,
    two_loop_direction,
    wolfe_search_two_phase,
)

from corrnoise.blt_core import (
    DEGENERATE_GAP,
    BltParams,
    calc_output_scale,
    inverse_blt_params,
)
from corrnoise import blt_optimizer
from corrnoise.blt_optimizer import (
    BARRIER_LAMBDA,
    COMPLEX_STEP,
    OBJECTIVES,
    WOLFE_C1,
    WOLFE_MAX_EVALS,
    OptimizerConfig,
    _chain,
    _init_point,
    _lbfgs,
    _loss_batch,
    _two_loop,
    _value_and_gradient,
    _wolfe_search,
    blt_loss,
    optimize_blt,
)
from corrnoise.loss_metrics import blt_mechanism_loss
from corrnoise.participation import ParticipationSchema
from corrnoise.tree_baseline import eval_tree

SCHEMA = ParticipationSchema(64, 16, 4)

# production four-buffer mechanism; its largest decay is within 8e-12 of 1
THETA_B400 = np.array(
    [0.9999999999921251, 0.9944453083640997, 0.8985923474607591, 0.4912001418098778]
)
OMEGA_B400 = np.array(
    [0.0070314825502323835, 0.10613806907600574, 0.1898159060327625, 0.1966594748073734]
)


def feasible_point():
    theta = np.array([0.9, 0.5])
    theta_hat = np.array([0.85, 0.4])
    return theta, theta_hat


class TestBltLoss:
    def test_matches_mechanism_loss_pipeline(self):
        theta, theta_hat = feasible_point()
        omega = calc_output_scale(theta, theta_hat).real
        params = BltParams(theta, omega)
        bundle = blt_mechanism_loss(params, SCHEMA)
        for objective, expect in (("max", bundle.max_loss), ("rms", bundle.rms_loss)):
            val = blt_loss(theta, theta_hat, SCHEMA, objective)
            assert val == pytest.approx(expect, rel=1e-9)

    def test_matches_mechanism_loss_at_production_decays(self):
        schema = ParticipationSchema(2052, 342, 6)
        params = BltParams(THETA_B400, OMEGA_B400)
        theta_hat = inverse_blt_params(params).theta_hat
        bundle = blt_mechanism_loss(params, schema)
        for objective, expect in (("max", bundle.max_loss), ("rms", bundle.rms_loss)):
            val = blt_loss(THETA_B400, theta_hat, schema, objective)
            assert val == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize(
        "theta, theta_hat",
        [
            ([1.2, 0.5], [0.4, 0.2]),  # decay above 1
            ([0.9, 0.5], [0.4, -0.1]),  # inverse decay below 0
            ([0.9, 0.9], [0.4, 0.2]),  # duplicate decays
            ([0.9, 0.5], [0.4, 0.4]),  # duplicate inverse decays
            ([0.5, 0.9], [0.95, 0.4]),  # omega not all positive
            ([0.5], [0.5]),  # identity endpoint: omega = 0
        ],
    )
    def test_infeasible_returns_inf(self, theta, theta_hat):
        val = blt_loss(np.array(theta, float), np.array(theta_hat, float), SCHEMA)
        assert val == np.inf

    def test_barrier_increases_loss(self):
        theta, theta_hat = feasible_point()
        plain = blt_loss(theta, theta_hat, SCHEMA)
        barried = blt_loss(theta, theta_hat, SCHEMA, barrier_lambda=1e-3)
        assert barried > plain

    def test_bad_objective(self):
        theta, theta_hat = feasible_point()
        with pytest.raises(ValueError):
            blt_loss(theta, theta_hat, SCHEMA, objective="median")

    def test_complex_input_propagates_derivative(self):
        theta, theta_hat = feasible_point()
        h = 1e-100
        val = blt_loss(theta.astype(complex) + np.array([1j * h, 0]), theta_hat, SCHEMA)
        assert np.iscomplexobj(val)
        assert np.isfinite(val.imag / h)


class TestGradient:
    def test_gradient_at_infeasible_point_raises(self):
        with pytest.raises(ValueError):
            blt_loss_gradient(np.array([1.5]), np.array([0.5]), SCHEMA)

    def test_gradient_matches_central_difference_spot(self):
        # one-coordinate spot check; the full sweep is a property suite
        theta, theta_hat = feasible_point()
        g_th, g_thh = blt_loss_gradient(theta, theta_hat, SCHEMA)
        h = 1e-6
        up = blt_loss(theta + np.array([h, 0]), theta_hat, SCHEMA)
        dn = blt_loss(theta - np.array([h, 0]), theta_hat, SCHEMA)
        assert g_th[0] == pytest.approx((up - dn) / (2 * h), rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_batched_gradient_equals_per_coordinate_complex_step(self, objective):
        # the fit's fg: one batch of x + i h e_j in chain coordinates,
        # against one complex blt_loss call per coordinate
        schema = ParticipationSchema(2052, 342, 6)
        theta = np.array([0.99, 0.9, 0.5])
        theta_hat = np.array([0.97, 0.8, 0.3])
        z = np.ravel(np.column_stack([theta, theta_hat]))  # interlaced, descending
        ratios = z / np.concatenate([[1.0], z[:-1]])
        x = np.log(ratios / (1 - ratios))
        d = len(theta)

        def loss_batch(X):
            return _loss_batch(*_chain(X), schema, objective, BARRIER_LAMBDA)

        f0, g = _value_and_gradient(loss_batch, x)
        per = np.empty(2 * d)
        for j in range(2 * d):
            xc = x.astype(complex)
            xc[j] += 1j * COMPLEX_STEP
            val = blt_loss(*_chain(xc), schema, objective, BARRIER_LAMBDA)
            per[j] = val.imag / COMPLEX_STEP
        np.testing.assert_allclose(g, per, rtol=1e-12, atol=0)
        assert f0 == pytest.approx(
            blt_loss(theta, theta_hat, schema, objective, BARRIER_LAMBDA), rel=1e-14
        )


class TestChain:
    @given(
        x=st.integers(1, 4).flatmap(
            lambda d: st.lists(st.floats(-30.0, 30.0), min_size=2 * d, max_size=2 * d)
        )
    )
    @settings(max_examples=200)
    def test_every_point_clear_of_the_gap_is_feasible(self, x):
        theta, theta_hat = _chain(np.array(x))
        z = np.ravel(np.column_stack([theta, theta_hat]))
        assert np.all(np.diff(z) <= 0) and np.all((z >= 0) & (z <= 1))
        if np.min(-np.diff(np.concatenate([[1.0], z, [0.0]]))) < DEGENERATE_GAP:
            return  # rounding: a ratio of 1, or decays closer than the gap
        assert np.all(theta[:-1] > theta_hat[:-1]) and np.all(theta_hat[:-1] > theta[1:])
        assert theta[-1] > theta_hat[-1] > 0
        omega = calc_output_scale(theta, theta_hat)
        assert np.all(omega > 0)
        assert omega.sum() < 1.0
        BltParams(theta, omega).validate()


class TestOptimizeBlt:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(schema=SCHEMA, d=0)
        with pytest.raises(ValueError):
            OptimizerConfig(schema=SCHEMA, d=2, objective="median")
        with pytest.raises(ValueError):
            OptimizerConfig(schema=SCHEMA, d=2, restarts=0)
        with pytest.raises(ValueError, match="seed"):
            OptimizerConfig(schema=SCHEMA, d=2, seed=-1)

    def test_beats_tree_and_identity_baselines(self):
        res = optimize_blt(OptimizerConfig(schema=SCHEMA, d=2, restarts=3, seed=0))
        assert res.converged
        res.params.validate()  # strict feasibility of the reported optimum
        tree = eval_tree(SCHEMA)
        ident = np.zeros(SCHEMA.n)
        ident[0] = 1.0
        identity = toeplitz_mechanism_loss(ident, SCHEMA)
        assert res.loss < tree.max_loss
        assert res.loss < identity.max_loss

    def test_reported_loss_matches_pipeline(self):
        res = optimize_blt(OptimizerConfig(schema=SCHEMA, d=2, restarts=2, seed=1))
        bundle = blt_mechanism_loss(res.params, SCHEMA)
        assert res.loss == pytest.approx(bundle.max_loss, rel=1e-5)

    def test_rms_objective_dominates_on_rms(self):
        rms = optimize_blt(
            OptimizerConfig(schema=SCHEMA, d=2, objective="rms", restarts=3, seed=0)
        )
        mx = optimize_blt(
            OptimizerConfig(schema=SCHEMA, d=2, objective="max", restarts=3, seed=0)
        )
        rms_of_rms = blt_mechanism_loss(rms.params, SCHEMA).rms_loss
        rms_of_max = blt_mechanism_loss(mx.params, SCHEMA).rms_loss
        assert rms_of_rms <= rms_of_max + 1e-9

    def test_deterministic_given_seed(self):
        a = optimize_blt(OptimizerConfig(schema=SCHEMA, d=2, restarts=2, seed=7))
        b = optimize_blt(OptimizerConfig(schema=SCHEMA, d=2, restarts=2, seed=7))
        np.testing.assert_array_equal(a.params.theta, b.params.theta)
        np.testing.assert_array_equal(a.params.omega, b.params.omega)
        assert a.restart_losses == b.restart_losses

    def test_four_buffer_toy_fit_with_one_restart(self):
        # a lone d=4 restart ends with interlaced decays in canonical order,
        # so its loss is finite and its parameters validate
        res = optimize_blt(OptimizerConfig(schema=SCHEMA, d=4, restarts=1, seed=0))
        assert res.converged
        res.params.validate()
        assert np.all(np.isfinite(res.restart_losses))

    def test_more_buffers_never_hurt_much(self):
        # d=2 optimum should not beat d=3 by more than numerical slack
        r2 = optimize_blt(OptimizerConfig(schema=SCHEMA, d=2, restarts=3, seed=0))
        r3 = optimize_blt(OptimizerConfig(schema=SCHEMA, d=3, restarts=3, seed=0))
        assert r3.loss <= r2.loss * (1 + 1e-3)


def _alone(request):
    """A direction request answered by a ``_two_loop`` batch of one."""
    return _two_loop(*(a[None] for a in request))[0]


def _drive(run, evaluate, direct=_alone):
    """Drive one ``_lbfgs`` generator to its end, answering its points with
    ``evaluate`` and its direction requests with ``direct``."""
    request = next(run)
    while True:
        answer = direct(request) if isinstance(request, tuple) else evaluate(request)
        try:
            request = run.send(answer)
        except StopIteration as done:
            return done.value


def _drive_alone(loss_batch, x0):
    """One restart's ``_lbfgs`` generator, on its own, through the protocol
    of ``_lockstep``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _drive(_lbfgs(x0), lambda point: _value_and_gradient(loss_batch, point))


def _rosenbrock(x):
    f = np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return f, g


class TestTwoLoop:
    def test_stacked_rows_match_the_list_recursion_bit_for_bit(self):
        # direction requests as _lbfgs raises them on a 6-d Rosenbrock
        # valley: histories of every length 0..m = 10
        requests = []

        def direct(request):
            requests.append(tuple(np.copy(a) for a in request))
            # an ascent direction for the 14th: _lbfgs resets its memory
            return -request[0] if len(requests) == 14 else _alone(request)

        _drive(_lbfgs(np.array([-1.2, 1.0, -0.5, 0.8, 1.5, -0.3])), _rosenbrock, direct)
        history = [int(np.count_nonzero(rho)) for _, _, _, rho in requests]
        assert history[:14] == [*range(11), 10, 10, 10]
        # one pair after the reset, the stale slots cleared
        _, S, Y, rho = requests[14]
        assert history[14] == 1 and not S[:-1].any() and not Y[:-1].any()
        batch = requests[:11] + [requests[14]]
        # an empty history with ||g|| < 1: gamma = 1, not 1 / ||g||
        batch.append((np.full(6, 0.1), *(np.zeros_like(a) for a in requests[0][1:])))
        stacked = _two_loop(*map(np.stack, zip(*batch)))
        for (g, S, Y, rho), row in zip(batch, stacked):
            live = rho != 0
            expected = two_loop_direction(g, list(S[live]), list(Y[live]), list(rho[live]))
            assert row.tobytes() == expected.tobytes()


def _search(search, x, f0, g0, p, reply):
    """Drive a line search, answering its i-th trial point with reply(i, point);
    returns the trial points and the search's (alpha, f, g)."""
    run = search(x, f0, g0, p)
    points = []
    try:
        point = next(run)
        while True:
            points.append(point)
            point = run.send(reply(len(points) - 1, point))
    except StopIteration as done:
        return points, done.value


def _scripted_replies(rng, f0, d0, p):
    """(f, g) replies for one search: +inf, rises and falls on a coarse grid
    of values (so that ties with the lowest point occur), and slopes from
    steep descent through flat to uphill, in per-search proportions."""
    size = WOLFE_MAX_EVALS
    kinds = rng.choice(3, size=size, p=rng.dirichlet(np.ones(3)))
    # kind 1 falls below f0 (Armijo holds for the first trials), kind 2 lands
    # anywhere on the grid, kind 0 is +inf; grid steps are a multiple of |d0|,
    # or one spacing of f0 where that is wider
    steps = np.where(kinds == 1, rng.integers(-6, 0, size), rng.integers(-6, 4, size))
    unit = np.maximum(abs(d0) * rng.choice([1e-3, 0.5, 3.0], size), np.spacing(f0))
    f = f0 + steps * unit
    slopes = rng.choice([-2.0, -1.0, -0.95, -0.5, 0.0, 0.5, 0.95, 2.0], size) * abs(d0)
    return [
        (np.inf, p * np.nan) if kind == 0 else (float(fv), slope * p / (p @ p))
        for kind, fv, slope in zip(kinds, f, slopes)
    ]


class TestWolfeSearch:
    def test_matches_the_two_phase_search_on_scripted_replies(self):
        # the one-loop search yields the same trial points and returns the
        # same result as the bracketing-then-zoom form it replaced
        rng = np.random.default_rng(20261019)
        seen = set()
        for _ in range(3000):
            x, p = rng.normal(size=2), rng.normal(size=2)
            g0 = -p * rng.uniform(0.1, 10.0) + 0.1 * rng.normal(size=2)
            if g0 @ p >= 0:
                g0 = -g0
            # at f0 = 1e20 the Armijo bound f0 + c1 a d0 rounds to f0
            f0 = float(rng.choice([0.0, 1.0, -3.5, 1e20]))
            replies = _scripted_replies(rng, f0, float(g0 @ p), p)
            ours = _search(_wolfe_search, x, f0, g0, p, lambda i, _: replies[i])
            theirs = _search(wolfe_search_two_phase, x, f0, g0, p, lambda i, _: replies[i])
            assert len(ours[0]) == len(theirs[0])
            for a, b in zip(ours[0], theirs[0]):
                assert a.tobytes() == b.tobytes()
            (alpha, f, g), (alpha_t, f_t, g_t) = ours[1], theirs[1]
            assert alpha == alpha_t and f == f_t and g is g_t
            n = len(ours[0])
            seen.add("failure" if alpha is None else "budget" if n == WOLFE_MAX_EVALS else "early")
            values = [v for v, _ in replies[:n]]
            # +inf after a trial that rose above f0, so after a bracket formed
            rise = next((i for i, v in enumerate(values) if math.isfinite(v) and v > f0), n)
            if np.inf in values[rise:]:
                seen.add("inf after a bracket")
            # a trial back at f0 = 1e20 after that: Armijo holds by rounding
            if f0 == 1e20 and f0 in values[rise:]:
                seen.add("Armijo rounds")
        assert seen == {"failure", "budget", "early", "inf after a bracket", "Armijo rounds"}

    def test_all_infinite_replies_exhaust_the_budget_and_fail(self):
        g0, p = np.array([1.0, -2.0]), np.array([-1.0, 2.0])
        points, (alpha, f, g) = _search(
            _wolfe_search, np.zeros(2), 3.0, g0, p, lambda i, _: (np.inf, np.zeros(2))
        )
        assert len(points) == WOLFE_MAX_EVALS
        assert alpha is None and f == 3.0 and g is g0
        # a cap at every trial: 1, then bisection toward 0
        assert [point[1] / p[1] for point in points[:4]] == [1.0, 0.5, 0.25, 0.125]

    def test_armijo_only_replies_return_the_best_of_them(self):
        # every trial satisfies Armijo with a steep descending slope, so the
        # curvature condition never holds; the values wave, so the search
        # both doubles and bisects
        f0, g0, p = 2.0, np.array([-1.0]), np.array([1.0])
        d0 = float(g0 @ p)

        def value(a):
            return f0 + WOLFE_C1 * d0 * a * (2.0 + math.cos(7.0 * a))

        def reply(i, point):
            return value(float(point[0])), np.array([2.0 * d0])

        points, (alpha, f, _) = _search(_wolfe_search, np.zeros(1), f0, g0, p, reply)
        assert len(points) == WOLFE_MAX_EVALS
        values = [value(float(point[0])) for point in points]
        best = int(np.argmin(values))
        assert alpha == points[best][0] and f == values[best]
        assert len(set(values)) > 1 and best != len(values) - 1

    def test_unit_step_is_accepted_at_once(self):
        x, g0, p = np.array([0.5, 0.5]), np.array([1.0, 1.0]), np.array([-1.0, -1.0])
        g1 = np.array([0.1, -0.1])  # zero slope along p
        points, (alpha, f, g) = _search(_wolfe_search, x, 1.0, g0, p, lambda i, _: (0.2, g1))
        assert len(points) == 1 and points[0].tobytes() == (x + p).tobytes()
        assert alpha == 1.0 and f == 0.2 and g is g1


class TestLockstep:
    def test_infeasible_group_leaves_the_others_bit_identical(self):
        # four restarts' complex-step groups; the third has a degenerate theta pair
        rng = np.random.default_rng(3)
        x = np.stack([_init_point(rng, 3) for _ in range(4)])
        theta, theta_hat = _chain(x[:, None, :] + 1j * COMPLEX_STEP * np.eye(6))
        theta[2, :, 1] = theta[2, :, 0] - DEGENERATE_GAP / 2
        stacked = _loss_batch(theta, theta_hat, SCHEMA, "max", BARRIER_LAMBDA)
        assert stacked.shape == (4, 6)
        assert np.all(stacked[2] == np.inf)
        for r in (0, 1, 3):
            solo = _loss_batch(theta[r], theta_hat[r], SCHEMA, "max", BARRIER_LAMBDA)
            assert np.all(np.isfinite(solo))
            np.testing.assert_array_equal(stacked[r], solo)
        # a batch of infeasible groups alone: the kernels run on every one of
        # them, and no warning of theirs escapes. One has a decay above 1, one
        # the degenerate pair, one a hat-decay above its decay (so omega_1 < 0)
        bad, bad_hat = theta[[0, 2, 3]], theta_hat[[0, 2, 3]]
        bad[0, :, 0] += 1.0
        bad_hat[2, :, 0] = 0.5 * (1.0 + bad[2, :, 0])
        for rows in ((bad, bad_hat), (np.real(bad), np.real(bad_hat))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = _loss_batch(*rows, SCHEMA, "max", BARRIER_LAMBDA)
            assert values.shape == (3, 6) and values.dtype == rows[0].dtype
            assert np.all(values == np.inf)

    def test_each_restart_matches_its_generator_alone(self, monkeypatch):
        # at this schema one d=3 restart probes the degeneracy wall (+inf
        # values) while the others run beside it
        recorded = []
        lockstep = blt_optimizer._lockstep

        def recording(loss_batch, starts):
            runs = lockstep(loss_batch, starts)
            recorded.append((loss_batch, starts, runs))
            return runs

        monkeypatch.setattr(blt_optimizer, "_lockstep", recording)
        res = optimize_blt(OptimizerConfig(schema=SCHEMA, d=3, restarts=8, seed=0))
        [(loss_batch, starts, runs)] = recorded
        rng = np.random.default_rng(0)
        for x0 in starts:  # drawn in restart order from the seed
            np.testing.assert_array_equal(x0, _init_point(rng, 3))
        for x0, (x, f, iterations, converged) in zip(starts, runs):
            x_alone, f_alone, iterations_alone, converged_alone = _drive_alone(loss_batch, x0)
            np.testing.assert_array_equal(x, x_alone)
            assert f == f_alone
            assert (iterations, converged) == (iterations_alone, converged_alone)
        assert res.restart_losses == [float(loss_batch(x[None], 0.0)[0]) for x, *_ in runs]

    def test_reference_fit_stacked_call_budget(self, monkeypatch):
        # measured: 85 stacked loss calls, the longest restart's 84
        # evaluations and one barrier-free evaluation of all 8 end points
        calls = []
        loss_batch = blt_optimizer._loss_batch
        monkeypatch.setattr(
            blt_optimizer, "_loss_batch", lambda *a: calls.append(1) or loss_batch(*a)
        )
        res = optimize_blt(
            OptimizerConfig(schema=ParticipationSchema(2052, 342, 6), d=3, restarts=8, seed=0)
        )
        assert res.converged
        assert len(calls) <= 1.25 * 85

    def test_single_restart_goes_through_the_lockstep_driver(self, monkeypatch):
        starts_seen, shapes = [], []
        lockstep, loss_batch = blt_optimizer._lockstep, blt_optimizer._loss_batch

        def recording(lb, starts):
            starts_seen.append(len(starts))
            return lockstep(lb, starts)

        monkeypatch.setattr(blt_optimizer, "_lockstep", recording)
        monkeypatch.setattr(
            blt_optimizer,
            "_loss_batch",
            lambda theta, *a: shapes.append(np.shape(theta)) or loss_batch(theta, *a),
        )
        optimize_blt(OptimizerConfig(schema=SCHEMA, d=2, restarts=1, seed=0))
        assert starts_seen == [1]
        # every call carries the restart group axis
        assert shapes and all(len(s) == 3 and s[0] == 1 for s in shapes)

"""Gaussian-mechanism zCDP and the conversion to (epsilon, delta)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import refined_eps_minimize_scalar
from scipy.special import ndtr

from corrnoise.accountant import DEFAULT_DELTA, METHOD_LABEL, eps_of_zcdp, zcdp_of
from corrnoise.blt_core import BltParams, blt_coefs
from corrnoise.participation import ParticipationSchema, toeplitz_sensitivity

# reference four-buffer parameters fit for min-sep 1000 (production row)
THETA_B1000 = np.array(
    [0.9999999999983397, 0.9973412136664378, 0.9584629472313878, 0.6581796870749317]
)
OMEGA_B1000 = np.array(
    [0.008657392263671862, 0.05890891298180163, 0.14548176930698697, 0.2770117005326523]
)


class TestZcdp:
    def test_hand_values(self):
        assert zcdp_of(2.0, 2.0) == pytest.approx(0.5, rel=1e-15)
        assert zcdp_of(1.0, 1.0) == pytest.approx(0.5, rel=1e-15)
        assert zcdp_of(3.0, 1.0) == pytest.approx(4.5, rel=1e-15)

    def test_zero_sigma_is_infinite(self):
        assert zcdp_of(1.0, 0.0) == math.inf

    def test_zero_sensitivity_is_free(self):
        assert zcdp_of(0.0, 1.0) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            zcdp_of(-1.0, 1.0)
        with pytest.raises(ValueError):
            zcdp_of(1.0, -1.0)

    @pytest.mark.parametrize("sens, sigma", [(math.nan, 1.0), (1.0, math.nan), (math.nan, 0.0)])
    def test_nan_inputs_rejected(self, sens, sigma):
        with pytest.raises(ValueError):
            zcdp_of(sens, sigma)

    def test_production_parameters_anchor(self):
        # single participation over 2000 rounds at sigma = 8.681
        sens = toeplitz_sensitivity(
            blt_coefs(BltParams(THETA_B1000, OMEGA_B1000), 2000),
            ParticipationSchema(2000, 1000, 1),
        )
        rho = zcdp_of(sens, 8.681)
        assert rho == pytest.approx(2.23e-2, rel=2e-2)


class TestEpsConversion:
    def test_closed_form_hand_value(self):
        # rho + 2 sqrt(rho ln(1/delta)) at rho = 0.5, delta = 1e-7
        expect = 0.5 + 2 * math.sqrt(0.5 * math.log(1e7))
        got = eps_of_zcdp(0.5, 1e-7)
        assert got == pytest.approx(expect, rel=1e-12)
        assert 5.3 <= got <= 6.3

    def test_edge_values(self):
        assert eps_of_zcdp(0.0, 1e-9) == 0.0
        assert eps_of_zcdp(math.inf, 1e-9) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            eps_of_zcdp(-0.1, 1e-9)
        with pytest.raises(ValueError):
            eps_of_zcdp(0.5, 0.0)
        with pytest.raises(ValueError):
            eps_of_zcdp(0.5, 1.0)
        with pytest.raises(ValueError):
            eps_of_zcdp(math.nan, 1e-9)
        with pytest.raises(ValueError):
            eps_of_zcdp(0.5, math.nan)

    def test_default_delta(self):
        assert DEFAULT_DELTA == 1e-10
        assert eps_of_zcdp(0.5) == eps_of_zcdp(0.5, 1e-10)

    @given(
        rho=st.floats(1e-6, 50.0),
        delta=st.floats(1e-12, 1e-3),
    )
    @example(rho=1e-6, delta=1e-3)
    @example(rho=1e-6, delta=8.9e-4)
    @settings(max_examples=100)
    def test_refined_never_worse_than_closed_form(self, rho, delta):
        closed = eps_of_zcdp(rho, delta)
        refined = eps_of_zcdp(rho, delta, refined=True)
        assert refined <= closed * (1 + 1e-12)
        # the true epsilon is 0 where the Gaussian's total variation is
        # below delta (e.g. rho = 1e-6, delta = 1e-3), so > 0 is false
        assert refined >= 0

    @pytest.mark.parametrize("rho, delta", [(1e-6, 1e-3), (1e-6, 8.9e-4)])
    def test_refined_clamp_is_never_optimistic(self, rho, delta):
        # exact curve of the Gaussian mechanism with mu = sqrt(2 rho):
        # delta(eps) = Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2)
        eps = eps_of_zcdp(rho, delta, refined=True)
        assert eps == 0.0
        mu = math.sqrt(2.0 * rho)
        exact_delta = ndtr(-eps / mu + mu / 2) - math.exp(eps) * ndtr(-eps / mu - mu / 2)
        assert exact_delta <= delta

    @given(
        log_rho=st.floats(-8.0, 3.0),
        log_delta=st.floats(-15.0, -0.3),
    )
    @example(log_rho=-6.0, log_delta=-3.0)  # clamped at 0 by both
    @example(log_rho=3.0, log_delta=-15.0)
    @settings(max_examples=300)
    def test_refined_is_the_minimum_the_numerical_search_finds(self, log_rho, log_delta):
        # never worse than the bounded search beyond rounding, and below it
        # by no more than the search's own tolerance
        rho, delta = 10.0**log_rho, 10.0**log_delta
        oracle = refined_eps_minimize_scalar(rho, delta)
        refined = eps_of_zcdp(rho, delta, refined=True)
        assert refined <= oracle * (1 + 1e-12)
        assert refined >= oracle * (1 - 1e-9)

    def test_monotone_in_rho_and_delta(self):
        assert eps_of_zcdp(0.2, 1e-7) < eps_of_zcdp(0.4, 1e-7)
        assert eps_of_zcdp(0.5, 1e-9) > eps_of_zcdp(0.5, 1e-5)

    def test_method_label_names_the_direction(self):
        assert "upper bound" in METHOD_LABEL

"""Error and loss functionals for comparing noise mechanisms.

For a strategy C factoring the prefix-sum workload A = B C (B = A C^-1),
the released noise in the t-th prefix estimate has standard deviation
proportional to the t-th row norm of B. MaxError is the worst row norm,
RmsError the quadratic mean; multiplying by the sensitivity of C gives
MaxLoss and RmsLoss at unit noise multiplier, the mechanism-quality
objectives.

BLT strategies are evaluated by kernels whose cost does not depend on
n, shared with ``blt_optimizer.blt_loss``: the errors in closed form
from the decays and inverse decays (partial fractions of the prefix
sums' generating function), the sensitivity by the pulse recursion of
``participation``.
``toeplitz_error`` takes the errors of any Toeplitz strategy from its
inverse coefficients in O(n), and ``mechanism_loss`` evaluates an
arbitrary dense strategy. They agree to float precision and are
cross-tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from corrnoise.blt_core import BltParams, _residues, inverse_blt_params
from corrnoise.participation import (
    ParticipationSchema,
    _blt_sensitivity,
    matrix_sensitivity_lower_bound,
)


@dataclass(frozen=True)
class MechanismLoss:
    """Sensitivity and error/loss bundle for one mechanism at one schema.

    max_loss = max_error * sens and rms_loss = rms_error * sens, at unit
    noise multiplier (losses are clip-norm normalized; a noise multiplier
    scales both). sens_method records whether sens is exact for the
    mechanism class ("toeplitz") or only the front-loaded-pattern lower
    bound ("lower_bound").
    """

    schema: ParticipationSchema
    sens: float
    max_error: float
    rms_error: float
    sens_method: str

    @property
    def max_loss(self) -> float:
        return self.max_error * self.sens

    @property
    def rms_loss(self) -> float:
        return self.rms_error * self.sens


def toeplitz_error(c_inv) -> tuple[float, float]:
    """(MaxError, RmsError) from the inverse Toeplitz coefficients, O(n).

    With b = cumsum(c_inv) (so b_0 = c_inv_0 = 1 for strategies: the
    first row of A C^-1 is e_0), row i of B = A LtToep(c_inv) is
    (b_i, ..., b_1, b_0, 0, ...), so row norms are nested prefix norms:

        MaxError = sqrt(sum_i b_i^2)
        RmsError = sqrt(sum_i (n - i) b_i^2 / n)

    The i = 0 term carries weight n; for the identity strategy this gives
    the closed form RmsError = sqrt((n+1)/2).
    """
    b = np.cumsum(np.asarray(c_inv, dtype=float))
    n = b.shape[0]
    max_error = np.sqrt(np.sum(b * b))
    rms_error = np.sqrt(np.sum((n - np.arange(n)) * b * b) / n)
    return float(max_error), float(rms_error)


# 1/k! for k = 10, ..., 2: Horner coefficients of the phi_2 series
_PHI2_SERIES = tuple(1.0 / math.factorial(k) for k in range(10, 1, -1))


def _phi2(z, expm1_z):
    """(e^z - 1 - z) / z^2 from z and expm1(z), analytic; where |Re z| < 0.1,
    where the quotient cancels, a 9-term series (truncation below 3e-17);
    the caller silences the quotient's warnings at z = 0."""
    out = (expm1_z - z) / (z * z)
    small = np.abs(np.real(z)) < 0.1
    if small.any():
        zs = z[small]
        series = np.zeros_like(zs)
        for coef in _PHI2_SERIES:
            series = series * zs + coef
        out[small] = series
    return out


@lru_cache(maxsize=None)
def _pole_tables(size):
    """Read-only tables for ``size`` poles: the pairs a <= b but (0, 0) as
    index arrays, with weights 1 on the diagonal and 2 off it."""
    a, b = (i[1:] for i in np.triu_indices(size))
    tables = a, b, np.where(a == b, 1.0, 2.0)
    for table in tables:
        table.flags.writeable = False
    return tables


def _blt_errors(theta, theta_hat, n):
    """(MaxError, RmsError) over n rounds of the BLT with decays theta and
    inverse decays theta_hat, in closed form, O(d^2).

    theta and theta_hat are (B, d); returns two (B,) arrays. Unvalidated
    and complex-safe. By partial fractions of the prefix sums' generating
    function p(x) / ((1 - x) q(x)), p = prod(1 - theta_l x) and
    q = prod(1 - theta_hat_l x) (Dvijotham et al. 2024, arXiv 2404.16706),

        b_i = sum_a c_a r_a^i,   c_a = prod_l (r_a - theta_l) / prod_{b!=a} (r_a - r_b)

    over the poles r = (1, theta_hat): plain differences of decays, each
    |c_a| <= 1 under interlacing. So MaxError^2 = sum_{i<n} b_i^2 and
    n RmsError^2 = sum_{i<n} (n - i) b_i^2 are quadratic forms in
    S(x) = sum_{i<n} x^i and T(x) = sum_{i<n} (n - i) x^i at x = r_a r_b.
    For two positive poles, L = log r_a + log r_b keeps a product near 1
    apart from 1: S = E / e and T = (L^2 (n^2 phi_2(nL) - n phi_2(L)) + e E)
    / e^2 with e = expm1(L), E = expm1(nL), which do not cancel as L -> 0.
    A pole at or below 0 (saved parameters may have one, and
    ``inverse_blt_params`` keeps 0 exactly) takes S = (1 - x^n) / (1 - x)
    and T = (n(1 - x) - x(1 - x^n)) / (1 - x)^2, well conditioned there.
    The identity (d = 0) gives sqrt(n) and sqrt((n+1)/2).
    """
    theta, theta_hat = np.asarray(theta), np.asarray(theta_hat)
    batch, d = theta.shape
    a, b, pair_weight = _pole_tables(d + 1)
    r = np.concatenate([np.ones((batch, 1), dtype=theta_hat.dtype), theta_hat], axis=1)
    c = _residues(r, theta)
    # each pair of poles (a, b) once, without (0, 0): x = 1 there, where
    # S = n and T = n(n+1)/2
    weight = pair_weight * c[:, a] * c[:, b]
    positive = np.real(r) > 0
    log_r = np.log(np.where(positive, r, 1.0))
    L = log_r[:, a] + log_r[:, b]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # L and nL through expm1 and phi_2 as one stack; np.stack keeps L's
        # pair-major layout, which sets the rounding of the pair sums below
        z = np.stack((L, n * L))
        e, E = expm1_z = np.expm1(z)
        phi2_L, phi2_nL = _phi2(z, expm1_z)
        S = E / e
        T = (L * L * (n * n * phi2_nL - n * phi2_L) + e * E) / (e * e)
        if not positive.all():
            both = positive[:, a] & positive[:, b]
            x = r[:, a] * r[:, b]
            xn = x**n
            S = np.where(both, S, (1.0 - xn) / (1.0 - x))
            T = np.where(both, T, (n * (1.0 - x) - x * (1.0 - xn)) / (1.0 - x) ** 2)
    beta2 = c[:, 0] * c[:, 0]
    max2 = beta2 * n + (weight * S).sum(axis=-1)
    nrms2 = beta2 * (n * (n + 1) / 2) + (weight * T).sum(axis=-1)
    return np.sqrt(max2), np.sqrt(nrms2 / n)


def dense_error(B) -> tuple[float, float]:
    """(MaxError, RmsError) of an explicit decoder matrix B.

    MaxError is the largest row L2 norm, RmsError the Frobenius norm
    over sqrt(n): the worst and root-mean-square noise standard
    deviations across the n released estimates.
    """
    B = np.asarray(B, dtype=float)
    row_norms = np.linalg.norm(B, axis=1)
    return float(row_norms.max()), float(np.sqrt((row_norms**2).mean()))


def mechanism_loss(strategy, schema: ParticipationSchema) -> MechanismLoss:
    """Loss bundle for a strategy given as a dense matrix C.

    C must be square lower-triangular with nonzero diagonal; it is
    inverted densely in O(n^3). Sensitivity is the front-loaded lower
    bound and is flagged as such. BLT strategies take the n-independent
    path of ``blt_mechanism_loss``.
    """
    C = np.asarray(strategy, dtype=float)
    n = schema.n
    if C.ndim != 2:
        raise ValueError(f"strategy must be a 2-d matrix, got {C.ndim}-d")
    if C.shape != (n, n):
        raise ValueError(f"dense strategy must be ({n}, {n}), got {C.shape}")
    if not np.isfinite(C).all():
        raise ValueError("dense strategy contains NaN or Inf")
    if np.any(np.triu(C, 1) != 0):
        raise ValueError("dense strategy must be lower-triangular")
    if np.any(np.diag(C) == 0):
        raise ValueError("dense strategy must have a nonzero diagonal")
    sens = matrix_sensitivity_lower_bound(C, schema)
    B = np.cumsum(np.linalg.inv(C), axis=0)  # A @ C^-1 for the prefix-sum workload
    max_error, rms_error = dense_error(B)
    return MechanismLoss(schema, sens, max_error, rms_error, "lower_bound")


def loss_fn(n: int, errors, sensitivity, sens_method: str):
    """``schema -> MechanismLoss`` over n rounds from a mechanism's kernels.

    The first call computes ``errors()``, the (MaxError, RmsError) that do
    not depend on the schema, and keeps them unless it raises; each call
    then takes ``sensitivity(schema)``. A schema of another n raises.
    """
    errors = cache(errors)

    def loss(schema: ParticipationSchema) -> MechanismLoss:
        if schema.n != n:
            raise ValueError(f"schema has n = {schema.n}, evaluator has n = {n}")
        max_error, rms_error = errors()
        return MechanismLoss(schema, sensitivity(schema), max_error, rms_error, sens_method)

    return loss


def blt_mechanism_loss_fn(params: BltParams, n: int):
    """``loss_fn`` of a BLT strategy, through the n-independent kernels of
    ``blt_optimizer.blt_loss``: the errors in closed form in O(d^2) from the
    inverse decays of ``inverse_blt_params``, which validates ``params`` as
    ``blt_coefs`` does, and the sensitivity by the pulse recursion in
    O(k d^2), exact on the non-negative, non-increasing column of valid
    parameters.
    """
    theta, omega = params.theta[None], params.omega[None]

    def errors():
        theta_hat = inverse_blt_params(params).theta_hat[None]
        return tuple(float(e[0]) for e in _blt_errors(theta, theta_hat, n))

    return loss_fn(
        n, errors, lambda schema: float(_blt_sensitivity(theta, omega, schema)[0]), "toeplitz"
    )


def blt_mechanism_loss(params: BltParams, schema: ParticipationSchema) -> MechanismLoss:
    """Loss bundle for a BLT strategy through the n-independent kernels.

    Agrees with the O(n^2) path through ``blt_coefs``,
    ``toeplitz_sensitivity`` and ``toeplitz_error`` to float precision,
    but costs O(d^3 + k d^2), the d^3 for the eigenproblem of the inverse
    decays, so it stays cheap at large n.
    """
    return blt_mechanism_loss_fn(params, schema.n)(schema)

"""Error and loss functionals for comparing noise mechanisms.

For a strategy C factoring the prefix-sum workload A = B C (B = A C^-1),
the released noise in the t-th prefix estimate has standard deviation
proportional to the t-th row norm of B. MaxError is the worst row norm,
RmsError the quadratic mean; multiplying by the sensitivity of C gives
MaxLoss and RmsLoss, the mechanism-quality objectives.

Two pipelines: an O(n) Toeplitz path working on the inverse coefficients,
and a dense path for arbitrary strategies. They agree to float precision
on Toeplitz inputs and are cross-tested. ``blt_optimizer.blt_loss`` calls
the same Toeplitz error and shifted-sum sensitivity kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from corrnoise import blt_core
from corrnoise.blt_core import BltParams, toeplitz_inverse_coefs
from corrnoise.participation import (
    ParticipationSchema,
    matrix_sensitivity_lower_bound,
    toeplitz_sensitivity,
)


@dataclass(frozen=True)
class MechanismLoss:
    """Sensitivity and error/loss bundle for one mechanism at one schema.

    max_loss = max_error * sens and rms_loss = rms_error * sens, both
    scaled by the noise multiplier (default 1; losses are clip-norm
    normalized). sens_method records whether sens is exact for the
    mechanism class ("toeplitz") or only the front-loaded-pattern lower
    bound ("lower_bound").
    """

    schema: ParticipationSchema
    sens: float
    max_error: float
    rms_error: float
    max_loss: float
    rms_loss: float
    sens_method: str


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
    max_error, rms_error = _prefix_errors(np.asarray(c_inv, dtype=float))
    return float(max_error), float(rms_error)


def _prefix_errors(c_inv):
    """Unvalidated (MaxError, RmsError) of ``toeplitz_error``; no abs, complex-safe."""
    b = np.cumsum(c_inv)
    n = b.shape[0]
    max_error = np.sqrt(np.sum(b * b))
    rms_error = np.sqrt(np.sum((n - np.arange(n)) * b * b) / n)
    return max_error, rms_error


def dense_error(B) -> tuple[float, float]:
    """(MaxError, RmsError) of an explicit decoder matrix B.

    MaxError is the largest row L2 norm, RmsError the Frobenius norm
    over sqrt(n): the worst and root-mean-square noise standard
    deviations across the n released estimates.
    """
    B = np.asarray(B, dtype=float)
    row_norms = np.linalg.norm(B, axis=1)
    return float(row_norms.max()), float(np.sqrt((row_norms**2).mean()))


def _bundle(schema, sens, max_error, rms_error, noise_multiplier, method):
    return MechanismLoss(
        schema=schema,
        sens=sens,
        max_error=max_error,
        rms_error=rms_error,
        max_loss=noise_multiplier * max_error * sens,
        rms_loss=noise_multiplier * rms_error * sens,
        sens_method=method,
    )


def mechanism_loss(
    strategy, schema: ParticipationSchema, noise_multiplier: float = 1.0
) -> MechanismLoss:
    """Loss bundle for a strategy given as Toeplitz coefficients or dense C.

    1-d input: Toeplitz path. Coefficients are validated for the exact
    front-loaded-pattern sensitivity and inverted by the O(n^2)
    recurrence (use ``blt_mechanism_loss`` for the O(n d) pairing path).

    2-d input: dense path. C must be square lower-triangular with
    nonzero diagonal; sensitivity is the front-loaded lower bound and is
    flagged as such.
    """
    strategy = np.asarray(strategy, dtype=float)
    n = schema.n
    if strategy.ndim == 1:
        c = strategy[:n]
        sens = toeplitz_sensitivity(c, schema)
        max_error, rms_error = toeplitz_error(toeplitz_inverse_coefs(c))
        return _bundle(schema, sens, max_error, rms_error, noise_multiplier, "toeplitz")
    if strategy.ndim != 2:
        raise ValueError("strategy must be 1-d coefficients or a 2-d matrix")
    C = strategy
    if C.shape != (n, n):
        raise ValueError(f"dense strategy must be ({n}, {n}), got {C.shape}")
    if np.any(np.triu(C, 1) != 0):
        raise ValueError("dense strategy must be lower-triangular")
    if np.any(np.diag(C) == 0):
        raise ValueError("dense strategy must have a nonzero diagonal")
    sens = matrix_sensitivity_lower_bound(C, schema)
    Cinv = scipy.linalg.solve_triangular(C, np.eye(n), lower=True)
    B = np.cumsum(Cinv, axis=0)  # A @ Cinv for the prefix-sum workload
    max_error, rms_error = dense_error(B)
    return _bundle(schema, sens, max_error, rms_error, noise_multiplier, "lower_bound")


def blt_mechanism_loss_fn(params: BltParams, n: int, noise_multiplier: float = 1.0):
    """``schema -> MechanismLoss`` for a BLT strategy over n rounds, O(n d).

    The coefficients and the errors do not depend on the schema: the
    first call expands the coefficients, validates them through the
    sensitivity and only then pairs for the errors; every call after
    that computes only the sensitivity. A step that raises is not kept,
    so each later call raises the same way. Nothing runs until the
    first call; the schema's n must equal ``n``.
    """
    c = errors = None

    def loss(schema: ParticipationSchema) -> MechanismLoss:
        nonlocal c, errors
        if schema.n != n:
            raise ValueError(f"schema has n = {schema.n}, evaluator has n = {n}")
        if c is None:
            c = blt_core.blt_coefs(params, n, relaxed=True)
        sens = toeplitz_sensitivity(c, schema)
        if errors is None:
            errors = toeplitz_error(blt_core.blt_inverse_coefs(params, n))
        max_error, rms_error = errors
        return _bundle(schema, sens, max_error, rms_error, noise_multiplier, "toeplitz")

    return loss


def blt_mechanism_loss(
    params: BltParams, schema: ParticipationSchema, noise_multiplier: float = 1.0
) -> MechanismLoss:
    """Loss bundle for a BLT strategy through the O(n d) pairing path.

    Identical result to ``mechanism_loss(blt_coefs(params, n), schema)``
    but the inverse coefficients come from the inverse-pair decays
    instead of the quadratic recurrence, so this stays cheap at large n.
    """
    return blt_mechanism_loss_fn(params, schema.n, noise_multiplier)(schema)

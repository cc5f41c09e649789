"""Error and loss functionals for comparing noise mechanisms.

For a strategy C factoring the prefix-sum workload A = B C (B = A C^-1),
the released noise in the t-th prefix estimate has standard deviation
proportional to the t-th row norm of B. MaxError is the worst row norm,
RmsError the quadratic mean; multiplying by the sensitivity of C gives
MaxLoss and RmsLoss, the mechanism-quality objectives.

BLT strategies are evaluated by kernels in (theta, omega) whose cost
does not depend on n (errors by doubling, sensitivity by the pulse
recursion of ``participation``), shared with ``blt_optimizer.blt_loss``.
``toeplitz_error`` takes the errors of any Toeplitz strategy from its
inverse coefficients in O(n), and ``mechanism_loss`` evaluates an
arbitrary dense strategy. They agree to float precision and are
cross-tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from corrnoise.blt_core import BltParams
from corrnoise.participation import (
    ParticipationSchema,
    _blt_sensitivity,
    matrix_sensitivity_lower_bound,
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
    b = np.cumsum(np.asarray(c_inv, dtype=float))
    n = b.shape[0]
    max_error = np.sqrt(np.sum(b * b))
    rms_error = np.sqrt(np.sum((n - np.arange(n)) * b * b) / n)
    return float(max_error), float(rms_error)


def _matrix_power(F, n):
    """F^n for a (B, k, k) stack, by binary powering over the bits of n."""
    Fn = np.broadcast_to(np.eye(F.shape[-1], dtype=F.dtype), F.shape)
    for bit in bin(n)[2:]:
        Fn = Fn @ Fn
        if bit == "1":
            Fn = F @ Fn
    return Fn


def _blt_errors(theta, omega, n):
    """(MaxError, RmsError) of BLT(theta, omega) over n rounds, O(d^3 log n).

    theta and omega are (B, d); returns two (B,) arrays. Unvalidated and
    complex-safe (transposes, never conjugates). With A = diag(theta) -
    1 omega^T, the prefix sums b_i of C^-1 are the last entry of
    x_i = F^i x_0, x_0 = 1, F = [[A, 0], [-omega^T, 1]]: the recurrence
    ``stream_mult_inverse`` runs, with a running sum appended. So
    MaxError^2 = sum_{i<n} b_i^2 and n RmsError^2 = sum_{i<n} (n - i) b_i^2
    are quadratic forms in P_n = sum_{i<n} y_i y_i^T and
    Q_n = sum_{i<n} (n - i) y_i y_i^T for any coordinates y_i = T x_i.
    Both double over the bits of n (Smith 1968): P_2m = P_m + G^m P_m G^mT,
    Q_2m = Q_m + m P_m + G^m Q_m G^mT, and per set bit P <- Y + G P G^T,
    then Q <- Q + P, with G = T F T^-1 and Y = y_0 y_0^T.

    In the plain coordinates (T = I) the prefix sums of a good strategy
    settle near 0, so every doubling cancels O(1) entries to a small
    tail and the rounding error grows like n eps. The coordinates
    y_i = (s_i, b_{n+i}) avoid that: with w = F^n[d, :d], b_{n+i} =
    b_i + w . s_i is the small tail itself, G = [[A, 0], [-omega^T A^n, 1]],
    and b_i = b_{n+i} - w . s_i is recovered once, at the end.
    No inverse decays are needed.
    """
    theta = np.asarray(theta)
    omega = np.asarray(omega)
    batch, d = theta.shape
    dt = np.result_type(theta, omega, float)
    F = np.zeros((batch, d + 1, d + 1), dtype=dt)
    F[:, :, :d] = -omega[:, None, :]
    F[:, np.arange(d), np.arange(d)] += theta
    F[:, d, d] = 1.0
    Fn = _matrix_power(F, n)
    G = F.copy()
    G[:, d, :d] = -(omega[:, None, :] @ Fn[:, :d, :d])[:, 0]
    y0 = np.ones((batch, d + 1), dtype=dt)
    y0[:, d] = np.sum(Fn[:, d], axis=-1)  # b_n
    Y = y0[:, :, None] * y0[:, None, :]
    GT = G.swapaxes(-1, -2)
    P = Q = np.zeros(G.shape, dtype=dt)
    Gm = np.broadcast_to(np.eye(d + 1, dtype=dt), G.shape)  # G^m
    m = 0
    for bit in bin(n)[2:]:
        if m:
            # one stacked product moves P and Q together
            moved = Gm[:, None] @ np.stack([P, Q], axis=1) @ Gm.swapaxes(-1, -2)[:, None]
            P, Q = P + moved[:, 0], Q + m * P + moved[:, 1]
            Gm = Gm @ Gm
            m *= 2
        if bit == "1":
            P = Y + G @ P @ GT
            Q = Q + P
            Gm = G @ Gm
            m += 1
    v = np.concatenate([-Fn[:, d, :d], np.ones((batch, 1), dtype=dt)], axis=1)
    sums = np.einsum("bi,bkij,bj->kb", v, np.stack([P, Q], axis=1), v)
    return np.sqrt(sums[0]), np.sqrt(sums[1] / n)


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
    if np.any(np.triu(C, 1) != 0):
        raise ValueError("dense strategy must be lower-triangular")
    if np.any(np.diag(C) == 0):
        raise ValueError("dense strategy must have a nonzero diagonal")
    sens = matrix_sensitivity_lower_bound(C, schema)
    B = np.cumsum(np.linalg.inv(C), axis=0)  # A @ C^-1 for the prefix-sum workload
    max_error, rms_error = dense_error(B)
    return _bundle(schema, sens, max_error, rms_error, noise_multiplier, "lower_bound")


def blt_mechanism_loss_fn(params: BltParams, n: int, noise_multiplier: float = 1.0):
    """``schema -> MechanismLoss`` for a BLT strategy over n rounds.

    Errors and sensitivity come from the same n-independent kernels as
    ``blt_optimizer.blt_loss``: the errors by doubling in O(d^3 log n),
    once, since they do not depend on the schema; the sensitivity by the
    pulse recursion in O(k d^2) on every call. The first call validates
    ``params`` as ``blt_coefs`` does; valid parameters give a non-negative,
    non-increasing column, on which this sensitivity is exact. A failed
    validation is not kept, so each later call raises the same way.
    Nothing runs until the first call; the schema's n must equal ``n``.
    """
    theta, omega = params.theta[None], params.omega[None]
    errors = None

    def loss(schema: ParticipationSchema) -> MechanismLoss:
        nonlocal errors
        if schema.n != n:
            raise ValueError(f"schema has n = {schema.n}, evaluator has n = {n}")
        if errors is None:
            params.validate()
            errors = tuple(float(e[0]) for e in _blt_errors(theta, omega, n))
        sens = float(_blt_sensitivity(theta, omega, schema)[0])
        max_error, rms_error = errors
        return _bundle(schema, sens, max_error, rms_error, noise_multiplier, "toeplitz")

    return loss


def blt_mechanism_loss(
    params: BltParams, schema: ParticipationSchema, noise_multiplier: float = 1.0
) -> MechanismLoss:
    """Loss bundle for a BLT strategy through the n-independent kernels.

    Agrees with the O(n^2) path through ``blt_coefs``,
    ``toeplitz_sensitivity`` and ``toeplitz_error`` to float precision,
    but costs O(d^3 log n + k d^2), so it stays cheap at large n.
    """
    return blt_mechanism_loss_fn(params, schema.n, noise_multiplier)(schema)

"""Participation schemas and sensitivity under min-separation adjacency.

A schema (n, b, k) describes streams of n rounds where one user may
contribute to at most k rounds with pairwise gaps of at least b. The
sensitivity of a strategy matrix C is the worst case of ||C u(pi)|| over
participation patterns pi; for non-negative non-increasing Toeplitz
strategies the worst case is the front-loaded pattern
pi* = (0, b, ..., (k-1)b) and reduces to an O(k n) shifted-sum norm, or
for a BLT column to an O(k d^2) recursion over its d-dimensional state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from corrnoise.blt_core import _require_int


@dataclass(frozen=True)
class ParticipationSchema:
    """Rounds n, min-separation b, max participations k, all integers >= 1.

    Requires (k-1)*b < n, equivalently k <= ceil(n/b), so that the
    worst-case pattern fits; ``max_participations(n, b)`` is the largest
    such k.
    """

    n: int
    b: int
    k: int

    def __post_init__(self):
        _require_int(1, n=self.n, b=self.b, k=self.k)
        if (self.k - 1) * self.b >= self.n:
            raise ValueError(
                f"pattern does not fit: (k-1)*b = {(self.k - 1) * self.b} "
                f">= n = {self.n}; max feasible k is {max_participations(self.n, self.b)}"
            )


def max_participations(n: int, b: int) -> int:
    """Canonical worst-case participation count ceil(n/b)."""
    return -(-n // b)


def worst_case_pattern(schema: ParticipationSchema) -> np.ndarray:
    """The front-loaded pattern pi* = (0, b, 2b, ..., (k-1)b)."""
    return np.arange(schema.k) * schema.b


def _validate_toeplitz_column(c):
    # each check passes only on a true comparison, so NaN fails it
    if not np.isfinite(c).all():
        raise ValueError("Toeplitz sensitivity requires finite coefficients")
    if not (c >= -1e-12).all():
        raise ValueError("Toeplitz sensitivity requires non-negative coefficients")
    if not (np.diff(c) <= 1e-12).all():
        raise ValueError(
            "Toeplitz sensitivity requires non-increasing coefficients "
            "(the front-loaded pattern is not provably worst-case otherwise)"
        )


def _shifted_sum(c, b, k):
    """Unvalidated cbar = sum_{i<k} shift(c, i*b), truncated to n = len(c)."""
    n = c.shape[0]
    cbar = np.zeros(n, dtype=c.dtype)
    for i in range(k):
        s = i * b
        cbar[s:] += c[: n - s]
    return cbar


def _blt_sensitivity(theta, omega, schema: ParticipationSchema):
    """||_shifted_sum|| of the BLT(theta, omega) column in O(k d^2).

    theta and omega are (B, d); returns (B,). Unvalidated and complex-safe.
    C u for the front-loaded pattern runs the recurrence
    out_t = u_t + omega^T s_{t-1}, s_t = theta * s_{t-1} + u_t, so a pulse
    entering state s contributes (1 + omega^T s)^2 at its own round and,
    with v = theta * s + 1, (omega * v)^T G (omega * v) over the L - 1
    rounds up to the next pulse, where G_jl = sum_{r < L-1} (theta_j theta_l)^r
    (L = b, or what is left of n for the last pulse); the state then
    moves on to theta^(L-1) * v. G comes from expm1 of summed log decays,
    which keeps decays near 1 accurate, and equals L - 1 where they are 1.
    """
    n, b, k = schema.n, schema.b, schema.k
    log_theta = np.log(theta)
    log_pair = log_theta[:, :, None] + log_theta[:, None, :]
    # L - 1 for the inner segments and for the last one, stacked
    steps = np.array([b - 1, n - (k - 1) * b - 1])
    with np.errstate(invalid="ignore", divide="ignore"):
        grams = np.expm1(steps[:, None, None, None] * log_pair) / np.expm1(log_pair)
    grams = np.where(log_pair == 0, steps[:, None, None, None], grams)
    inner, last = zip(grams, np.exp(steps[:, None, None] * log_theta))
    s = np.zeros_like(log_theta)
    total = 0.0
    for i in range(k):
        g, decay = inner if i < k - 1 else last
        head = 1.0 + (omega * s).sum(axis=-1)
        v = theta * s + 1.0
        wv = omega * v
        total = total + head * head + np.einsum("bj,bjl,bl->b", wv, g, wv)
        s = decay * v
    return np.sqrt(total)


def toeplitz_sensitivity(c, schema: ParticipationSchema) -> float:
    """Exact sensitivity of LtToep(c) in O(k n), per unit clip norm.

    Builds cbar = sum_{i<k} shift(c, i*b) truncated to n and returns
    ||cbar||_2. Valid for non-negative non-increasing c (validated).
    """
    c = np.asarray(c, dtype=float)
    n = schema.n
    if c.shape[0] < n:
        raise ValueError(f"need at least n={n} coefficients, got {c.shape[0]}")
    c = c[:n]
    _validate_toeplitz_column(c)
    cbar = _shifted_sum(c, schema.b, schema.k)
    return float(np.sqrt(np.sum(cbar * cbar)))


def matrix_sensitivity_lower_bound(C, schema: ParticipationSchema) -> float:
    """||C u(pi*)||_2: sensitivity lower bound for a dense strategy, per unit clip norm.

    C may have any row count; columns index rounds (binary-tree strategies
    are taller than n). The bound is exact when the front-loaded pattern
    happens to be worst-case; for general C it is only a lower bound and
    is reported as such by the loss pipeline.
    """
    C = np.asarray(C, dtype=float)
    n = C.shape[1]
    idx = worst_case_pattern(schema)
    u = np.zeros(n)
    u[idx[idx < n]] = 1.0
    return float(np.linalg.norm(C @ u))

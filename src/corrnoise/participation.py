"""Participation schemas and sensitivity under min-separation adjacency.

A schema (n, b, k) describes streams of n rounds where one user may
contribute to at most k rounds with pairwise gaps of at least b. The
sensitivity of a strategy matrix C is the worst case of ||C u(pi)|| over
participation patterns pi; for non-negative non-increasing Toeplitz
strategies the worst case is the front-loaded pattern
pi* = (0, b, ..., (k-1)b) and reduces to an O(k n) shifted-sum norm, or
for a BLT column to an O(k d^2) recursion over its d-dimensional state:
the package's one BLT sensitivity, for one n or for many prefix lengths
at once.
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


def _blt_sensitivity(theta, omega, schema: ParticipationSchema):
    """``_blt_prefix_sensitivities`` at the schema's n alone, as (B,): the
    sensitivity that the fit minimizes, ``eval`` and ``sweep`` print and
    the simulator calibrates its noise with."""
    return _blt_prefix_sensitivities(theta, omega, schema.b, schema.k, [schema.n])[0]


def _blt_prefix_sensitivities(theta, omega, b, k, lengths):
    """||C u(pi*)|| of the BLT(theta, omega) column at (n, b, k) for each of T lengths n.

    theta and omega are (B, d); returns (T, B) in O(k d^2 + T d^2).
    Unvalidated and complex-safe. C u for the front-loaded pattern runs
    the recurrence out_t = u_t + omega^T s_{t-1}, s_t = theta * s_{t-1} + u_t,
    so a pulse entering state s contributes (1 + omega^T s)^2 at its own
    round and, with v = theta * s + 1, (omega * v)^T G (omega * v) over
    the L - 1 rounds up to the next pulse, where
    G_jl = sum_{r < L-1} (theta_j theta_l)^r (L = b, or what is left of n
    for the last pulse); the state then moves on to theta^(L-1) * v. G
    comes from expm1 of summed log decays, which keeps decays near 1
    accurate, and equals L - 1 where they are 1. The first k - 1 pulses
    run once and the last takes a (T, B, d, d) stack of Grams, one per
    length; each n must fit the pattern, (k - 1) b < n. A stack of many
    lengths may sum its quadratic forms in another order than a stack of
    one, so a row can differ from ``_blt_sensitivity`` in the last bit.
    """
    log_theta = np.log(theta)
    log_pair = log_theta[:, :, None] + log_theta[:, None, :]
    # L - 1 for the inner segments, then for the last one at each length, stacked
    steps = np.concatenate(([b - 1], np.asarray(lengths) - (k - 1) * b - 1))[:, None, None, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        grams = np.expm1(steps * log_pair) / np.expm1(log_pair)
    grams = np.where(log_pair == 0, steps, grams)
    inner, last = grams[0], grams[1:]
    decay = np.exp((b - 1) * log_theta)
    s = np.zeros_like(log_theta)
    total = 0.0
    for i in range(k):
        head = 1.0 + (omega * s).sum(axis=-1)
        v = theta * s + 1.0
        wv = omega * v
        g = inner if i < k - 1 else last
        total = total + head * head + np.einsum("bj,...bjl,bl->...b", wv, g, wv)
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
    cbar = np.zeros(n)
    for i in range(schema.k):
        cbar[i * schema.b :] += c[: n - i * schema.b]
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

"""Privacy accounting: Gaussian-mechanism zCDP and (epsilon, delta) conversion.

The correlated-noise mechanism releases C x + z with z iid Gaussian of
standard deviation sigma * zeta and sens the clip-normalized sensitivity
of C, so it is exactly the Gaussian mechanism at multiplier
alpha = sigma / sens and satisfies rho-zCDP with rho = sens^2 / (2 sigma^2).

The conversion to (epsilon, delta) uses the standard zCDP tail bound.
Both forms here are upper bounds: the closed form
epsilon = rho + 2 sqrt(rho ln(1/delta)), and the exact minimum of a
refined bound over the Renyi order, which is never larger. Numerically
tighter accountants (privacy loss distributions) give smaller epsilon for
the same mechanism; outputs are labeled accordingly.
"""

from __future__ import annotations

import math

METHOD_LABEL = "upper bound (zCDP conversion)"

# delta for production-style accounting unless the caller says otherwise
DEFAULT_DELTA = 1e-10


def zcdp_of(sens: float, sigma: float) -> float:
    """rho = sens^2 / (2 sigma^2); sigma = 0 reports infinite rho explicitly."""
    if not sens >= 0:  # written so that NaN fails too
        raise ValueError(f"sensitivity must be >= 0, got {sens}")
    if not sigma >= 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return math.inf
    return sens * sens / (2.0 * sigma * sigma)


def eps_of_zcdp(rho: float, delta: float = DEFAULT_DELTA, refined: bool = False) -> float:
    """epsilon such that rho-zCDP implies (epsilon, delta)-DP.

    Closed form: rho + 2 sqrt(rho ln(1/delta)). With ``refined=True`` the
    tail bound

        epsilon(a) = rho a + (log(1/delta) + (a-1) log(1 - 1/a) - log a) / (a - 1)

    is minimized over the order a > 1, which is never worse than the
    closed form. Its derivative rho - (log(1/delta) - log a)/(a - 1)^2
    has one zero on a > 1, the root of rho (a-1)^2 + log a = log(1/delta),
    which lies in (1, 1 + sqrt(log(1/delta)/rho)) and is found by
    bisection. Both are upper bounds on the true epsilon. The refined
    value is clamped at 0: at tiny rho the bound dips below 0, where the
    true epsilon is 0 (the Gaussian's total variation is below delta).
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not rho >= 0:  # NaN fails too (zcdp_of(inf, inf))
        raise ValueError(f"rho must be >= 0, got {rho}")
    if rho == 0.0:
        return 0.0
    if math.isinf(rho):
        return math.inf
    log1d = math.log(1.0 / delta)
    closed = rho + 2.0 * math.sqrt(rho * log1d)
    if not refined:
        return closed

    # the left side of the root equation increases on a > 1; bisect
    # until the bracket is two adjacent doubles (at huge rho the upper
    # end would round to 1, so it is kept at least one double above)
    lo, hi = 1.0, max(1.0 + math.sqrt(log1d / rho), math.nextafter(1.0, 2.0))
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if rho * (mid - 1.0) ** 2 + math.log(mid) < log1d:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    a = hi
    refined_eps = rho * a + (log1d + (a - 1.0) * math.log1p(-1.0 / a) - math.log(a)) / (
        a - 1.0
    )
    return max(0.0, min(closed, refined_eps))

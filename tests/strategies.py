"""Shared hypothesis strategies for property suites.

Decays are drawn from a 1/100 integer grid: strictly descending with
gaps >= 0.01 by construction, so no example is filtered and every
suite reaches its full case budget.
"""

import numpy as np
from hypothesis import strategies as st

from corrnoise.blt_core import BltParams


def blt_params_strategy(dmax=4, omega_floor=0.01):
    @st.composite
    def build(draw):
        d = draw(st.integers(1, dmax))
        levels = draw(st.sets(st.integers(2, 98), min_size=d, max_size=d))
        theta = np.array(sorted(levels, reverse=True), dtype=float) / 100.0
        w = np.array(draw(st.lists(st.integers(1, 100), min_size=d, max_size=d)))
        scale = draw(st.floats(omega_floor * d, 1.0))
        omega = w / w.sum() * scale
        return BltParams(theta, omega)

    return build()


def near_unit_params_strategy(dmax=4):
    """Decays 1 - g with the gaps g log-spaced from 1e-11 to 0.5.

    The 200 grid levels are far enough apart (ratio 1.13) that adjacent
    decays differ by more than 1e-12 even at the 1e-11 end.
    """
    gaps = np.logspace(-11, np.log10(0.5), 200)

    @st.composite
    def build(draw):
        d = draw(st.integers(1, dmax))
        levels = draw(st.sets(st.integers(0, 199), min_size=d, max_size=d))
        theta = 1.0 - gaps[sorted(levels)]
        w = np.array(draw(st.lists(st.integers(1, 100), min_size=d, max_size=d)))
        scale = draw(st.floats(0.01 * d, 1.0))
        return BltParams(theta, w / w.sum() * scale)

    return build()


def monotone_coefs_strategy(nmax=16):
    """Non-negative, non-increasing coefficient vectors with c0 = 1."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, nmax))
        tail = sorted(
            draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1)),
            reverse=True,
        )
        return np.array([1.0, *tail])

    return build()

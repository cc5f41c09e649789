"""Binary-tree aggregation baseline and external strategy-matrix loading.

The tree strategy over 2^(L-1) leaves is built by the recursion

    C(1) = [1],    C(L) = [[C(L-1), 0], [0, C(L-1)], [1 ... 1]]

so every column (round) sums to L: each leaf lies under L nodes.
``build_tree_matrix`` materializes it (for arbitrary n, the next
power-of-two tree truncated to the first n columns, all-zero rows
dropped) and ``full_decoder`` decodes it by the Moore-Penrose
pseudoinverse; both are dense and guarded to desk scales, and serve as
the reference the closed forms are checked against.

Evaluation never builds C. It runs at complete horizons h = 2^L, where
C^T C is diagonal in the Haar basis (a wavelet of support 2^s has
eigenvalue 2^s - 1, the constant vector 2h - 1), so the pseudoinverse
decoder's prefix variances are a sum of L + 1 terms (Honaker 2015,
"Efficient Use of Differentially Private Binary Trees"; Hay et al. 2010,
arXiv 0904.0942), and ||C u|| is a count of pattern rounds per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from corrnoise.blt_core import _require_int, _require_memory
from corrnoise.loss_metrics import MechanismLoss, loss_fn
from corrnoise.participation import (
    ParticipationSchema,
    max_participations,
    worst_case_pattern,
)

DENSE_GUARD = 8192


@dataclass(frozen=True)
class TreeStrategy:
    C: np.ndarray
    levels: int
    n: int


def build_tree_matrix(n: int) -> TreeStrategy:
    """Tree strategy covering n rounds (truncated next power-of-two tree)."""
    _require_int(1, n=n)
    if n > DENSE_GUARD:
        raise ValueError(f"n = {n} exceeds the dense materialization guard ({DENSE_GUARD})")
    C = np.ones((1, 1))
    levels = 1
    while C.shape[1] < n:
        r, cols = C.shape
        C = np.vstack(
            [
                np.hstack([C, np.zeros((r, cols))]),
                np.hstack([np.zeros((r, cols)), C]),
                np.ones((1, 2 * cols)),
            ]
        )
        levels += 1
    C = C[:, :n]
    C = C[C.sum(axis=1) > 0]
    return TreeStrategy(C=C, levels=levels, n=n)


def full_decoder(tree: TreeStrategy) -> np.ndarray:
    """B = A C^+ : optimal (pseudoinverse) decoding of all tree nodes.

    C has full column rank by construction; computed by economic QR with
    a residual check on C^+ C = I.
    """
    C = tree.C
    n = tree.n
    Q, R = np.linalg.qr(C)
    if np.min(np.abs(np.diag(R))) <= 1e-10:
        raise np.linalg.LinAlgError("tree strategy lost column rank")
    Cplus = np.linalg.solve(R, Q.T)
    resid = np.linalg.norm(Cplus @ C - np.eye(n))
    if resid > 1e-8:
        raise np.linalg.LinAlgError(f"pseudoinverse residual {resid:.2e} > 1e-8")
    return np.cumsum(Cplus, axis=0)  # A @ Cplus for the prefix-sum workload


def tree_eval_horizon(n: int) -> int:
    """Largest complete-tree round count not exceeding n (2^floor(log2 n)).

    Published tree-baseline losses evaluate the largest complete tree
    that the level count ceil(log2 n) affords, rather than a ragged
    truncation past it; this function pins that convention.
    """
    return 1 << (int(n).bit_length() - 1)


def _tree_errors(h: int) -> tuple[float, float]:
    """(MaxError, RmsError) of the pseudoinverse-decoded complete tree over h = 2^L rounds.

    The prefix indicator 1_t has component t on the constant vector and
    m_s(t) = min(a, 2^s - a), a = t mod 2^s, on the one wavelet of
    support 2^s that straddles t, so its variance 1_t^T (C^T C)^-1 1_t is
    t^2 / (h (2h - 1)) + sum_{s=1..L} m_s(t)^2 / (2^s (2^s - 1)).
    """
    t = np.arange(1, h + 1)
    var = (t * t) / (h * (2.0 * h - 1.0))
    for s in range(1, h.bit_length()):
        q = 1 << s
        a = t & (q - 1)
        m = np.minimum(a, q - a)
        var += (m * m) / (q * (q - 1.0))
    return float(np.sqrt(var.max())), float(np.sqrt(var.mean()))


def _tree_sensitivity(h: int, schema: ParticipationSchema) -> float:
    """||C u|| of the complete tree over h = 2^L rounds for the front-loaded pattern.

    Rounds past h are dropped, by capping k at what fits in h rounds. The
    node at level l covering leaves [j 2^l, (j+1) 2^l) sums
    bincount(idx >> l)[j] pattern rounds, so the squared norm is an exact
    integer sum over the L + 1 levels.
    """
    k = min(schema.k, max_participations(h, schema.b))
    idx = worst_case_pattern(ParticipationSchema(h, schema.b, k))
    sq = sum(int(np.sum(np.bincount(idx >> level) ** 2)) for level in range(h.bit_length()))
    return math.sqrt(sq)


def tree_loss_fn(n: int):
    """``loss_fn`` of full-decoded tree aggregation over n rounds, both
    kernels at the evaluation horizon."""
    h = tree_eval_horizon(n)
    # the errors' arrays at the horizon
    _require_memory(7 * h, f"n {n}")
    return loss_fn(
        n, lambda: _tree_errors(h), lambda schema: _tree_sensitivity(h, schema), "lower_bound"
    )


def eval_tree(schema: ParticipationSchema) -> MechanismLoss:
    """Loss bundle for full-decoded tree aggregation over the schema's n rounds.

    When n is not a power of two the evaluation horizon drops to the
    largest complete tree below n (see ``tree_eval_horizon``); the
    worst-case pattern is restricted to rounds inside the horizon.
    Sensitivity is the front-loaded-pattern lower bound, flagged as such
    (empirically tight for trees at enumerable sizes, but not proven).
    """
    return tree_loss_fn(schema.n)(schema)


# ---------------------------------------------------------------------------
# externally supplied dense strategies
# ---------------------------------------------------------------------------


def load_strategy_matrix(path) -> np.ndarray:
    """Read a strategy matrix, as floats, from .npy (by extension) or CSV.

    Only reads: ``loss_metrics.mechanism_loss`` checks the matrix. A file
    that cannot be parsed, or a pickled .npy (never unpickled), raises
    ValueError naming ``path``.
    """
    try:
        if str(path).endswith(".npy"):
            return np.asarray(np.load(path, allow_pickle=False), dtype=float)
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except (EOFError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc

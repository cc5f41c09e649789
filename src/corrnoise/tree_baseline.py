"""Binary-tree aggregation baseline and external strategy-matrix loading.

The tree strategy over 2^(L-1) leaves is built by the recursion

    C(1) = [1],    C(L) = [[C(L-1), 0], [0, C(L-1)], [1 ... 1]]

so every column (round) sums to L: each leaf lies under L nodes. For
arbitrary n the next power-of-two tree is truncated to the first n
columns and all-zero rows are dropped, which keeps full column rank.
Decoding uses the Moore-Penrose pseudoinverse (all nodes optimally
combined); the baseline is evaluation-only and dense, so it is guarded
to desk scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from corrnoise.loss_metrics import MechanismLoss, _bundle, dense_error
from corrnoise.participation import (
    ParticipationSchema,
    matrix_sensitivity_lower_bound,
)

DENSE_GUARD = 8192


@dataclass(frozen=True)
class TreeStrategy:
    C: np.ndarray
    levels: int
    n: int


def build_tree_matrix(n: int, guard: int = DENSE_GUARD) -> TreeStrategy:
    """Tree strategy covering n rounds (truncated next power-of-two tree)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > guard:
        raise ValueError(
            f"n = {n} exceeds the dense materialization guard ({guard})"
        )
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
    Q, R = scipy.linalg.qr(C, mode="economic")
    if np.min(np.abs(np.diag(R))) <= 1e-10:
        raise np.linalg.LinAlgError("tree strategy lost column rank")
    Cplus = scipy.linalg.solve_triangular(R, Q.T)
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


def tree_loss_fn(n: int, noise_multiplier: float = 1.0):
    """``schema -> MechanismLoss`` for full-decoded tree aggregation over n rounds.

    The decode does not depend on the schema: the first call builds the
    tree at the evaluation horizon, decodes it and takes its errors, and
    every call then computes only the sensitivity. A decode that raises
    is not kept, so each later call raises the same way. Nothing runs
    until the first call.
    """
    decoded = None  # (tree, max_error, rms_error) once the decode succeeds

    def loss(schema: ParticipationSchema) -> MechanismLoss:
        nonlocal decoded
        if decoded is None:
            tree = build_tree_matrix(tree_eval_horizon(n))
            decoded = (tree, *dense_error(full_decoder(tree)))
        tree, max_error, rms_error = decoded
        eval_schema = ParticipationSchema(
            tree.n, schema.b, min(schema.k, -(-tree.n // schema.b))
        )
        sens = matrix_sensitivity_lower_bound(tree.C, eval_schema)
        return _bundle(schema, sens, max_error, rms_error, noise_multiplier, "lower_bound")

    return loss


def eval_tree(
    n: int, schema: ParticipationSchema, noise_multiplier: float = 1.0
) -> MechanismLoss:
    """Loss bundle for full-decoded tree aggregation.

    When n is not a power of two the evaluation horizon drops to the
    largest complete tree below n (see ``tree_eval_horizon``); the
    worst-case pattern is restricted to rounds inside the horizon.
    Sensitivity is the front-loaded-pattern lower bound, flagged as such
    (empirically tight for trees at enumerable sizes, but not proven).
    """
    return tree_loss_fn(n, noise_multiplier)(schema)


# ---------------------------------------------------------------------------
# externally supplied dense strategies
# ---------------------------------------------------------------------------


def load_strategy_matrix(path) -> np.ndarray:
    """Load a square lower-triangular strategy matrix (.npy or CSV)."""
    if str(path).endswith(".npy"):
        C = np.asarray(np.load(path, allow_pickle=False), dtype=float)
    else:
        C = np.loadtxt(path, delimiter=",", ndmin=2)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"{path}: matrix is not square: {C.shape}")
    if not np.all(np.isfinite(C)):
        raise ValueError(f"{path}: matrix contains NaN or Inf")
    if np.any(np.triu(C, 1) != 0):
        raise ValueError(f"{path}: matrix is not lower-triangular")
    return C

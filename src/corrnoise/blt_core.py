"""Buffered linear Toeplitz (BLT) strategy matrices.

A BLT strategy matrix is the lower-triangular Toeplitz matrix C = LtToep(c)
whose first column mixes d geometric decays:

    c_0 = 1,   c_i = sum_j omega_j * theta_j**(i-1)   (i >= 1).

The two key structural facts implemented here:

1. Multiplication by C and by C^-1 can be streamed row by row with a d x m
   buffer matrix S, independent of the number of rounds n.
2. C^-1 is itself a d-buffer BLT whose decays theta_hat and output scales
   come from one d x d symmetric eigenproblem; ``calc_output_scale`` gives,
   in product form, the output scales that pair given decays with given
   inverse decays.

All coefficient math is double precision on purpose: decays like
1 - 8e-12 lose all structure in single precision. Several helpers accept
complex inputs so that callers can push complex-step derivatives through
them; nothing here takes an absolute value on the differentiated path.
"""

from __future__ import annotations

import json
import math
import numbers
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

# minimum gap between decay values before the pairing formula is declared
# degenerate (omega_j divides by the pairwise differences theta_j - theta_l)
DEGENERATE_GAP = 1e-12
# the loss objectives: the max or the root-mean-square error over rounds
OBJECTIVES = ("max", "rms")


def _require_int(low, **values):
    """Raise ValueError unless every value (a count or a seed) is an integer >= low.

    A bool is refused, though Python counts it as one: ``true`` is not 1.
    """
    for name, value in values.items():
        if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral) and value >= low
        ):
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


class DegenerateParamsError(ValueError):
    """Raised when repeated or near-coincident decays break the pairing."""


@dataclass
class BltParams:
    """BLT parameterization (theta, omega) of a strategy matrix.

    theta: buffer decays, strictly descending in (0, 1), pairwise distinct.
    omega: output scales, positive, with sum(omega) <= 1 so that the
        Toeplitz coefficients are non-increasing (c_1 = sum(omega) <= c_0).

    d = 0 is allowed: the BLT with no buffers is the identity C = I
    (``IDENTITY_MECHANISM``). Validation is explicit (``validate``) and
    the same for every consumer.
    """

    theta: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        self.omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        if self.theta.shape != self.omega.shape or self.theta.ndim != 1:
            raise ValueError(
                f"theta and omega must be 1-d with equal length, got "
                f"{self.theta.shape} and {self.omega.shape}"
            )

    @property
    def d(self) -> int:
        return self.theta.shape[0]

    def validate(self) -> "BltParams":
        """Check the strategy-matrix invariants; returns self for chaining."""
        th, om = self.theta, self.omega
        if not (np.all(np.isfinite(th)) and np.all(np.isfinite(om))):
            raise ValueError("non-finite BLT parameters")
        if np.any(th <= 0) or np.any(th >= 1):
            raise ValueError("theta must lie strictly inside (0, 1)")
        if np.any(np.diff(th) >= 0):
            raise ValueError("theta must be strictly descending (canonical order)")
        if _too_close(th):
            raise DegenerateParamsError(
                "theta entries closer than 1e-12; pairing formula is degenerate"
            )
        if np.any(om <= 0):
            raise ValueError("omega must be strictly positive")
        if om.sum() > 1.0 + 1e-12:
            raise ValueError(
                f"sum(omega) = {om.sum()!r} > 1: coefficients would increase"
            )
        return self


# identity strategy C = I (independent noise): the BLT with no buffers
IDENTITY_MECHANISM = BltParams(np.empty(0), np.empty(0))


def _geometric_coefs(theta, omega, n):
    """c_0 = 1, c_i = sum_j omega_j theta_j^(i-1); no validation, complex-safe."""
    theta = np.atleast_1d(np.asarray(theta))
    omega = np.atleast_1d(np.asarray(omega))
    dt = np.result_type(theta, omega, float)
    c = np.empty(n, dtype=dt)
    c[0] = 1.0
    if n > 1:
        pw = np.power(theta[None, :], np.arange(n - 1, dtype=float)[:, None])
        c[1:] = pw @ omega
    return c


def blt_coefs(params: BltParams, n: int) -> np.ndarray:
    """First n Toeplitz coefficients of the BLT strategy matrix.

    O(n*d) time and memory. Validated.
    """
    _require_int(1, n=n)
    params.validate()
    return _geometric_coefs(params.theta, params.omega, n).astype(float)


def _too_close(decays):
    """Per row of the last axis: are two entries closer than DEGENERATE_GAP?"""
    if np.shape(decays)[-1] <= 1:
        return np.zeros(np.shape(decays)[:-1], dtype=bool)
    # control-flow check only; fine to look at real parts of complex inputs
    vals = np.sort(np.real(np.asarray(decays)), axis=-1)
    return np.min(np.diff(vals, axis=-1), axis=-1) < DEGENERATE_GAP


def calc_output_scale(theta, theta_hat) -> np.ndarray:
    """Output scales omega pairing the decays theta with inverse decays theta_hat.

    Returns the unique omega such that C = BLT(theta, omega) has
    C^-1 = BLT(theta_hat, .), in product form:

        omega_j = prod_l (theta_j - theta_hat_l) / prod_{l!=j} (theta_j - theta_l)

    These are the partial-fraction weights of the generating function
    q(x)/p(x), with p(x) = prod(1 - theta_l x) and q(x) = prod(1 - theta_hat_l x).
    Swapping the arguments gives the inverse's output scales omega_hat; at
    d=1, omega = theta - theta_hat. Every factor is a plain difference of
    decays, so decays near 1 keep full relative accuracy.

    Broadcasts over leading axes: (..., d) inputs give (..., d) output.
    Complex-safe: accepts complex inputs for derivative propagation.
    Entries of theta and theta_hat may coincide across the two vectors,
    but theta itself must be pairwise distinct.
    """
    theta = np.atleast_1d(np.asarray(theta))
    theta_hat = np.atleast_1d(np.asarray(theta_hat))
    if theta.shape != theta_hat.shape:
        raise ValueError("theta and theta_hat must have equal length")
    if np.any(_too_close(theta)):
        raise DegenerateParamsError(
            f"theta entries closer than {DEGENERATE_GAP}; "
            "the pairing divides by their differences"
        )
    return _residues(theta, theta_hat)


def _residues(poles, zeros):
    """prod_l (p_a - z_l) / prod_{b != a} (p_a - p_b) along the last axis:
    the product-form pairing, without the degeneracy check (the caller's)."""
    num = (poles[..., :, None] - zeros[..., None, :]).prod(axis=-1)
    gaps = poles[..., :, None] - poles[..., None, :]
    # the (fresh, contiguous) gaps viewed flat: every (d + 1)-th entry is diagonal
    gaps.reshape(*gaps.shape[:-2], -1)[..., :: poles.shape[-1] + 1] = 1.0
    return num / gaps.prod(axis=-1)


class InversePair(NamedTuple):
    theta_hat: np.ndarray
    omega_hat: np.ndarray


def _roundtrip_residual(theta, omega, theta_hat, omega_hat, n):
    """max |conv(c, chat) - e_0| on the first n coefficients.

    Products of lower-triangular Toeplitz matrices are lower-triangular
    Toeplitz, so the first column (this convolution) determines the whole
    matrix product; checking it against e_0 checks C * C^-1 = I.
    """
    c = _geometric_coefs(theta, omega, n)
    chat = _geometric_coefs(theta_hat, omega_hat, n)
    conv = np.convolve(c, chat)[:n]
    conv[0] -= 1.0
    return np.max(np.abs(conv))


def inverse_blt_params(params: BltParams) -> InversePair:
    """Parameters (theta_hat, omega_hat) of the inverse strategy C^-1.

    ``stream_mult_inverse`` runs C^-1 as the state-space recurrence
    S_t = A S_{t-1} + 1 z_t with A = diag(theta) - 1 omega^T and output
    chat_i = -omega^T A^(i-1) 1. With s = sqrt(omega), A is similar to the
    symmetric M = diag(theta) - s s^T = Q diag(theta_hat) Q^T, so the
    inverse decays are the eigenvalues of M and chat_i = -s^T M^(i-1) s
    gives omega_hat = -(Q^T s)^2. The identity (d = 0) gives the 0 x 0
    problem and the empty pair.

    Correctness is defined solely by the roundtrip C * C^-1 = I, which is
    verified on the leading coefficients; a roundtrip residual above 1e-9
    raises ``np.linalg.LinAlgError``.
    """
    params.validate()
    theta, omega = params.theta, params.omega
    s = np.sqrt(omega)
    M = -np.outer(s, s)
    # theta - omega rather than theta - s**2: when sum omega_j/theta_j = 1
    # the exact diagonal keeps the zero inverse decay exactly 0
    np.fill_diagonal(M, theta - omega)
    # M is symmetric, so theta_hat is real, and interlacing under the
    # rank-one downdate puts it in [theta_d - sum(omega), theta_1], inside
    # (-1, 1) for strictly valid params: only the residual is checked
    evals, Q = np.linalg.eigh(M)
    theta_hat = evals[::-1]
    omega_hat = -((s @ Q) ** 2)[::-1]
    resid = _roundtrip_residual(theta, omega, theta_hat, omega_hat, 2 * params.d + 2)
    if not resid <= 1e-9:  # a NaN residual fails too
        raise np.linalg.LinAlgError(
            f"inverse decay recovery failed: roundtrip residual {resid:.2e}"
        )
    return InversePair(theta_hat, omega_hat)


def toeplitz_inverse_coefs(c: np.ndarray) -> np.ndarray:
    """Coefficients of LtToep(c)^-1 by the O(n^2) triangular recurrence.

    chat_0 = 1/c_0 and chat_i = -(1/c_0) sum_{j=1..i} c_j chat_{i-j}.
    This is the brute-force oracle used to validate the O(n*d) inverse
    path; it is also the generic inverse for non-BLT coefficients.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.shape[0] < 1:
        raise ValueError("c must be a nonempty 1-d coefficient array")
    if c[0] == 0.0:
        raise ValueError("c[0] must be nonzero")
    n = c.shape[0]
    chat = np.empty(n)
    chat[0] = 1.0 / c[0]
    for i in range(1, n):
        chat[i] = -(c[1 : i + 1] @ chat[i - 1 :: -1]) / c[0]
    return chat


def blt_inverse_coefs(params: BltParams, n: int) -> np.ndarray:
    """First n coefficients of the inverse strategy; O(n*d).

    Same values as ``toeplitz_inverse_coefs(blt_coefs(params, n))`` but
    through the inverse decays of ``inverse_blt_params``, so cost stays
    linear in n.
    """
    _require_int(1, n=n)
    pair = inverse_blt_params(params)
    return _geometric_coefs(pair.theta_hat, pair.omega_hat, n)


# ---------------------------------------------------------------------------
# streaming multiplication (constant memory in the number of rounds)
# ---------------------------------------------------------------------------


# columns per fused pass of ``stream_mult_inverse``: a d x _CHUNK slice of
# the buffers (512 KB at d = 4) stays in L2 through the update
_CHUNK = 1 << 14
# chunks per block of input that one call fills: the caller fills the first
# block of a round, a helper thread the later ones ahead of the recurrence
_BLOCK_CHUNKS = 4


@dataclass
class NoiseGeneratorState:
    """State for streaming multiplication by C^-1 (correlated noise).

    The buffer matrix S is the only piece of state whose size depends on
    the problem: exactly d x m reals. ``round`` counts emissions; a state
    is single-owner and strictly sequential (round t depends on t-1).
    Gaussian draws come from ``rng``, a counter-based Philox generator
    that ``make_noise_generator`` seeds. Every round is elementwise ufunc
    arithmetic in a fixed order, with no BLAS call, so identical seeds
    give bitwise-identical streams on every numpy build. A round
    allocates the row it returns and one scratch row of at most
    ``_CHUNK`` columns. A round wider than one block fills its later
    blocks on one helper thread, joined before the round returns; during
    a round nothing else may use ``rng``. ``stream_mult_inverse_block``
    emits many narrow rounds at once, with the same bits.
    ``buffers``, ``round`` and ``rng.bit_generator.state`` form a checkpoint:
    copied into a fresh ``make_noise_generator`` state for the same params
    and m, they continue the stream bit for bit. Only this module reads
    or writes ``buffers``.
    """

    params: BltParams
    buffers: np.ndarray
    round: int
    noise_std: float
    max_rounds: Optional[int]
    rng: np.random.Generator


def make_noise_generator(
    params: BltParams,
    m: int,
    noise_std: float,
    seed: int = 0,
    max_rounds: Optional[int] = None,
) -> NoiseGeneratorState:
    """Fresh zero-buffer state for ``stream_mult_inverse``.

    ``max_rounds=None`` opts into unbounded emission (the coefficients
    extend naturally to any n); passing the optimization horizon catches
    accidental overruns instead.
    """
    params.validate()
    _require_int(1, m=m)
    if not 0.0 <= noise_std < math.inf:  # NaN fails too
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    # Philox takes any non-negative integer; 1.5 would silently become 1
    _require_int(0, seed=seed)
    if max_rounds is not None:  # 2.5 would emit 3 rounds, 0 none
        _require_int(1, max_rounds=max_rounds)
    return NoiseGeneratorState(
        params=params,
        buffers=np.zeros((params.d, m)),
        round=0,
        noise_std=float(noise_std),
        max_rounds=max_rounds,
        rng=np.random.Generator(np.random.Philox(int(seed))),
    )


def _fill(zhat, lo, hi, state, z):
    """Columns lo..hi of a round's input into ``zhat``: drawn in place, or copied from z."""
    out = zhat[lo:hi]
    if z is None:
        state.rng.standard_normal(out=out)
        out *= state.noise_std
        out += 0.0  # normal(0, s) is 0 + s*z: a zero-noise row is +0.0, not -0.0
    else:
        out[...] = z[lo:hi]


def _check_horizon(state, rounds):
    """Raise RuntimeError if ``rounds`` more emissions would pass ``max_rounds``."""
    if state.max_rounds is not None and state.round + rounds > state.max_rounds:
        raise RuntimeError(
            f"noise generator exhausted its declared horizon of "
            f"{state.max_rounds} rounds; construct one with a larger "
            f"max_rounds (or None) to extend the stream"
        )


def stream_mult_inverse(state: NoiseGeneratorState, input_row=None):
    """One streaming step of C^-1: returns (output_row, state).

    With S_{t-1} the buffer matrix and Z_t the round-t input row (an
    independent Gaussian draw of std ``noise_std`` unless a deterministic
    row is supplied):

        Zhat_t = Z_t - omega_0 S_{t-1,0} - ... - omega_{d-1} S_{t-1,d-1}
        S_t    = diag(theta) S_{t-1} + outer(1_d, Zhat_t)

    Zhat_t is row t of C^-1 Z. The input is filled into the output row in
    blocks of ``_BLOCK_CHUNKS`` chunks (Gaussians drawn in place, or a copy
    of the supplied row), in column order. The caller fills the first
    block; if there are more, one helper thread fills them while the
    caller runs the recurrence chunk by chunk behind it, waiting only when
    it catches up. Both stages release the GIL, so on two cores the round
    costs about the draw alone. Per chunk of ``_CHUNK`` columns the buffer
    rows are subtracted in the order above, and the chunk's buffers are
    updated while they are still in cache. Elementwise arithmetic in that
    fixed order makes the bits independent of the chunk and block widths
    and of the BLAS build, and draws made in order equal one
    ``normal(0, noise_std, size=m)`` draw, so the Philox state after the
    round is the same too. The helper is joined before the round returns
    or raises, and an error in it is raised here; the caller must not use
    ``state.rng`` while a round runs. O(d*m) per round; besides the
    returned row it allocates one scratch row of min(m, ``_CHUNK``)
    columns. The state is mutated in place and returned for convenience.
    A supplied row with the wrong shape, NaN or Inf is rejected before
    the state changes.
    """
    _check_horizon(state, 1)
    S = state.buffers
    m = S.shape[1]
    z = None
    if input_row is not None:
        z = np.asarray(input_row, dtype=float)
        if z.shape != (m,):
            raise ValueError(f"input row has shape {z.shape}, state expects ({m},)")
        if not np.all(np.isfinite(z)):
            raise ValueError("input row contains NaN or Inf")
    theta = state.params.theta[:, None]
    omega = state.params.omega.tolist()
    zhat = np.empty(m)
    block = _BLOCK_CHUNKS * _CHUNK
    _fill(zhat, 0, block, state, z)
    helper = None
    if m > block:
        filled = threading.Semaphore(0)  # one release per later block
        failed = []

        def fill_rest():
            try:
                for lo in range(block, m, block):
                    _fill(zhat, lo, lo + block, state, z)
                    filled.release()
            except BaseException as exc:  # raised again by the caller
                failed.append(exc)
                filled.release()

        helper = threading.Thread(target=fill_rest, name="corrnoise-noise-fill")
        helper.start()
    try:
        prod = np.empty(min(m, _CHUNK))
        for lo in range(0, m, _CHUNK):
            if lo and not lo % block:
                filled.acquire()
                if failed:
                    raise failed[0]
            out, S_c = zhat[lo : lo + _CHUNK], S[:, lo : lo + _CHUNK]
            tmp = prod[: out.shape[0]]
            for w, S_j in zip(omega, S_c):
                np.multiply(S_j, w, out=tmp)
                out -= tmp
            S_c *= theta
            S_c += out
    finally:
        if helper is not None:
            helper.join()
    state.round += 1
    return zhat, state


def stream_mult_inverse_block(state: NoiseGeneratorState, rounds: int) -> np.ndarray:
    """The next ``rounds`` rows of C^-1 Z at once: a (rounds, m) array.

    Bit for bit the rows that ``rounds`` calls of ``stream_mult_inverse``
    without a supplied row would return, and the state is left where
    they leave it (``buffers``, ``round`` and the Philox state): the
    whole block is drawn in one ``standard_normal`` call, which consumes
    the Philox stream as the row-by-row draws do, and each row runs the
    recurrence in the same fixed order. Per row, the d products
    omega_j S_j are written in one call below the input row of a
    (d + 1, m) scratch array and subtracted from it in row order by one
    ``subtract.reduce``: five array calls per row, whatever d, which is
    what makes narrow rows (a simulator's model) cheap; rows far wider
    than the cache run faster through ``stream_mult_inverse``'s chunks.
    Besides the block it allocates 3d + 1 scratch rows of m. A block
    that would pass ``max_rounds`` raises the ``stream_mult_inverse``
    error before the state changes.
    """
    _require_int(1, rounds=rounds)
    _check_horizon(state, rounds)
    S = state.buffers
    d, m = S.shape
    rows = np.empty((rounds, m))
    state.rng.standard_normal(out=rows)
    rows *= state.noise_std
    rows += 0.0  # as in ``_fill``: a zero-noise row is +0.0, not -0.0
    # full (d, m) copies: on narrow rows a broadcast costs more than the arithmetic
    theta = np.repeat(state.params.theta[:, None], m, axis=1)
    omega = np.repeat(state.params.omega[:, None], m, axis=1)
    work = np.empty((d + 1, m))
    head, products = work[0], work[1:]
    for zhat in rows:
        head[...] = zhat
        np.multiply(S, omega, out=products)
        np.subtract.reduce(work, axis=0, out=zhat)
        S *= theta
        S += zhat
    state.round += rounds
    return rows


# ---------------------------------------------------------------------------
# parameter file round-trip
# ---------------------------------------------------------------------------


def save_params(
    path,
    params: BltParams,
    opt_n: int,
    opt_min_sep: int,
    opt_max_part: int,
    objective: str,
) -> None:
    """Write the canonical parameter document.

    json emits shortest round-trip float representations, so the file
    reproduces the doubles exactly on load.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    doc = {
        "d": params.d,
        "theta": [float(t) for t in params.theta],
        "omega": [float(w) for w in params.omega],
        "opt_n": int(opt_n),
        "opt_min_sep": int(opt_min_sep),
        "opt_max_part": int(opt_max_part),
        "objective": objective,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_params(path):
    """Read a parameter document; returns (BltParams, metadata dict).

    A file that is not JSON, lacks a key, holds a value of the wrong type
    (theta or omega other than a list of numbers, a ``d`` or ``opt_*``
    count that is not an integer at or above its bound, an objective not
    in ``OBJECTIVES``) or gives a ``d`` other than the length of theta
    raises ValueError naming the file. The parameters are not validated
    here.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
        vectors = {key: doc[key] for key in ("theta", "omega")}
        d = doc["d"]
        meta = {key: doc[key] for key in ("opt_n", "opt_min_sep", "opt_max_part")}
        objective = doc["objective"]
        for name, entries in vectors.items():
            # np.array would keep "0.5" as a string and true as a bool
            if not isinstance(entries, list) or not all(
                isinstance(v, numbers.Real) and not isinstance(v, bool) for v in entries
            ):
                raise ValueError(f"{name} must be a list of numbers, got {entries!r}")
        _require_int(0, d=d)
        _require_int(1, **meta)  # int() would truncate 2052.5 to 2052
        if objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
        params = BltParams(np.array(vectors["theta"]), np.array(vectors["omega"]))
        meta["objective"] = objective
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if params.d != d:
        raise ValueError(f"{path}: d = {d} but theta has length {params.d}")
    return params, meta

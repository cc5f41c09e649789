"""Fit BLT parameters to a participation schema and loss objective.

The loss treats (theta, theta_hat) as the free variables: omega follows
from the product-form pairing, the sensitivity from (theta, omega) and
the decoder error in closed form from (theta, theta_hat), through the
n-independent kernels that ``blt_mechanism_loss`` also uses (so the fit
and the evaluation share one loss formula), and a log barrier keeps
omega positive. Infeasible points evaluate to +inf (never an exception).

The fit searches chain coordinates x in R^2d: the running products of
sigmoid(x), read alternately as theta and theta_hat, strictly interlace,
theta_1 > theta_hat_1 > theta_2 > ... > theta_d > theta_hat_d > 0. That
is exactly where every omega is positive (the interlacing of a rank-one
downdate; Golub 1973), and there sum(omega) = sum(theta) - sum(theta_hat)
< 1, so every probe is feasible up to rounding.

Gradients are complex-step derivatives (imag part at h = 1e-100), which
match central finite differences to ~1e-8 relative but have no
subtractive cancellation. The value and all 2d partial derivatives come
from one batched loss call on the (2d, 2d) stack x + i h e_j. Everything
on the differentiated path is complex-analytic: sums of squares instead
of absolute values, transposes instead of conjugates, and a sigmoid
branched on the real part.

The quasi-Newton driver is a hand-rolled L-BFGS with a strong Wolfe
line search that understands +inf returns: off-the-shelf L-BFGS-B
implementations treat a non-finite trial value as convergence failure at
the first iteration, while here the smallest infeasible step caps the
bracket and the search bisects toward it. Both are generators that yield
the point to evaluate, or a request for a search direction, so all
restarts run in lockstep: a step stacks the 2d complex-step rows of each
unfinished restart into one loss call (feasibility is decided per
restart), or answers all direction requests with one stacked two-loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from corrnoise.blt_core import (
    OBJECTIVES,
    BltParams,
    _require_int,
    _require_memory,
    _residues,
    _too_close,
    blt_coefs,
    blt_inverse_coefs,
    calc_output_scale,
)
from corrnoise.loss_metrics import _blt_errors, toeplitz_error
from corrnoise.participation import (
    ParticipationSchema,
    _blt_sensitivity,
    toeplitz_sensitivity,
)

# log-barrier weight during the fit; reported losses are barrier-free
BARRIER_LAMBDA = 1e-7
# complex-step size: h^2 vanishes against any loss value
COMPLEX_STEP = 1e-100
# L-BFGS: iteration cap, memory (curvature pairs kept), and the stops on
# the inf-norm of the gradient and on the relative decrease of the loss
MAXITER, MEMORY, GTOL, FTOL = 500, 10, 1e-9, 1e-13
# strong Wolfe line search: sufficient decrease, curvature, evaluation budget.
# Once a trial bounds the step, every later trial halves the bracket, which
# starts at least half as wide as max(1, lo) (as wide, if the first trial
# bounds it); so within the budget it stays wider than 2^-39 max(1, lo),
# and the search needs no stop on its width
WOLFE_C1, WOLFE_C2, WOLFE_MAX_EVALS = 1e-4, 0.9, 40


@dataclass
class OptimizerConfig:
    schema: ParticipationSchema
    d: int
    objective: str = "max"
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        _require_int(1, d=self.d, restarts=self.restarts)
        _require_int(0, seed=self.seed)


@dataclass
class OptimizationResult:
    params: BltParams
    loss: float  # barrier-free, on the requested objective
    converged: bool
    iterations: int
    restart_losses: list = field(default_factory=list)


def _sigmoid(x):
    # stable and analytic: branch on the real part only
    pos = np.real(x) >= 0
    out = np.empty_like(x)
    with np.errstate(over="ignore"):
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
    return out


def _chain(X):
    """(theta, theta_hat) at chain coordinates X, batched over leading axes.

    z = cumprod(sigmoid(X)) falls strictly from 1 toward 0; theta takes
    its even entries and theta_hat its odd ones, so the two interlace.
    Analytic, so complex steps pass through.
    """
    z = np.cumprod(_sigmoid(X), axis=-1)
    return z[..., 0::2], z[..., 1::2]


def _loss_batch(theta, theta_hat, schema: ParticipationSchema, objective, barrier_lambda):
    """``blt_loss`` at the rows of (..., B, d) theta and theta_hat, as a (..., B) array.

    The B rows of a group are meant to be complex-step perturbations of
    one real point, which share their real parts, so feasibility is
    decided per group: every group is evaluated, one with an infeasible
    row or a non-finite loss is +inf in every row, and every other group
    gets the values it would get alone. A (B, d) input is one group.
    """
    groups, d = np.shape(theta)[:-1], np.shape(theta)[-1]
    # (G, B, d): groups, rows
    theta, theta_hat = (np.reshape(v, (-1, *np.shape(theta)[-2:])) for v in (theta, theta_hat))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        omega = _residues(theta, theta_hat)
        th, thh, om = (v.reshape(-1, d) for v in (theta, theta_hat, omega))
        max_error, rms_error = _blt_errors(th, thh, schema.n)
        sens = _blt_sensitivity(th, om, schema)
        loss = ((max_error if objective == "max" else rms_error) * sens).reshape(theta.shape[:2])
        if barrier_lambda != 0.0:
            pen = (
                -np.log(theta).sum(axis=-1)
                - np.log1p(-theta).sum(axis=-1)
                - np.log(omega).sum(axis=-1)
            )
            loss = loss + barrier_lambda * pen
    rth, rthh = np.real(theta), np.real(theta_hat)
    inside = (rth > 0) & (rth < 1) & (rthh > 0) & (rthh < 1) & (np.real(omega) > 0)
    # near-coincident decays make the pairing blow up: infeasible
    ok = (inside & ~_too_close(theta)[..., None]).all(axis=(1, 2))
    ok &= np.isfinite(np.real(loss)).all(axis=1)
    return np.where(ok[:, None], loss, np.inf).reshape(groups)


@lru_cache(maxsize=None)
def _complex_steps(size):
    """i h e_j in row j: the read-only (size, size) complex-step offsets."""
    steps = 1j * COMPLEX_STEP * np.eye(size)
    steps.flags.writeable = False
    return steps


def _value_and_gradient(loss_batch, x):
    """loss and complex-step gradient at the points x (..., 2d), from one
    batch of the groups x + i h e_j."""
    values = loss_batch(x[..., None, :] + _complex_steps(x.shape[-1]))
    return np.real(values[..., 0]), np.imag(values) / COMPLEX_STEP


def blt_loss(
    theta,
    theta_hat,
    schema: ParticipationSchema,
    objective: str = "max",
    barrier_lambda: float = 0.0,
):
    """Differentiable mechanism loss at (theta, theta_hat).

    err(theta, omega) * sens(theta, omega), with omega from the pairing,
    plus barrier_lambda times the log barrier -sum log theta
    - sum log(1-theta) - sum log omega. Domain violations (decays outside
    (0,1), near-coincident decays, omega <= 0, which includes the identity
    endpoint theta_hat = theta) return +inf rather than raising, so the
    function is safe inside line searches.

    Complex-safe in both arguments for derivative propagation: a float
    for real input, a complex number for complex input.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}")
    theta = np.atleast_1d(np.asarray(theta))
    theta_hat = np.atleast_1d(np.asarray(theta_hat))
    loss = _loss_batch(theta[None], theta_hat[None], schema, objective, barrier_lambda)[0]
    return loss if np.iscomplexobj(loss) else float(loss)


# ---------------------------------------------------------------------------
# quasi-Newton engine
# ---------------------------------------------------------------------------


def _wolfe_search(x, f0, g0, p):
    """Strong Wolfe line search; non-finite trial values cap the step range.

    A generator: yields each trial point and receives its (f, g). One loop
    keeps the lowest point (lo, flo), the bracket's far end hi and cap, the
    smallest step known to give a non-finite value. It doubles the step,
    or bisects toward cap, until a trial fails Armijo, rises, or has an
    uphill slope, which sets hi; it then bisects the bracket. Only the
    evaluation budget ends it short of a strong Wolfe point, with the best
    Armijo-satisfying point if there is one. Returns (alpha, f, g) with
    alpha None on total failure. p must be a descent direction, as
    ``_lbfgs`` ensures.
    """
    d0 = float(g0 @ p)
    lo, flo, hi, cap = 0.0, f0, None, None
    best = None  # best (a, f, g) satisfying Armijo
    a = 1.0
    for _ in range(WOLFE_MAX_EVALS):
        fv, gv = yield x + a * p
        if not math.isfinite(fv):
            if hi is None:
                cap = a
            else:
                hi = a
        else:
            armijo = fv <= f0 + WOLFE_C1 * a * d0
            if armijo and (best is None or fv < best[1]):
                best = (a, fv, gv)
            # a rise against the start point does not bound the first trials
            if not armijo or (fv >= flo and (lo > 0 or hi is not None)):
                hi = a
            else:
                dv = float(gv @ p)
                if abs(dv) <= -WOLFE_C2 * d0:
                    return a, fv, gv
                if (dv >= 0) if hi is None else (dv * (hi - lo) >= 0):
                    hi = lo
                lo, flo = a, fv
        bound = cap if hi is None else hi
        a = 2.0 * a if bound is None else 0.5 * (lo + bound)
    return best or (None, f0, g0)


def _lbfgs(x0):
    """L-BFGS with the +inf-aware Wolfe search above.

    A generator: yields each point to evaluate and receives (f, g); yields
    (g, S, Y, rho), its gradient and last MEMORY curvature pairs
    (right-aligned, empty slots zero), and receives H g. Returns (x, f,
    iterations, converged). Pairs failing y's > 0 (up to scale) are dropped; a
    non-descent direction resets the memory to steepest descent. FTOL is
    a few hundred times the rounding of f: in a flat valley a tighter
    stop is met only when a step happens to gain next to nothing.
    """
    x = np.asarray(x0, dtype=float)
    f, g = yield x
    if not math.isfinite(f):
        return x, f, 0, False
    S, Y, rho = np.zeros((MEMORY, x.size)), np.zeros((MEMORY, x.size)), np.zeros(MEMORY)
    converged = False
    it = 0
    for it in range(1, MAXITER + 1):
        if np.abs(g).max() <= GTOL:
            converged = True
            break
        p = -(yield g, S, Y, rho)
        if p @ g >= 0:
            p = -g
            S[:], Y[:], rho[:] = 0.0, 0.0, 0.0
        alpha, fn, gnew = yield from _wolfe_search(x, f, g, p)
        if alpha is None:
            break
        s = alpha * p
        y = gnew - g
        if y @ s > 1e-12 * math.sqrt(s @ s) * math.sqrt(y @ y):
            S[:-1], Y[:-1], rho[:-1] = S[1:], Y[1:], rho[1:]
            S[-1], Y[-1], rho[-1] = s, y, 1.0 / (y @ s)
        x = x + s
        if abs(f - fn) <= FTOL * max(1.0, abs(f)):
            f, g = fn, gnew
            converged = True
            break
        f, g = fn, gnew
    return x, f, it, converged


def _two_loop(G, S, Y, rho):
    """H g for every row of the (R, n) gradients G, by the L-BFGS two-loop
    recursion over (R, m, n) curvature pairs S, Y and (R, m) weights rho,
    right-aligned as ``_lbfgs`` keeps them (zero slots leave a row as is;
    an empty history scales g by 1 / max(1, ||g||)). The dot products are
    stacked ``matmul``s, which round as the 1-D ``s @ q`` does, so each row
    is bit-identical to the per-restart recursion over lists.
    """
    m = S.shape[1]
    q = G[:, :, None].copy()
    alphas = [None] * m
    for j in range(m - 1, -1, -1):
        alphas[j] = rho[:, j, None, None] * (S[:, j, None] @ q)
        q -= alphas[j] * Y[:, j, :, None]
    empty = rho[:, -1, None, None] == 0
    yy = np.where(empty, 1.0, Y[:, -1, None] @ Y[:, -1, :, None])
    steepest = 1.0 / np.maximum(1.0, np.sqrt(G[:, None] @ G[:, :, None]))
    r = np.where(empty, steepest, (S[:, -1, None] @ Y[:, -1, :, None]) / yy) * q
    for j in range(m):
        beta = rho[:, j, None, None] * (Y[:, j, None] @ r)
        r += S[:, j, :, None] * (alphas[j] - beta)
    return r[:, :, 0]


def _lockstep(loss_batch, starts):
    """Run one ``_lbfgs`` per start point, all restarts in lockstep.

    Each step answers all open direction requests with one ``_two_loop``,
    or else evaluates every waiting point with one ``_value_and_gradient``
    call; a restart sees exactly what it would see alone. Returns each
    restart's (x, f, iterations, converged), in start order.
    """
    runs = [_lbfgs(x0) for x0 in starts]
    waiting = {i: next(run) for i, run in enumerate(runs)}
    results = [None] * len(runs)
    while waiting:
        asking = [i for i, request in waiting.items() if isinstance(request, tuple)]
        if asking:
            replies = zip(asking, _two_loop(*map(np.array, zip(*map(waiting.get, asking)))))
        else:
            f, g = _value_and_gradient(loss_batch, np.array(list(waiting.values())))
            replies = zip(list(waiting), zip(f.tolist(), g))
        for i, reply in list(replies):
            try:
                waiting[i] = runs[i].send(reply)
            except StopIteration as done:
                results[i] = done.value
                del waiting[i]
    return results


def _init_point(rng, d):
    """Multi-scale random start in chain coordinates.

    Decay i is a factor 1 - 2^-(d-i) u (u jittered around 1) below the
    hat-decay before it, or below 1 for the first, so the decays spread
    from near 1 downward; each hat-decay is a relative notch v below its
    decay.
    """
    u = rng.uniform(0.5, 1.5, size=d)
    v = rng.uniform(0.01, 0.2, size=d)
    ratios = np.ravel(np.column_stack([1.0 - 2.0 ** -np.arange(d, 0, -1.0) * u, 1.0 - v]))
    return np.log(ratios / (1.0 - ratios))


def optimize_blt(config: OptimizerConfig) -> OptimizationResult:
    """L-BFGS over chain coordinates with random restarts.

    Keeps the best barrier-free loss across restarts (ties go to the
    better-conditioned inverse pair). The line search accepts only finite
    points, so every restart ends feasible, with its decays interlaced
    in canonical order; they are still validated strictly. The winner's
    loss is checked against the independent O(n) coefficient path to
    1e-9 relative before returning.
    """
    schema = config.schema
    # the O(n) arrays of the end-of-fit check, refused before any restart
    _require_memory((config.d + 4) * schema.n, f"n {schema.n}")
    rng = np.random.default_rng(config.seed)

    def loss_batch(X, lam=BARRIER_LAMBDA):
        return _loss_batch(*_chain(X), schema, config.objective, lam)

    starts = [_init_point(rng, config.d) for _ in range(config.restarts)]
    # line searches probe extreme points, where intermediate overflow
    # warnings carry no information
    with np.errstate(over="ignore", invalid="ignore"):
        runs = _lockstep(loss_batch, starts)
    xs = np.stack([x for x, *_ in runs])
    restart_losses = [float(v) for v in loss_batch(xs[:, None, :], 0.0)[:, 0]]
    best = None
    for (x, _, iters, conv), loss in zip(runs, restart_losses):
        theta, theta_hat = _chain(x)
        params = BltParams(theta, calc_output_scale(theta, theta_hat)).validate()
        # conditioning proxy for ties: the largest relative drop to a pair
        gap = float(np.max(1.0 - theta_hat / theta))
        cand = (loss, gap, params, iters, conv)
        if (
            best is None
            or cand[0] < best[0] - 1e-12 * max(1.0, abs(best[0]))
            or (abs(cand[0] - best[0]) <= 1e-12 * max(1.0, abs(best[0])) and gap < best[1])
        ):
            best = cand
    loss, gap, params, iters, conv = best

    # independent check: the O(n) coefficient path, with the inverse from
    # the eigenproblem of ``inverse_blt_params``, must reproduce the loss
    n = schema.n
    max_error, rms_error = toeplitz_error(blt_inverse_coefs(params, n))
    reference = (max_error if config.objective == "max" else rms_error) * (
        toeplitz_sensitivity(blt_coefs(params, n), schema)
    )
    if abs(reference - loss) > 1e-9 * max(1.0, abs(loss)):
        raise RuntimeError(
            f"extracted parameters disagree with the loss pipeline: "
            f"{reference!r} vs {loss!r}"
        )
    return OptimizationResult(
        params=params,
        loss=float(loss),
        converged=bool(conv),
        iterations=int(iters),
        restart_losses=restart_losses,
    )

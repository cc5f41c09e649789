"""Dense and brute-force oracles the fast paths are checked against.

These exist only to validate the package: a dense lower-triangular
Toeplitz builder, streaming multiplication by C (the package only
streams C^-1), one round of C^-1 in the matrix-product form that the
fused chunk pass replaced, the prefix-sum workload matrix, the O(n^2) loss of a
Toeplitz strategy from its coefficients, the BLT errors by state-space
doubling in O(d^3 log n), the complex-step gradient of
``blt_loss`` in (theta, theta_hat), the L-BFGS two-loop recursion of one
restart over lists, which the fit's stacked ``_two_loop`` replaced,
the two-phase strong Wolfe line search that the fit's one-loop search
replaced,
exhaustive participation-pattern
enumeration with the sensitivity it implies, the one-client-at-a-time
simulator steps that the stacked cohort batch replaces, the simulator's
metrics recomputed one round at a time, the simulator run with its noise
streamed and its participation ledger kept round by round, which the
noise block and the ledger after the loop replaced, and a numerical
minimization of the refined epsilon bound.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar

from corrnoise import ftrl_sim
from corrnoise.accountant import zcdp_of
from corrnoise.blt_core import (
    blt_coefs,
    make_noise_generator,
    stream_mult_inverse,
    toeplitz_inverse_coefs,
)
from corrnoise.blt_optimizer import (
    WOLFE_C1,
    WOLFE_C2,
    WOLFE_MAX_EVALS,
    _loss_batch,
    _sigmoid,
    _value_and_gradient,
)
from corrnoise.loss_metrics import MechanismLoss, toeplitz_error
from corrnoise.participation import (
    ParticipationSchema,
    max_participations,
    toeplitz_sensitivity,
)


def lt_toeplitz(c: np.ndarray) -> np.ndarray:
    """Dense lower-triangular Toeplitz matrix with first column c."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    idx = np.arange(n)[:, None] - np.arange(n)[None, :]
    return np.where(idx >= 0, c[np.clip(idx, 0, n - 1)], 0.0)


def stream_mult(params, rows) -> np.ndarray:
    """Multiply a row stream by C using only the d x m buffer.

        Z_t = Zhat_t + omega @ S_{t-1};  S_t = diag(theta) S_{t-1} + Zhat_t

    ``rows`` is an (T, m) array or an iterable of length-m rows; returns
    the (T, m) array of outputs.
    """
    params.validate()
    rows = [np.asarray(r, dtype=float) for r in rows]
    if not rows:
        return np.zeros((0, 0))
    m = rows[0].shape[0]
    S = np.zeros((params.d, m))
    out = np.empty((len(rows), m))
    for t, zhat in enumerate(rows):
        if zhat.shape != (m,):
            raise ValueError(f"row {t} has shape {zhat.shape}, expected ({m},)")
        out[t] = zhat + params.omega @ S
        S *= params.theta[:, None]
        S += zhat[None, :]
    return out


def stream_mult_inverse_gemv(params, S, z) -> np.ndarray:
    """One round of C^-1 with ``omega @ S`` as one matrix-vector product.

        Zhat_t = Z_t - omega @ S_{t-1};  S_t = diag(theta) S_{t-1} + Zhat_t

    Updates the (d, m) buffers ``S`` in place and returns Zhat_t. The BLAS
    product sums in its own order, so this agrees with the package's fixed
    order accumulation to rounding, not bit for bit.
    """
    zhat = z - params.omega @ S
    S *= params.theta[:, None]
    S += zhat[None, :]
    return zhat


def prefix_sum_matrix(n: int) -> np.ndarray:
    """The lower-triangular all-ones workload A (running sums)."""
    return np.tril(np.ones((n, n)))


def toeplitz_mechanism_loss(c, schema: ParticipationSchema) -> MechanismLoss:
    """Loss bundle of LtToep(c) from its first n coefficients, O(n^2).

    The exact front-loaded-pattern sensitivity (c validated non-negative
    and non-increasing) times the errors of the inverse coefficients from
    the triangular recurrence.
    """
    c = np.asarray(c, dtype=float)[: schema.n]
    sens = toeplitz_sensitivity(c, schema)
    max_error, rms_error = toeplitz_error(toeplitz_inverse_coefs(c))
    return MechanismLoss(schema, sens, max_error, rms_error, "toeplitz")


def blt_loss_gradient(
    theta,
    theta_hat,
    schema: ParticipationSchema,
    objective: str = "max",
    barrier_lambda: float = 0.0,
):
    """Gradient of ``blt_loss`` in both parameter blocks.

    Complex-step differentiation, all coordinates in one batched loss
    call (the fit's ``_value_and_gradient``, here in the decays rather
    than their logits); satisfies the central-finite-difference contract
    (1e-5 relative at feasible points) without its truncation error. The
    point must be feasible (finite loss).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    d = len(theta)

    def loss_batch(X):
        return _loss_batch(X[:, :d], X[:, d:], schema, objective, barrier_lambda)

    f0, g = _value_and_gradient(loss_batch, np.concatenate([theta, theta_hat]))
    if not np.isfinite(f0):
        raise ValueError("gradient requested at an infeasible point (loss = +inf)")
    return g[:d], g[d:]


def two_loop_direction(g, S, Y, rhos):
    """H g for one restart by the L-BFGS two-loop recursion over lists.

    S, Y and rhos hold its curvature pairs and 1 / (y's), oldest first;
    an empty history scales g by 1 / max(1, ||g||). The per-restart form
    that ``blt_optimizer._two_loop`` stacks across restarts.
    """
    q = g.copy()
    alphas = []
    for i in range(len(S) - 1, -1, -1):
        a = rhos[i] * (S[i] @ q)
        alphas.append(a)
        q -= a * Y[i]
    if S:
        gamma = (S[-1] @ Y[-1]) / (Y[-1] @ Y[-1])
    else:
        gamma = 1.0 / max(1.0, np.linalg.norm(g))
    r = gamma * q
    for i, a in zip(range(len(S)), reversed(alphas)):
        b = rhos[i] * (Y[i] @ r)
        r += S[i] * (a - b)
    return r


def wolfe_search_two_phase(x, f0, g0, p):
    """Strong Wolfe line search in two phases, bracketing and then zoom.

    The form (Nocedal and Wright, Alg. 3.5/3.6) that the one loop of
    ``blt_optimizer._wolfe_search`` replaced; non-finite trial values cap
    the step range.

    A generator: yields each trial point and receives its (f, g). Falls
    back to the best Armijo-satisfying point when the curvature condition
    cannot be met within the evaluation budget. Returns (alpha, f, g) with
    alpha None on total failure.
    """
    d0 = float(g0 @ p)
    if d0 >= 0:
        return None, f0, g0
    alpha_prev, f_prev = 0.0, f0
    alpha = 1.0
    nev = 0
    cap = None  # smallest step known to leave the domain
    best = None  # best (a, f, g) satisfying Armijo

    def armijo(a, fv):
        return fv <= f0 + WOLFE_C1 * a * d0

    lo = hi = None
    flo = None
    while nev < WOLFE_MAX_EVALS:
        nev += 1
        fv, gv = yield x + alpha * p
        if not math.isfinite(fv):
            cap = alpha
            alpha = 0.5 * (alpha_prev + alpha)
            if alpha - alpha_prev < 1e-16:
                break
            continue
        dv = float(gv @ p)
        if armijo(alpha, fv) and (best is None or fv < best[1]):
            best = (alpha, fv, gv)
        if not armijo(alpha, fv) or (fv >= f_prev and alpha_prev > 0):
            lo, flo = alpha_prev, f_prev
            hi = alpha
            break
        if abs(dv) <= -WOLFE_C2 * d0:
            return alpha, fv, gv
        if dv >= 0:
            lo, flo = alpha, fv
            hi = alpha_prev
            break
        alpha_prev, f_prev = alpha, fv
        alpha = 2.0 * alpha if cap is None else 0.5 * (alpha + cap)
    if lo is not None:
        while nev < WOLFE_MAX_EVALS:
            a = 0.5 * (lo + hi)
            nev += 1
            fv, gv = yield x + a * p
            if not math.isfinite(fv):
                hi = a
                continue
            dv = float(gv @ p)
            if armijo(a, fv) and (best is None or fv < best[1]):
                best = (a, fv, gv)
            if not armijo(a, fv) or fv >= flo:
                hi = a
            else:
                if abs(dv) <= -WOLFE_C2 * d0:
                    return a, fv, gv
                if dv * (hi - lo) >= 0:
                    hi = lo
                lo, flo = a, fv
            if abs(hi - lo) <= 1e-14 * max(1.0, abs(lo)):
                break
    if best is not None:
        return best
    return None, f0, g0


def matrix_power(F, n):
    """F^n for a (B, k, k) stack, by binary powering over the bits of n."""
    Fn = np.broadcast_to(np.eye(F.shape[-1], dtype=F.dtype), F.shape)
    for bit in bin(n)[2:]:
        Fn = Fn @ Fn
        if bit == "1":
            Fn = F @ Fn
    return Fn


def blt_errors_doubling(theta, omega, n):
    """(MaxError, RmsError) of BLT(theta, omega) over n rounds, O(d^3 log n).

    A second reference for the closed-form ``loss_metrics._blt_errors``,
    from (theta, omega) alone. theta and omega are (B, d); returns two
    (B,) arrays. Complex-safe (transposes, never conjugates). With
    A = diag(theta) - 1 omega^T, the prefix sums b_i of C^-1 are the last
    entry of x_i = F^i x_0, x_0 = 1, F = [[A, 0], [-omega^T, 1]]: the
    recurrence ``stream_mult_inverse`` runs, with a running sum appended.
    So MaxError^2 = sum_{i<n} b_i^2 and n RmsError^2 = sum_{i<n} (n - i) b_i^2
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
    """
    theta = np.asarray(theta)
    omega = np.asarray(omega)
    batch, d = theta.shape
    dt = np.result_type(theta, omega, float)
    F = np.zeros((batch, d + 1, d + 1), dtype=dt)
    F[:, :, :d] = -omega[:, None, :]
    F[:, np.arange(d), np.arange(d)] += theta
    F[:, d, d] = 1.0
    Fn = matrix_power(F, n)
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


ENUMERATION_GUARD = 24


def enumerate_patterns(schema: ParticipationSchema, maximal: bool = False):
    """All patterns of the schema, as sorted index tuples.

    The empty pattern is a member (participation may fall short of k).
    With ``maximal=True``, only patterns that cannot be extended within
    the schema are returned; for non-negative strategies the sensitivity
    maximum is attained on these.

    Guarded at n <= 24: the pattern count is exponential in n (2^n at
    b=1, k=n).
    """
    n, b, k = schema.n, schema.b, schema.k
    if n > ENUMERATION_GUARD:
        raise ValueError(
            f"refusing to enumerate patterns for n={n} > {ENUMERATION_GUARD}; "
            "the count grows exponentially"
        )
    out = []

    def extend(prefix, next_min):
        out.append(tuple(prefix))
        if len(prefix) == k:
            return
        for t in range(next_min, n):
            prefix.append(t)
            extend(prefix, t + b)
            prefix.pop()

    extend([], 0)
    if not maximal:
        return out

    def is_maximal(pat):
        if len(pat) == k:
            return True
        if not pat:
            return n == 0
        if pat[0] >= b:  # room to prepend
            return False
        if pat[-1] + b <= n - 1:  # room to append
            return False
        for a, c in zip(pat, pat[1:]):  # room to insert between
            if c - a >= 2 * b:
                return False
        return True

    return [p for p in out if is_maximal(p)]


def count_patterns(schema: ParticipationSchema) -> int:
    """Independent recursive pattern counter (oracle for enumerate_patterns).

    N(n, b, k) counts patterns inside [0, n): either round 0 is unused
    (N(n-1, b, k) shifted) or it is used and the rest live beyond the gap.
    """
    b = schema.b

    @lru_cache(maxsize=None)
    def rec(n, k):
        if n <= 0:
            return 1  # the empty pattern
        if k == 0:
            return 1
        return rec(n - 1, k) + rec(n - b, k - 1)

    return rec(schema.n, schema.k)


def exact_sensitivity_bruteforce(
    C, schema: ParticipationSchema, clip_norm: float = 1.0
) -> float:
    """max over enumerable patterns of ||C u(pi)||, for entrywise C >= 0.

    Only maximal patterns are scored: with C >= 0, adding a participation
    can only grow every coordinate of C u, so the maximum over all
    patterns is attained on a maximal one.
    """
    C = np.asarray(C, dtype=float)
    if np.any(C < 0):
        raise ValueError("brute-force sensitivity requires C >= 0 entrywise")
    n = C.shape[1]
    if n != schema.n:
        raise ValueError(f"C has {n} columns but schema.n = {schema.n}")
    pats = enumerate_patterns(schema, maximal=True)
    U = np.zeros((n, len(pats)))
    for j, p in enumerate(pats):
        if p:
            U[list(p), j] = 1.0
    norms = np.linalg.norm(C @ U, axis=0)
    return clip_norm * float(norms.max(initial=0.0))


def client_update_single(
    model, X, y, client_lr, clip_norm, local_epochs=1, batch_size=16, task="linear"
):
    """One client's local SGD and exact clip, on its own (m, dim) data.

    The per-client loop body the stacked ``client_update`` must match bit
    for bit, row by row.
    """
    w = model.copy()
    m = y.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(local_epochs):
            for start in range(0, m, batch_size):
                Xb = X[start : start + batch_size]
                yb = y[start : start + batch_size]
                if task == "linear":
                    grad = Xb.T @ (Xb @ w - yb) / yb.shape[0]
                else:
                    grad = Xb.T @ (_sigmoid(Xb @ w) - yb) / yb.shape[0]
                w -= client_lr * grad
        delta = w - model
    if not np.all(np.isfinite(delta)):
        raise FloatingPointError("non-finite client delta (diverging local SGD)")
    nrm = float(np.linalg.norm(delta))
    if math.isfinite(clip_norm) and nrm > 0:
        delta = delta * min(1.0, clip_norm / nrm)
    return delta


def population_per_client(
    n_clients, dim, samples_per_client, heterogeneity=0.5, task="linear",
    eval_samples=512, seed=0,
):
    """(features, labels) drawn client by client into lists.

    The same RNG calls in the same order as ``make_population``, which
    must store exactly these values in its stacked arrays.
    """
    rng = np.random.default_rng(seed)
    w_star = rng.normal(0.0, 1.0, dim) / math.sqrt(dim)
    features, labels = [], []
    for _ in range(n_clients):
        w_c = w_star + heterogeneity * rng.normal(0.0, 1.0, dim) / math.sqrt(dim)
        X = rng.normal(0.0, 1.0, (samples_per_client, dim))
        if task == "linear":
            y = X @ w_c + 0.05 * rng.normal(0.0, 1.0, samples_per_client)
        else:
            y = (rng.uniform(size=samples_per_client) < _sigmoid(X @ w_c)).astype(float)
        features.append(X)
        labels.append(y)
    return features, labels


def metrics_per_round(models, participation, c, clip_norm, sigma_zeta, population):
    """Each round's metrics row from its own model and log prefix, round by round.

    ``models[t]`` is the model after round t and ``participation`` the
    run's (round, client) log. Round t is evaluated alone and accounted
    as zcdp_of(||sum_{i<k} shift(c[:t+1], i*b)|| * clip_norm, sigma_zeta)
    with b the smallest gap between a client's consecutive rounds up to
    t (t + 1 while no client has returned) and k the most rounds any
    client joined up to t.
    """
    rounds_of = {}
    for t, cid in participation:
        rounds_of.setdefault(cid, []).append(t)
    rows = []
    for t, model in enumerate(models):
        seen = [[r for r in rs if r <= t] for rs in rounds_of.values()]
        gaps = [b - a for rs in seen for a, b in zip(rs, rs[1:])]
        b = min(gaps, default=t + 1)
        k = max(len(rs) for rs in seen)
        sens = toeplitz_sensitivity(c[: t + 1], ParticipationSchema(t + 1, b, k))
        loss, acc = ftrl_sim.eval_model(
            model, population.eval_features, population.eval_labels, population.task
        )
        rho = zcdp_of(sens * clip_norm, sigma_zeta)
        rows.append({"round": t, "eval_loss": loss, "eval_acc": acc, "rho_so_far": rho})
    return rows


def log_entries(cohorts):
    """The (round, client id) entries of a cohort log, round by round, as ints."""
    return [(t, cid) for t, cohort in enumerate(np.asarray(cohorts).tolist()) for cid in cohort]


def audit_min_sep(participation, b):
    """Every client's consecutive participations must differ by >= b."""
    seen = {}
    for t, cid in participation:
        if cid in seen and t - seen[cid] < b:
            raise AssertionError(
                f"min-separation violated: client {cid} at rounds "
                f"{seen[cid]} and {t} with b={b}"
            )
        seen[cid] = t


def ledger_per_round(cohorts, rounds):
    """Per round, the realized (min gap, max count) kept as the rounds go.

    ``cohorts`` holds each round's client ids. The min gap starts at
    ``rounds`` (no client has returned) and a first-timer's far-negative
    last round never lowers it. Returns two int64 arrays.
    """
    n_clients = 1 + max(max(cohort) for cohort in cohorts)
    last_round = np.full(n_clients, -(10**9), dtype=np.int64)
    counts = np.zeros(n_clients, dtype=np.int64)
    min_gap, k_real = rounds, 0
    b_log = np.empty(len(cohorts), dtype=np.int64)
    k_log = np.empty(len(cohorts), dtype=np.int64)
    for t, cohort in enumerate(cohorts):
        cohort = np.asarray(cohort)
        min_gap = min(min_gap, t - int(last_round[cohort].max()))
        last_round[cohort] = t
        counts[cohort] += 1  # cohort ids are unique
        k_real = max(k_real, int(counts[cohort].max()))
        b_log[t], k_log[t] = min_gap, k_real
    return b_log, k_log


def run_training_per_round(config, population):
    """``run_training`` with each round's noise row streamed in the loop.

    The coupled loop that the run's noise block and the ledger after the
    loop replaced: per round the cohort, the stacked client updates and
    their sum, one ``stream_mult_inverse`` row, the momentum step and the
    realized (b, k) so far; then the tuple-by-tuple min-separation audit
    and the package's evaluation and accounting after the loop. Returns
    a ``SimResult`` that ``run_training`` must equal field for field,
    bit for bit.
    """
    ss = np.random.SeedSequence(config.seed)
    ss_cohort, ss_noise = ss.spawn(2)
    cohort_rng = np.random.default_rng(ss_cohort)
    dim = population.dim
    c_full = blt_coefs(config.mechanism, config.rounds)
    k_conf = config.est_max_part
    if k_conf is None:
        k_conf = max_participations(config.rounds, config.min_sep)
    sens = toeplitz_sensitivity(c_full, ParticipationSchema(config.rounds, config.min_sep, k_conf))
    sigma_zeta = 0.0
    if config.noise_multiplier > 0:
        sigma_zeta = config.noise_multiplier * sens * config.clip_norm
    noise_state = None
    if sigma_zeta > 0:
        noise_state = make_noise_generator(
            config.mechanism,
            m=dim,
            noise_std=sigma_zeta,
            seed=int(ss_noise.generate_state(1, dtype=np.uint64)[0]),
            max_rounds=config.rounds,
        )
    model, momentum_buf = np.zeros(dim), np.zeros(dim)
    last_round = np.full(population.n_clients, -(10**9), dtype=np.int64)
    cohorts, models = [], []
    for t in range(config.rounds):
        cohort = ftrl_sim.select_cohort(
            last_round, t, config.clients_per_round, config.min_sep, cohort_rng
        )
        deltas = ftrl_sim.client_update(
            model,
            population.features[cohort],
            population.labels[cohort],
            config.client_lr,
            config.clip_norm,
            config.local_epochs,
            config.batch_size,
            population.task,
        )
        delta_tilde = deltas.sum(axis=0)
        if noise_state is not None:
            delta_tilde = delta_tilde + stream_mult_inverse(noise_state)[0]
        momentum_buf = config.momentum * momentum_buf + delta_tilde / config.clients_per_round
        model = model + config.server_lr * momentum_buf
        last_round[cohort] = t
        cohorts.append(cohort.tolist())
        models.append(model)
    b_log, k_log = ledger_per_round(cohorts, config.rounds)
    audit_min_sep(log_entries(cohorts), config.min_sep)
    rho = np.full(config.rounds, math.inf)
    if sigma_zeta > 0:
        s = ftrl_sim._realized_sensitivities(c_full, b_log, k_log) * config.clip_norm
        rho = s * s / (2.0 * sigma_zeta * sigma_zeta)
    models = np.array(models)
    loss = np.empty(config.rounds)
    acc = np.empty(config.rounds)
    for start in range(0, config.rounds, ftrl_sim._EVAL_BLOCK):
        rows = slice(start, start + ftrl_sim._EVAL_BLOCK)
        loss[rows], acc[rows] = ftrl_sim.eval_model(
            models[rows], population.eval_features, population.eval_labels, population.task
        )
    metrics = [
        {"round": t, "eval_loss": lo, "eval_acc": math.nan if math.isnan(a) else a,
         "rho_so_far": r}
        for t, (lo, a, r) in enumerate(zip(loss.tolist(), acc.tolist(), rho.tolist()))
    ]
    return ftrl_sim.SimResult(
        metrics=metrics,
        cohorts=np.array(cohorts, dtype=np.int64),
        final_model=model,
        realized_b=int(b_log[-1]),
        realized_k=int(k_log[-1]),
        rho_realized=metrics[-1]["rho_so_far"],
        sens_configured=sens,
        sigma_zeta=sigma_zeta,
    )


def refined_eps_minimize_scalar(rho, delta):
    """The refined (epsilon, delta) bound minimized by a bounded scalar search.

    The same tail bound as ``eps_of_zcdp(rho, delta, refined=True)``,
    searched numerically over the Renyi order around the closed form's
    optimum a* = 1 + sqrt(log(1/delta)/rho), with the same clamp at 0 and
    cap at the closed form.
    """
    log1d = math.log(1.0 / delta)
    closed = rho + 2.0 * math.sqrt(rho * log1d)

    def eps_at(a):
        return rho * a + (log1d + (a - 1.0) * math.log1p(-1.0 / a) - math.log(a)) / (
            a - 1.0
        )

    a_star = 1.0 + math.sqrt(log1d / rho)
    res = minimize_scalar(
        eps_at, bounds=(1.0 + 1e-9, max(10.0 * a_star, 100.0)), method="bounded"
    )
    return float(max(0.0, min(closed, res.fun)))

"""Desk-scale DP federated-averaging simulator with correlated noise.

One round: sample a cohort of clients that have rested at least b rounds,
run local SGD on each, clip the deltas, sum them, privatize the sum with
one row of correlated noise, and apply a momentum server step to the
privatized average. The server optimizer sees only the privatized delta
(post-processing), so the privacy guarantee follows entirely from the
noise calibration sigma * zeta = alpha * sens * zeta. No noise row reads
the model, so the run's rows are drawn before the loop as one
(rounds, dim) block, the size of the model log the run keeps anyway.

Every client holds the same number of samples, so the population is one
(clients, m, dim) array and a round steps its whole cohort as one
stacked batch: a single ``client_update`` call on the cohort's slice.

Tasks are synthetic linear / logistic problems with per-client parameter
heterogeneity: small enough to run hundreds of rounds in seconds, rich
enough to exercise every line of the training loop. Accounting is
reported against the realized participation log (min-sep and max
participations actually observed), not just the configured estimate.
No round reads another round's evaluation, accounting or realized
schema, so the loop only records each round's cohort and model; after
it, the realized (b, k) of every round comes from the cohort log in a
few array passes, the models are evaluated in stacked blocks and all
rounds are accounted in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from corrnoise.blt_core import (
    IDENTITY_MECHANISM,
    BltParams,
    _require_int,
    blt_coefs,
    make_noise_generator,
    stream_mult_inverse_block,
)
from corrnoise.blt_optimizer import _sigmoid
from corrnoise.participation import (
    ParticipationSchema,
    _shifted_sum,
    max_participations,
    toeplitz_sensitivity,
)


# rounds per stacked ``eval_model`` call after the loop: on perfbench's
# simulate inputs (2052 rounds, 512 eval samples) one call for the whole
# run adds 17 MB to peak RSS, blocks of 64 1.4 MB and blocks of 16 0.3 MB
_EVAL_BLOCK = 16


class StarvationError(RuntimeError):
    """Raised when a round cannot fill its cohort with rested clients."""

    def __init__(self, round_idx: int, eligible: int, wanted: int):
        super().__init__(
            f"training halted at round {round_idx}: only {eligible} clients "
            f"eligible, cohort needs {wanted}"
        )
        self.round_idx = round_idx


@dataclass
class ClientPopulation:
    """Synthetic per-client datasets, which training only reads.

    ``features`` is one (n_clients, m, dim) array and ``labels`` one
    (n_clients, m) array, so ``features[cohort]`` is a cohort's stacked
    batch and ``features[cid]`` one client's (m, dim) dataset.
    """

    features: np.ndarray
    labels: np.ndarray
    task: str
    dim: int
    eval_features: np.ndarray
    eval_labels: np.ndarray

    @property
    def n_clients(self) -> int:
        return len(self.features)


@dataclass
class TrainConfig:
    rounds: int
    clients_per_round: int
    client_lr: float
    server_lr: float
    momentum: float = 0.9
    clip_norm: float = 1.0
    noise_multiplier: float = 0.0
    mechanism: Optional[BltParams] = None  # None = IDENTITY_MECHANISM, independent noise
    min_sep: int = 1
    est_max_part: Optional[int] = None  # default: worst case ceil(rounds/min_sep)
    local_epochs: int = 1
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        counts = ("rounds", "clients_per_round", "min_sep", "local_epochs", "batch_size")
        if self.est_max_part is not None:  # None is the worst case
            counts += ("est_max_part",)
        _require_int(1, **{name: getattr(self, name) for name in counts})
        _require_int(0, seed=self.seed)
        # a NaN or Inf step poisons the model without a sign
        for name in ("client_lr", "server_lr", "momentum"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # written so that NaN fails too: a NaN sigma_zeta would train noiselessly
        if not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be > 0, got {self.clip_norm}")
        if not 0.0 <= self.noise_multiplier < math.inf:
            raise ValueError(
                f"noise_multiplier must be finite and >= 0, got {self.noise_multiplier}"
            )
        # the noise scale is noise_multiplier * sens * clip_norm
        if self.noise_multiplier > 0 and math.isinf(self.clip_norm):
            raise ValueError("clip_norm must be finite when noise_multiplier > 0")
        if self.mechanism is None:
            self.mechanism = IDENTITY_MECHANISM
        self.mechanism.validate()


@dataclass
class SimResult:
    metrics: list
    participation: list
    final_model: np.ndarray
    realized_b: int
    realized_k: int
    rho_realized: float
    sens_configured: float
    sigma_zeta: float


def make_population(
    n_clients: int,
    dim: int,
    samples_per_client: int,
    heterogeneity: float = 0.5,
    task: str = "linear",
    eval_samples: int = 512,
    seed: int = 0,
) -> ClientPopulation:
    """Synthetic population with distinct per-client optima.

    Each client solves the shared problem w* perturbed by
    ``heterogeneity`` in parameter space; the held-out eval set is drawn
    from the unperturbed w*.
    """
    if task not in ("linear", "logistic"):
        raise ValueError("task must be 'linear' or 'logistic'")
    # zero eval samples give a NaN eval loss, zero samples per client train on nothing
    _require_int(
        1, n_clients=n_clients, dim=dim, samples_per_client=samples_per_client,
        eval_samples=eval_samples,
    )
    _require_int(0, seed=seed)  # in place of numpy's SeedSequence errors
    if not 0.0 <= heterogeneity < math.inf:
        raise ValueError(f"heterogeneity must be finite and >= 0, got {heterogeneity}")
    rng = np.random.default_rng(seed)
    w_star = rng.normal(0.0, 1.0, dim) / math.sqrt(dim)

    def draw(w, m):
        X = rng.normal(0.0, 1.0, (m, dim))
        if task == "linear":
            y = X @ w + 0.05 * rng.normal(0.0, 1.0, m)
        else:
            y = (rng.uniform(size=m) < _sigmoid(X @ w)).astype(float)
        return X, y

    # filled in place, client by client in the draw order, so the
    # population is never held twice
    features = np.empty((n_clients, samples_per_client, dim))
    labels = np.empty((n_clients, samples_per_client))
    for cid in range(n_clients):
        w_c = w_star + heterogeneity * rng.normal(0.0, 1.0, dim) / math.sqrt(dim)
        features[cid], labels[cid] = draw(w_c, samples_per_client)
    eval_X, eval_y = draw(w_star, eval_samples)
    return ClientPopulation(
        features=features,
        labels=labels,
        task=task,
        dim=dim,
        eval_features=eval_X,
        eval_labels=eval_y,
    )


def select_cohort(
    last_round: np.ndarray,
    t: int,
    m_clients: int,
    b: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform cohort among clients rested for at least b rounds.

    ``last_round`` is the participation ledger, each client's latest
    round (a far-negative sentinel before its first); it is only read
    here. Raises ``StarvationError`` when fewer than m_clients are
    eligible (the loop cannot continue without breaking the
    min-separation promise).
    """
    eligible = (last_round <= t - b).nonzero()[0]
    if eligible.shape[0] < m_clients:
        raise StarvationError(t, eligible.shape[0], m_clients)
    # drawing positions, not the ids, is the same shuffle of the same RNG
    # stream without choice's array handling
    picks = rng.choice(eligible.shape[0], size=m_clients, replace=False)
    return np.sort(eligible[picks])


def client_update(
    model: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    client_lr: float,
    clip_norm: float,
    local_epochs: int = 1,
    batch_size: int = 16,
    task: str = "linear",
) -> np.ndarray:
    """Local SGD followed by the exact clip delta * min(1, zeta/||delta||).

    ``X`` is (..., m, dim) and ``y`` (..., m): one client's data gives its
    (dim,) delta, a stacked cohort's gives one delta row per client. Every
    client steps through the same minibatches, and each row equals what
    the client's own 2-D call returns, bit for bit.
    """
    w = np.empty_like(model, shape=X.shape[:-2] + model.shape)
    w[...] = model
    m = y.shape[-1]
    # divergence is reported via the finite check below, not as warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(local_epochs):
            for start in range(0, m, batch_size):
                Xb = X[..., start : start + batch_size, :]
                yb = y[..., start : start + batch_size]
                pred = (Xb @ w[..., None])[..., 0]
                r = pred - yb if task == "linear" else _sigmoid(pred) - yb
                grad = (Xb.swapaxes(-1, -2) @ r[..., None])[..., 0] / yb.shape[-1]
                w -= client_lr * grad
        delta = w - model
        if not np.isfinite(delta).all():
            raise FloatingPointError("non-finite client delta (diverging local SGD)")
        if math.isfinite(clip_norm):
            # the row-by-row dot product, which is what the 1-D norm computes
            nrm = np.sqrt(delta[..., None, :] @ delta[..., :, None])[..., 0]
            # a zero row's scale is inf (NaN if clip_norm is 0): fmin(1, .)
            # keeps that row as it is
            scale = clip_norm / nrm
            delta *= np.fmin(1.0, scale, out=scale)
    return delta


def server_round(model, momentum_buf, delta_tilde, config):
    """One server step: returns the next (model, momentum buffer).

    A momentum step on the privatized mean delta, delta_tilde / cohort
    size, where delta_tilde is the cohort's summed deltas plus the
    round's noise row (the sum alone in a zero-noise run); it sees
    nothing else. Client deltas already point downhill
    (w_local - w_global), so the server adds the momentum-averaged
    delta.
    """
    momentum_buf = config.momentum * momentum_buf + delta_tilde / config.clients_per_round
    model = model + config.server_lr * momentum_buf
    return model, momentum_buf


def eval_model(model, X, y, task):
    """(loss, accuracy) on (X, y); accuracy is NaN for the regression task.

    One (dim,) model gives two floats; (R, dim) stacked models give two
    (R,) arrays, one entry per model, as ``client_update`` gives one delta
    row per stacked client.
    """
    pred = model @ X.T
    if task == "linear":
        loss = np.mean((pred - y) ** 2, axis=-1)
        acc = np.full_like(loss, math.nan)
    else:
        p = _sigmoid(pred)
        eps = 1e-12
        loss = -np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps), axis=-1)
        acc = np.mean((p >= 0.5) == (y >= 0.5), axis=-1)
    if loss.ndim == 0:
        return float(loss), float(acc)
    return loss, acc


def _realized_sensitivities(c, b_log, k_log):
    """Per round t, ||cbar[:t+1]|| for cbar = sum_{i<k_t} shift(c, i*b_t).

    That is the sensitivity of the rounds released by t under the
    participation realized by t. cbar[:t+1] reads only c[:t+1], so one
    cumulative pass over the whole run serves every round that realized
    the same (b, k). A realized pattern fits its rounds,
    (k_t - 1) * b_t <= t, so every shift lies inside the run.
    """
    n = c.shape[0]
    sens = np.empty(n)
    for b, k in set(zip(b_log.tolist(), k_log.tolist())):
        cbar = _shifted_sum(c, b, k)
        rows = (b_log == b) & (k_log == k)
        sens[rows] = np.sqrt(np.cumsum(cbar * cbar)[rows])
    return sens


def _realized_schema(cohorts, min_sep):
    """Per round t, the realized (b_t, k_t) of the cohort log up to t.

    ``cohorts`` is the run's (rounds, cohort size) log. b_t is the
    smallest gap between a client's consecutive rounds up to t (the
    number of rounds, above any gap a run can realize, while no client
    has returned) and k_t the most rounds any client joined up to t.
    This is also the min-separation audit of the whole log: a client
    back within ``min_sep`` rounds raises AssertionError.
    """
    rounds, size = cohorts.shape
    flat = cohorts.ravel()
    # the log client by client, each client's rounds in order: one sort on
    # the (client, round) keys, which are distinct
    order = np.argsort(flat * rounds + np.arange(flat.shape[0]) // size)
    cid = flat[order]
    t = order // size
    first = np.ones(cid.shape, dtype=bool)  # a client's first round
    np.not_equal(cid[1:], cid[:-1], out=first[1:])
    gap = np.empty_like(t)
    np.subtract(t[1:], t[:-1], out=gap[1:])
    np.copyto(gap, rounds, where=first)
    early = (gap < min_sep) & ~first
    if early.any():
        i = early.argmax()
        raise AssertionError(
            f"min-separation violated: client {cid[i]} at rounds "
            f"{t[i - 1]} and {t[i]} with b={min_sep}"
        )
    idx = np.arange(cid.shape[0])
    joined = idx - np.maximum.accumulate(np.where(first, idx, 0)) + 1
    # back in the log's order, where round t's last entry closes it
    log = np.empty((2, cid.shape[0]), dtype=t.dtype)
    log[0, order] = gap
    log[1, order] = joined
    b_log = np.minimum.accumulate(log[0])[size - 1 :: size].copy()
    k_log = np.maximum.accumulate(log[1])[size - 1 :: size].copy()
    return b_log, k_log


def run_training(config: TrainConfig, population: ClientPopulation) -> SimResult:
    """The full training loop; returns logs and realized-schema accounting.

    The run's noise is drawn before the loop: one (rounds, dim) block of
    ``stream_mult_inverse_block``, the rows that per-round streaming
    would emit, bit for bit. The loop runs only what reads the model:
    the cohort, the stacked client updates, their sum and the server
    step on the sum plus the round's noise row. It records each round's
    cohort and model; after it, the realized (b, k) of every round comes
    from the cohort log (``_realized_schema``, which also audits the
    min separation), every round is evaluated in stacked blocks and
    accounted in one pass. rho_so_far re-accounts the rounds released up
    to that round against the participation actually observed by then
    (min gap and max count), mirroring deployment practice where min-sep
    is only known after the fact; the last round's entry is the whole
    run's. The population is only read: the participation ledger lives
    here.
    """
    ss = np.random.SeedSequence(config.seed)
    ss_cohort, ss_noise = ss.spawn(2)
    cohort_rng = np.random.default_rng(ss_cohort)

    dim = population.dim
    # validated once by the configured sensitivity; the realized
    # sensitivities below read prefixes of it, which stay valid
    c_full = blt_coefs(config.mechanism, config.rounds)
    k_conf = config.est_max_part
    if k_conf is None:
        k_conf = max_participations(config.rounds, config.min_sep)
    sens = toeplitz_sensitivity(c_full, ParticipationSchema(config.rounds, config.min_sep, k_conf))
    sigma_zeta = 0.0
    if config.noise_multiplier > 0:  # 0 * inf is NaN for an unclipped noiseless run
        sigma_zeta = config.noise_multiplier * sens * config.clip_norm

    # a zero-noise run skips the noise arithmetic: it is plain federated averaging, bit for bit
    noise = None
    if sigma_zeta > 0:
        noise_state = make_noise_generator(
            config.mechanism,
            m=dim,
            noise_std=sigma_zeta,
            seed=int(ss_noise.generate_state(1, dtype=np.uint64)[0]),
            max_rounds=config.rounds,
        )
        noise = stream_mult_inverse_block(noise_state, config.rounds)

    model = np.zeros(dim)
    momentum_buf = np.zeros(dim)
    # the participation ledger: each client's latest round, far negative before its first
    last_round = np.full(population.n_clients, -(10**9), dtype=np.int64)
    cohorts = np.empty((config.rounds, config.clients_per_round), dtype=np.int64)
    models = np.empty((config.rounds, dim))
    for t in range(config.rounds):
        cohort = select_cohort(
            last_round, t, config.clients_per_round, config.min_sep, cohort_rng
        )
        last_round[cohort] = t
        cohorts[t] = cohort
        deltas = client_update(
            model,
            population.features.take(cohort, axis=0),
            population.labels.take(cohort, axis=0),
            config.client_lr,
            config.clip_norm,
            config.local_epochs,
            config.batch_size,
            population.task,
        )
        delta_tilde = deltas.sum(axis=0)  # row by row, in cohort order
        if noise is not None:
            delta_tilde += noise[t]
        model, momentum_buf = server_round(model, momentum_buf, delta_tilde, config)
        models[t] = model
    del noise  # as large as the model log: freed before the logs after the loop

    b_log, k_log = _realized_schema(cohorts, config.min_sep)
    participation = [(t, cid) for t in range(config.rounds) for cid in cohorts[t].tolist()]
    rho = np.full(config.rounds, math.inf)
    if sigma_zeta > 0:
        # zcdp_of's rho = sens^2 / (2 sigma^2), for every round at once
        s = _realized_sensitivities(c_full, b_log, k_log) * config.clip_norm
        rho = s * s / (2.0 * sigma_zeta * sigma_zeta)
    loss = np.empty(config.rounds)
    acc = np.empty(config.rounds)
    for start in range(0, config.rounds, _EVAL_BLOCK):
        rows = slice(start, start + _EVAL_BLOCK)
        loss[rows], acc[rows] = eval_model(
            models[rows], population.eval_features, population.eval_labels, population.task
        )
    # every NaN accuracy is the one math.nan, so the logs of equal runs compare equal
    accs = [math.nan if math.isnan(a) else a for a in acc.tolist()]
    metrics = [
        {"round": t, "eval_loss": lo, "eval_acc": a, "rho_so_far": r}
        for t, (lo, a, r) in enumerate(zip(loss.tolist(), accs, rho.tolist()))
    ]
    return SimResult(
        metrics=metrics,
        participation=participation,
        final_model=model,
        realized_b=int(b_log[-1]),
        realized_k=int(k_log[-1]),
        rho_realized=metrics[-1]["rho_so_far"],
        sens_configured=sens,
        sigma_zeta=sigma_zeta,
    )


def write_metrics_csv(path, metrics) -> None:
    with open(path, "w") as fh:
        fh.write("round,eval_loss,eval_acc,rho_so_far\n")
        for row in metrics:
            fh.write(
                f"{row['round']},{row['eval_loss']!r},"
                f"{row['eval_acc']!r},{row['rho_so_far']!r}\n"
            )


def write_participation_csv(path, participation) -> None:
    with open(path, "w") as fh:
        fh.write("round,client_id\n")
        for t, cid in participation:
            fh.write(f"{t},{cid}\n")

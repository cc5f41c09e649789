"""The four benchmark workloads, each driving corrnoise's public API in-process.

Every workload builds its inputs from the workload seed in ``__init__``
(the set-up), exposes one repeatable operation ``op()``, and checks each
operation's output with ``check(output)``, which returns a list of error
strings (empty when the output is correct). ``corrupt(output)`` returns a
deliberately wrong copy of an output, so the self-test can prove that
every check can fail.

Why these workloads (sizes measured on a 2-core VM, see README.md):

- ``fit``: ``optimize_blt`` at the reference schema. The optimizer and its
  coefficient and pairing calls into ``blt_core`` do nearly all the work;
  no streaming, no tree.
- ``sweep``: the README sweep through ``corrnoise.cli.main``. The dense
  tree decoder is recomputed for every b and dominates; the identity
  O(n^2) recurrence and the BLT pairing path also run; no optimizer.
- ``noise``: model-scale streaming noise (d=4, m=1e7). Only the
  ``blt_core`` recurrence and the Philox draw run; the arrays are several
  times the last-level cache, so the work is bandwidth-bound.
- ``simulate``: ``run_training`` under the reference schema. The only
  workload that runs ``ftrl_sim``; it also calls ``stream_mult_inverse``
  at m=20, where fixed per-call cost dominates instead of bandwidth.

Functions are always looked up on their module at call time (``cn.xxx``,
``cli.main``) so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import time

import numpy as np

import corrnoise as cn
import corrnoise.blt_core as blt_core
import corrnoise.cli as cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
MECHANISM_FILE = os.path.join(DATA, "b400.json")  # sweep column name "b400"
SWEEP_REFERENCE = os.path.join(DATA, "sweep_reference.csv")
SIMULATE_REFERENCE = os.path.join(DATA, "simulate_reference.json")

# relative tolerance of the sweep and simulate reference comparisons: far
# above the last-bit differences of BLAS or summation order, far below
# any change a wrong formula makes
REFERENCE_RTOL = 1e-9

# (n, b, k) that the mechanism's max_loss is reported at
REFERENCE_SCHEMA = (2052, 342, 6)


def _rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def mechanism_max_loss(params, schema=REFERENCE_SCHEMA):
    return cn.blt_mechanism_loss(params, cn.ParticipationSchema(*schema)).max_loss


def load_mechanism():
    params, _ = blt_core.load_params(MECHANISM_FILE)
    return params


class Workload:
    name = ""
    # operations run in the traced phase: a fixed amount of work, so the
    # per-layer call counts repeat exactly between runs of one seed
    trace_ops = 1

    def op(self):
        raise NotImplementedError

    def check(self, output) -> list:
        raise NotImplementedError

    def max_loss(self, output) -> float:
        raise NotImplementedError

    def restarts_dropped(self, output) -> int:
        return 0

    def corrupt(self, output):
        raise NotImplementedError

    def round_times(self, op_times):
        """Per-round latencies in seconds; a round is one op unless overridden."""
        return list(op_times)


# ---------------------------------------------------------------------------


class Fit(Workload):
    """optimize_blt, d=3, objective max, 8 restarts, at (2052, 342, 6).

    The optimizer seed is fixed at 0, the ``corrnoise optimize`` default
    and the acceptance test's seed, whatever the workload seed: the work a
    fit does depends on its seed (over optimizer seeds 1..10 the fit time
    had an interquartile range of 27% of its median, evaluations per fit
    ranged 9.6k..14.5k), more than any regression bound can absorb, so a
    seeded fit would measure the seed rather than the code.
    """

    name = "fit"
    OPTIMIZER_SEED = 0
    FULL = dict(schema=(2052, 342, 6), d=3, restarts=8, loss_bound=10.90)
    TOY = dict(schema=(64, 16, 4), d=2, restarts=2, loss_bound=math.inf)

    def __init__(self, seed, toy=False):
        size = self.TOY if toy else self.FULL
        self.schema = cn.ParticipationSchema(*size["schema"])
        self.loss_bound = size["loss_bound"]
        self.config = cn.OptimizerConfig(
            schema=self.schema,
            d=size["d"],
            objective="max",
            restarts=size["restarts"],
            seed=self.OPTIMIZER_SEED,
        )

    def op(self):
        return cn.optimize_blt(self.config)

    def check(self, result):
        errors = []
        if not result.converged:
            errors.append("fit did not converge")
        try:
            result.params.validate()
        except ValueError as exc:
            errors.append(f"fitted parameters fail strict validation: {exc}")
            return errors
        loss = self.max_loss(result)
        if not loss <= self.loss_bound:
            errors.append(f"max_loss {loss!r} above the acceptance bound {self.loss_bound}")
        return errors

    def max_loss(self, result):
        return cn.blt_mechanism_loss(result.params, self.schema).max_loss

    def corrupt(self, result):
        theta = result.params.theta.copy()
        theta[0] = 1.5
        return dataclasses.replace(
            result, params=cn.BltParams(theta, result.params.omega.copy())
        )

    def restarts_dropped(self, result):
        return sum(1 for v in result.restart_losses if not math.isfinite(v))


# ---------------------------------------------------------------------------


def sweep_argv(n, b_start, b_stop, b_step):
    return [
        "sweep", "--n", str(n), "--b-start", str(b_start), "--b-stop", str(b_stop),
        "--b-step", str(b_step), "--params", MECHANISM_FILE, "--tree", "--identity",
    ]


def run_cli(argv):
    """corrnoise.cli.main in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def parse_sweep(text):
    return list(csv.DictReader(io.StringIO(text)))


SWEEP_NUMERIC = ("sens", "max_error", "rms_error", "max_loss", "rms_loss")
SWEEP_EXACT = ("mechanism", "n", "b", "k", "sens_method", "status")


def sweep_reference_text(toy=False):
    """The whole grid, every mechanism: the reference every sweep cell is checked on."""
    size = Sweep.TOY if toy else Sweep.FULL
    lo, hi, step = size["grid"]
    rc, text = run_cli(sweep_argv(size["n"], lo, hi, step))
    if rc != 0:
        raise RuntimeError(f"reference sweep exited with {rc}")
    return text


class Sweep(Workload):
    """corrnoise sweep --n 2052 --params b400 --tree --identity over two b values.

    The README grid is b = 100..1000 in steps of 50 (19 values, about a
    minute of tree decoding); one operation sweeps two of its values,
    b0 and b0 + 450 with b0 = 100 + 50 * (seed mod 10), so every seed does
    the same amount of work and every cell is in the committed reference.
    """

    name = "sweep"
    FULL = dict(n=2052, grid=(100, 1000, 50), span=450)
    TOY = dict(n=64, grid=(4, 24, 4), span=8)

    def __init__(self, seed, toy=False):
        size = self.TOY if toy else self.FULL
        lo, hi, step = size["grid"]
        offsets = (hi - size["span"] - lo) // step + 1
        b0 = lo + step * (seed % offsets)
        self.argv = sweep_argv(size["n"], b0, b0 + size["span"], size["span"])
        if toy:  # toy sizes are checked against a reference made in-process
            reference_text = sweep_reference_text(toy=True)
        else:
            with open(SWEEP_REFERENCE) as fh:
                reference_text = fh.read()
        self.header = reference_text.splitlines()[0]
        self.reference = {
            (row["mechanism"], row["b"]): row for row in parse_sweep(reference_text)
        }
        self.expected_rows = 2 * 3

    def op(self):
        return run_cli(self.argv)

    def check(self, output):
        rc, text = output
        if rc != 0:
            return [f"sweep exited with {rc}"]
        lines = text.splitlines()
        if not lines or lines[0] != self.header:
            return ["sweep header differs from the reference"]
        rows = parse_sweep(text)
        errors = []
        if len(rows) != self.expected_rows:
            errors.append(f"{len(rows)} cells, expected {self.expected_rows}")
        for row in rows:
            ref = self.reference.get((row["mechanism"], row["b"]))
            if ref is None:
                errors.append(f"cell {row['mechanism']} b={row['b']} not in reference")
                continue
            for key in SWEEP_EXACT:
                if row[key] != ref[key]:
                    errors.append(f"cell {row['mechanism']} b={row['b']}: {key} "
                                  f"{row[key]!r} != {ref[key]!r}")
            if row["status"] != "ok":
                continue
            for key in SWEEP_NUMERIC:
                err = _rel_err(float(row[key]), float(ref[key]))
                if not err <= REFERENCE_RTOL:
                    errors.append(f"cell {row['mechanism']} b={row['b']}: {key} "
                                  f"relative error {err:.3g}")
        return errors

    def max_loss(self, output):
        """Largest max_loss of the BLT mechanism relative to the tree's, over the swept b.

        A ratio, because the absolute loss falls steeply with b and the
        seed picks the b values.
        """
        loss = {(r["mechanism"], r["b"]): float(r["max_loss"]) for r in parse_sweep(output[1])}
        return max(v / loss[("tree", b)] for (mech, b), v in loss.items() if mech == "b400")

    def corrupt(self, output):
        rc, text = output
        lines = text.splitlines()
        fields = lines[1].split(",")
        fields[7] = repr(float(fields[7]) * (1 + 1e-6))
        lines[1] = ",".join(fields)
        return rc, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------


def blt_column(params, n):
    """c_0 = 1, c_i = sum_j omega_j theta_j^(i-1): the oracle's own formula."""
    c = np.ones(n)
    i = np.arange(n - 1, dtype=float)
    c[1:] = (params.theta[None, :] ** i[:, None]) @ params.omega
    return c


class Noise(Workload):
    """make_noise_generator + stream_mult_inverse, d=4, m=1e7, Philox draws.

    One operation is ``ROUNDS_PER_OP`` consecutive rounds of one stream.
    The check multiplies the emitted rows by C on a seeded slice of
    coordinates (``blt_column`` and a convolution) and compares with the
    Philox draw of the checked round, regenerated from the generator's
    state recorded before that round.
    """

    name = "noise"
    ROUNDS_PER_OP = 8
    FULL = dict(m=10_000_000, slice=1024)
    TOY = dict(m=4096, slice=64)
    NOISE_STD = 1.0

    def __init__(self, seed, toy=False):
        size = self.TOY if toy else self.FULL
        self.m = size["m"]
        self.params = load_mechanism()
        self.quality = mechanism_max_loss(self.params)
        self.state = cn.make_noise_generator(
            self.params, m=self.m, noise_std=self.NOISE_STD, seed=seed
        )
        rng = np.random.default_rng(seed)
        self.cols = np.sort(rng.choice(self.m, size=size["slice"], replace=False))
        self.slices = []  # emitted rows restricted to self.cols
        self.rng_states = []  # generator state before each round
        self.times = []
        self.coefs = np.ones(1)
        self._round()  # warm-up: faults in the buffers; checked like the rest

    def _round(self):
        self.rng_states.append(self.state.rng.bit_generator.state)
        t0 = time.perf_counter()
        zhat, _ = blt_core.stream_mult_inverse(self.state)
        dt = time.perf_counter() - t0
        self.slices.append(zhat[self.cols])
        return dt

    def op(self):
        for _ in range(self.ROUNDS_PER_OP):
            self.times.append(self._round())
        return len(self.slices) - 1  # index of the round this op's check covers

    def round_times(self, op_times):
        return list(self.times)

    def check(self, t):
        if len(self.coefs) <= t:
            self.coefs = blt_column(self.params, max(t + 1, 2 * len(self.coefs)))
        rows = np.array(self.slices[: t + 1])
        c_rev = self.coefs[t::-1]
        z = c_rev @ rows  # row t of C @ Zhat on the checked columns
        scale = np.abs(c_rev) @ np.abs(rows)
        gen = np.random.Generator(np.random.Philox(0))
        gen.bit_generator.state = self.rng_states[t]
        draw = gen.normal(0.0, self.NOISE_STD, size=self.m)[self.cols]
        err = np.abs(z - draw)
        bad = err > 1e-9 * (1.0 + scale)
        if np.any(bad):
            return [f"round {t}: C @ emitted rows differs from the Philox draw on "
                    f"{int(bad.sum())} of {len(self.cols)} columns (max {err.max():.3g})"]
        return []

    def max_loss(self, output):
        return self.quality

    def corrupt(self, t):
        self.slices[t] = self.slices[t].copy()
        self.slices[t][0] += 1e-6
        return t


# ---------------------------------------------------------------------------


SIM_SEEDS = 8  # simulate seeds cycle through the committed reference runs


def simulate_inputs(sim_seed, toy=False):
    if toy:
        pop = dict(n_clients=200, dim=5, samples_per_client=16)
        train = dict(rounds=96, min_sep=16, est_max_part=6)
    else:
        pop = dict(n_clients=4000, dim=20, samples_per_client=32)
        train = dict(rounds=2052, min_sep=342, est_max_part=6)
    population = cn.make_population(**pop, seed=sim_seed)
    config = cn.TrainConfig(
        clients_per_round=10,
        client_lr=0.1,
        server_lr=0.3,
        noise_multiplier=0.3,
        mechanism=load_mechanism(),
        seed=sim_seed,
        **train,
    )
    return population, config


def simulate_summary(result):
    """The outputs a simulate run is checked on, as a JSON-able dict."""
    return {
        "final_eval_loss": result.metrics[-1]["eval_loss"],
        "rho_realized": result.rho_realized,
        "sigma_zeta": result.sigma_zeta,
        "realized_b": result.realized_b,
        "realized_k": result.realized_k,
        "rounds_logged": len(result.metrics),
        "final_model": [float(v) for v in result.final_model],
    }


class Simulate(Workload):
    """run_training: 4000 clients, dim 20, 10 per round, 2052 rounds, b=342, k=6."""

    name = "simulate"
    trace_ops = 2

    def __init__(self, seed, toy=False):
        self.sim_seed = seed % SIM_SEEDS
        self.population, self.config = simulate_inputs(self.sim_seed, toy)
        self.quality = mechanism_max_loss(self.config.mechanism)
        if toy:  # toy sizes are checked against a reference made in-process
            self.reference = simulate_summary(cn.run_training(self.config, self.population))
        else:
            with open(SIMULATE_REFERENCE) as fh:
                self.reference = json.load(fh)["runs"][str(self.sim_seed)]

    def op(self):
        return cn.run_training(self.config, self.population)

    def check(self, result):
        errors = []
        cfg = self.config
        if result.realized_b < cfg.min_sep:
            errors.append(f"realized b {result.realized_b} < min_sep {cfg.min_sep}")
        if result.realized_k > cfg.est_max_part:
            errors.append(f"realized k {result.realized_k} > {cfg.est_max_part}")
        got = simulate_summary(result)
        for key, ref in self.reference.items():
            val = got[key]
            if isinstance(ref, list):
                err = max(_rel_err(a, b) for a, b in zip(val, ref)) if val else 0.0
                if len(val) != len(ref) or not err <= REFERENCE_RTOL:
                    errors.append(f"{key} differs from the reference")
            elif isinstance(ref, int):
                if val != ref:
                    errors.append(f"{key} {val} != reference {ref}")
            elif not _rel_err(val, ref) <= REFERENCE_RTOL:
                errors.append(f"{key} {val!r} != reference {ref!r}")
        return errors

    def max_loss(self, output):
        return self.quality

    def corrupt(self, result):
        return dataclasses.replace(result, final_model=result.final_model * (1 + 1e-6))


WORKLOADS = {w.name: w for w in (Fit, Sweep, Noise, Simulate)}

"""Federated-averaging simulator: cohort rules, clipping, privatized
server steps, and realized-schema accounting.

The streaming-noise machinery is already oracle-tested in the core
module; here the contract is trajectory-level (bitwise zero-noise
equality, determinism, audits) plus per-operation closed forms.
"""

import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from oracles import (
    audit_min_sep,
    client_update_single,
    ledger_per_round,
    log_entries,
    metrics_per_round,
    population_per_client,
    realized_sensitivities_shifted_sum,
    run_training_per_round,
)

import corrnoise.ftrl_sim as sim
from corrnoise.blt_core import IDENTITY_MECHANISM, BltParams, blt_coefs, blt_inverse_coefs
from corrnoise.ftrl_sim import (
    ClientPopulation,
    TrainConfig,
    _realized_schema,
    client_update,
    eval_model,
    make_population,
    run_training,
    select_cohort,
    server_round,
)
from corrnoise.loss_metrics import blt_mechanism_loss
from corrnoise.participation import ParticipationSchema

MECH = BltParams(np.array([0.9, 0.5]), np.array([0.2, 0.3]))


def small_population(task="linear", seed=1, n_clients=40):
    return make_population(
        n_clients=n_clients,
        dim=8,
        samples_per_client=32,
        heterogeneity=0.5,
        task=task,
        eval_samples=128,
        seed=seed,
    )


def fresh_ledger(n_clients):
    """The ledger ``run_training`` starts from: no client has participated."""
    return np.full(n_clients, -(10**9), dtype=np.int64)


def config(**kw):
    base = dict(
        rounds=12,
        clients_per_round=4,
        client_lr=0.1,
        server_lr=0.3,
        momentum=0.9,
        clip_norm=1.0,
        noise_multiplier=0.0,
        mechanism=None,
        min_sep=3,
        seed=5,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestPopulation:
    def test_shapes_and_determinism(self):
        a = small_population()
        b = small_population()
        assert a.n_clients == 40
        assert a.features[0].shape == (32, 8)
        assert a.labels[0].shape == (32,)
        assert a.eval_features.shape == (128, 8)
        np.testing.assert_array_equal(a.features[3], b.features[3])
        np.testing.assert_array_equal(a.eval_labels, b.eval_labels)

    @pytest.mark.parametrize("task", ["linear", "logistic"])
    def test_stacked_arrays_are_the_per_client_draws(self, task):
        pop = small_population(task=task)
        assert pop.features.shape == (40, 32, 8)
        assert pop.labels.shape == (40, 32)
        features, labels = population_per_client(
            40, 8, 32, heterogeneity=0.5, task=task, eval_samples=128, seed=1
        )
        assert pop.features.tobytes() == np.stack(features).tobytes()
        assert pop.labels.tobytes() == np.stack(labels).tobytes()

    @pytest.mark.parametrize(
        "task, sizes, seed, digest",
        [
            ("linear", (200, 5, 16), 0,
             "93448292e551961e67fd60b51b390614b1b3db18b89062b515b7547dc144b00f"),
            ("linear", (50, 33, 17), 3,
             "18bd31d64cc52bd0556f6d01df3d54fb2cb5b74a55993eb18e076481fc49968a"),
            ("linear", (7, 3, 1), 0,
             "275a9271a85a5d18dd5bc5a11600339f954bfdab31255ad5097556cc0861dda8"),
            ("logistic", (200, 5, 16), 0,
             "8d206213ab5432943e73d9bfeeb2cc945704831ef81e532a33a800fb7b5732cd"),
            ("logistic", (50, 33, 17), 3,
             "e537806bca95e3c8498ac1e6d35a62d2e7b5b3ef682a1826f4854080e4bcd299"),
            ("logistic", (7, 3, 1), 0,
             "922eef349ffc0a080a54b4bcb6c7d6a9d7e7eb9d75a9967500fe5946ee593fa4"),
        ],
    )
    def test_population_bytes_are_pinned(self, task, sizes, seed, digest):
        # sha256 of the features, labels and eval set, recorded when every
        # client was drawn and labelled on its own; the one-pass build keeps them
        pop = make_population(*sizes, task=task, eval_samples=64, seed=seed)
        arrays = (pop.features, pop.labels, pop.eval_features, pop.eval_labels)
        # C-contiguous, so that a cohort's ``take`` copies only its own rows
        assert all(a.flags.c_contiguous for a in arrays)
        assert hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest() == digest

    @pytest.mark.parametrize("sizes", [(4000, 20, 32), (4000, 1, 32), (300, 7, 100)])
    @pytest.mark.parametrize("task", ["linear", "logistic"])
    def test_peak_within_the_memory_rule(self, task, sizes, monkeypatch):
        # the stacked labelling's scratch is counted: the traced peak of a
        # build stays within the float64s the rule checks before any draw
        sized = []
        monkeypatch.setattr(sim, "_require_memory", lambda values, what: sized.append(values))
        make_population(*sizes, task=task)  # a first call's caches stay out of the peak
        sized.clear()
        tracemalloc.start()
        try:
            make_population(*sizes, task=task)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        [values] = sized
        assert peak <= 8 * values, peak / 8 / values

    def test_logistic_labels_binary(self):
        p = small_population(task="logistic")
        assert set(np.unique(np.concatenate(p.labels))) <= {0.0, 1.0}

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            make_population(2, 2, 2, task="ranking")


class TestSelectCohort:
    def test_all_clients_eligible_at_start(self):
        ledger = fresh_ledger(10)
        rng = np.random.default_rng(0)
        picked = select_cohort(ledger, 0, 10, 1, rng)
        np.testing.assert_array_equal(picked, np.arange(10))
        np.testing.assert_array_equal(ledger, fresh_ledger(10))  # only read

    def test_rest_period_enforced(self):
        ledger = fresh_ledger(6)
        rng = np.random.default_rng(0)
        picked0 = select_cohort(ledger, 0, 3, 2, rng)
        ledger[picked0] = 0
        picked1 = select_cohort(ledger, 1, 3, 2, rng)
        ledger[picked1] = 1
        assert set(picked0) & set(picked1) == set()
        # at t=2 the first cohort is rested again
        picked2 = select_cohort(ledger, 2, 3, 2, rng)
        assert set(picked2) == set(picked0)

    def test_starvation_pigeonhole(self):
        # 3 clients, cohort of 2, rest 2: round 1 has only 1 eligible
        ledger = fresh_ledger(3)
        rng = np.random.default_rng(0)
        ledger[select_cohort(ledger, 0, 2, 2, rng)] = 0
        with pytest.raises(ValueError):
            select_cohort(ledger, 1, 2, 2, rng)

    @pytest.mark.parametrize("m, b", itertools.product(range(1, 4), range(1, 6)))
    def test_cohort_rule_is_exact(self, m, b, monkeypatch):
        # a bare ledger loop fills every round iff N >= m * min(rounds, b),
        # and run_training refuses exactly the other cases before any work
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(sim, "_blt_sensitivity", reached)
        rng = np.random.default_rng(m * 10 + b)
        for n_clients in range(1, 17):
            pop = small_population(n_clients=n_clients)
            for rounds in range(1, 9):
                ledger, filled = fresh_ledger(n_clients), True
                for t in range(rounds):
                    try:
                        ledger[select_cohort(ledger, t, m, b, rng)] = t
                    except ValueError:
                        filled = False
                        break
                needed = m * min(rounds, b)
                assert filled == (n_clients >= needed), (n_clients, rounds)
                cfg = config(rounds=rounds, clients_per_round=m, min_sep=b)
                if filled:
                    with pytest.raises(Reached):
                        run_training(cfg, pop)
                else:
                    refused = f"the cohorts need {needed} clients, not {n_clients}$"
                    with pytest.raises(ValueError, match=refused):
                        run_training(cfg, pop)

    def test_cohort_is_sorted(self):
        rng = np.random.default_rng(3)
        picked = select_cohort(fresh_ledger(40), 0, 8, 1, rng)
        assert np.all(np.diff(picked) > 0)


class TestClientUpdate:
    def test_zero_epochs_gives_zero_delta(self):
        pop = small_population()
        delta = client_update(
            np.zeros(8), pop.features[0], pop.labels[0], 0.1, 1.0, local_epochs=0
        )
        np.testing.assert_array_equal(delta, np.zeros(8))

    def test_clip_norm_exact_and_direction_preserved(self):
        pop = small_population()
        raw = client_update(
            np.zeros(8), pop.features[0], pop.labels[0], 0.5, math.inf, local_epochs=4
        )
        zeta = np.linalg.norm(raw) / 2  # force ||delta|| = 2 zeta
        clipped = client_update(
            np.zeros(8), pop.features[0], pop.labels[0], 0.5, zeta, local_epochs=4
        )
        assert np.linalg.norm(clipped) == pytest.approx(zeta, rel=1e-12)
        cos = clipped @ raw / (np.linalg.norm(clipped) * np.linalg.norm(raw))
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_below_threshold_not_rescaled(self):
        pop = small_population()
        raw = client_update(
            np.zeros(8), pop.features[0], pop.labels[0], 0.01, math.inf
        )
        clipped = client_update(
            np.zeros(8), pop.features[0], pop.labels[0], 0.01, np.linalg.norm(raw) * 10
        )
        np.testing.assert_array_equal(clipped, raw)

    def test_divergent_sgd_raises(self):
        X = np.full((4, 2), 1e200)
        y = np.zeros(4)
        with pytest.raises(FloatingPointError):
            client_update(np.ones(2), X, y, 1e200, 1.0)


class TestStackedClientUpdate:
    """A cohort's stacked call must equal its clients' one-client calls."""

    @pytest.mark.parametrize(
        "task, batch_size, local_epochs, clip_norm",
        itertools.product(["linear", "logistic"], [7, 32], [0, 1, 3], [0.01, math.inf]),
    )
    def test_rows_equal_single_client_oracle(
        self, task, batch_size, local_epochs, clip_norm
    ):
        # m = 32: batch size 7 leaves a short last minibatch, 32 is one batch
        pop = small_population(task=task)
        model = np.random.default_rng(2).normal(0.0, 0.3, 8)
        cohort = np.array([0, 3, 4, 17, 29, 39])
        args = (0.1, clip_norm, local_epochs, batch_size, task)
        got = client_update(model, pop.features[cohort], pop.labels[cohort], *args)
        want = np.stack(
            [
                client_update_single(model, pop.features[c], pop.labels[c], *args)
                for c in cohort
            ]
        )
        np.testing.assert_array_equal(got, want)
        if local_epochs and clip_norm == 0.01:  # clipping is active on every row
            assert np.linalg.norm(want, axis=1) == pytest.approx(0.01, rel=1e-12)

    def test_zero_epoch_cohort_gives_exact_zeros_without_warnings(self):
        pop = small_population()
        with np.errstate(all="raise"):
            deltas = client_update(
                np.ones(8), pop.features[:5], pop.labels[:5], 0.1, 1.0, local_epochs=0
            )
        assert deltas.shape == (5, 8)
        np.testing.assert_array_equal(deltas, np.zeros((5, 8)))

    def test_zero_rows_left_as_they_are_at_zero_clip_norm(self):
        # a zero row's scale is 0/0 there; the other rows are scaled to 0
        pop = small_population()
        with np.errstate(all="raise"):
            deltas = client_update(
                np.zeros(8), pop.features[:3], pop.labels[:3], 0.1, 0.0, local_epochs=0
            )
            moved = client_update(np.zeros(8), pop.features[:3], pop.labels[:3], 0.1, 0.0)
        np.testing.assert_array_equal(deltas, np.zeros((3, 8)))
        np.testing.assert_array_equal(moved, np.zeros((3, 8)))

    @pytest.mark.parametrize("noise_multiplier", [0.4, 0.0], ids=["noisy", "noiseless"])
    def test_each_round_sums_its_cohort_in_order(self, monkeypatch, noise_multiplier):
        # the server step sees the cohort's sum plus the round's noise row;
        # a noiseless run hands it the sum itself
        pop = small_population()
        cfg = config(mechanism=MECH, noise_multiplier=noise_multiplier, batch_size=7)
        seen, blocks = [], []
        orig_opt, orig_block = sim.server_round, sim.stream_mult_inverse_block

        def spy(model, momentum_buf, delta_tilde, cfg):
            seen.append((model.copy(), delta_tilde.copy()))
            return orig_opt(model, momentum_buf, delta_tilde, cfg)

        def block_spy(state, rounds):
            blocks.append(orig_block(state, rounds).copy())
            return blocks[-1]

        monkeypatch.setattr(sim, "server_round", spy)
        monkeypatch.setattr(sim, "stream_mult_inverse_block", block_spy)
        r = run_training(cfg, pop)
        assert len(seen) == cfg.rounds
        assert len(blocks) == (noise_multiplier > 0)
        for t, (model, delta_tilde) in enumerate(seen):
            want = np.zeros(8)
            for cid in r.cohorts[t].tolist():
                want += client_update_single(
                    model, pop.features[cid], pop.labels[cid], cfg.client_lr,
                    cfg.clip_norm, cfg.local_epochs, cfg.batch_size, pop.task,
                )
            if blocks:
                want += blocks[0][t]
            np.testing.assert_array_equal(delta_tilde, want)

    def test_one_diverging_client_fails_the_round(self, monkeypatch):
        pop = small_population(n_clients=4)
        pop.features[2] = 1e200
        steps = []
        monkeypatch.setattr(sim, "server_round", lambda *a, **k: steps.append(a))
        with pytest.raises(FloatingPointError, match="non-finite"):
            run_training(config(clients_per_round=4, min_sep=1), pop)
        assert steps == []  # nothing of the failed round reached the server


class TestServerRound:
    def test_momentum_step_hand_values(self):
        cfg = config(clients_per_round=2, server_lr=0.1, momentum=0.5)
        model, buf = server_round(
            np.array([1.0, 2.0]), np.array([0.5, 0.0]), np.array([4.0, 8.0]), cfg
        )
        # P = 0.5*buf + delta/m = (0.25,0)+(2,4); y = y + 0.1*P
        np.testing.assert_allclose(buf, [2.25, 4.0])
        np.testing.assert_allclose(model, [1.225, 2.4])

    def test_server_opt_sees_only_privatized_sum(self, monkeypatch):
        # canary: the optimizer input must equal delta_sum + the round's
        # noise row, never the raw delta_sum, whenever the run is noisy
        seen, sums = [], []
        orig_update = sim.client_update
        canary = np.arange(12 * 8, dtype=float).reshape(12, 8) + 1000.0

        def update_spy(*args):
            deltas = orig_update(*args)
            sums.append(deltas.sum(axis=0))
            return deltas

        def opt_spy(model, buf, delta_tilde, cfg):
            seen.append(delta_tilde.copy())
            return model, buf

        monkeypatch.setattr(sim, "client_update", update_spy)
        monkeypatch.setattr(sim, "server_round", opt_spy)
        monkeypatch.setattr(sim, "stream_mult_inverse_block", lambda state, rounds: canary)
        run_training(config(mechanism=MECH, noise_multiplier=0.4), small_population())
        assert len(seen) == len(sums) == 12
        for t, (delta_tilde, delta_sum) in enumerate(zip(seen, sums)):
            np.testing.assert_array_equal(delta_tilde, delta_sum + canary[t])


class TestTrainConfig:
    # caught where they enter: unchecked, est_max_part=0 would silently mean
    # the worst case, local_epochs=0 would train nothing, and the others
    # would fail mid-run with unrelated errors
    @pytest.mark.parametrize(
        "name",
        ["est_max_part", "min_sep", "clients_per_round", "batch_size", "local_epochs"],
    )
    def test_zero_rejected_at_construction(self, name):
        with pytest.raises(ValueError, match=name):
            config(**{name: 0})

    # unchecked, each of these fails mid-run with a TypeError
    @pytest.mark.parametrize(
        "name, value",
        [("rounds", 10.5), ("clients_per_round", 2.0), ("min_sep", 3.0),
         ("local_epochs", 1.5), ("batch_size", 2.5), ("est_max_part", 2.5)],
    )
    def test_non_integral_count_rejected_at_construction(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            config(**{name: value})

    def test_est_max_part_that_cannot_fit_rejected_at_construction(self):
        # (k - 1) * min_sep = 8 >= rounds = 6: at most max_participations(6, 2) = 3;
        # unchecked, the schema in run_training failed after the coefficients
        with pytest.raises(
            ValueError, match="est_max_part 5 does not fit 6 rounds at min_sep 2; at most 3"
        ):
            config(rounds=6, min_sep=2, est_max_part=5)
        assert config(rounds=6, min_sep=2, est_max_part=3).est_max_part == 3

    def test_numpy_integer_counts_accepted(self):
        cfg = config(rounds=np.int64(12), est_max_part=np.int32(4))
        assert cfg.rounds == 12 and cfg.est_max_part == 4

    # unchecked, numpy rejects -1 mid-run and would truncate 1.5 to 1
    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_rejected_at_construction(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            config(seed=seed)

    # unchecked, a NaN sigma_zeta trains with no noise and a NaN step gives a NaN model
    @pytest.mark.parametrize(
        "name", ["noise_multiplier", "clip_norm", "client_lr", "server_lr", "momentum"]
    )
    def test_nan_rejected_at_construction(self, name):
        with pytest.raises(ValueError, match=name):
            config(**{name: math.nan})

    def test_infinite_noise_multiplier_rejected_at_construction(self):
        # unchecked, the noise generator raises mid-run on an infinite noise_std
        with pytest.raises(ValueError, match="noise_multiplier must be finite and >= 0"):
            config(noise_multiplier=math.inf)

    def test_unclipped_noise_rejected_at_construction(self):
        # the noise scale noise_multiplier * sens * clip_norm would be infinite
        with pytest.raises(ValueError, match="clip_norm must be finite"):
            config(clip_norm=math.inf, noise_multiplier=0.5)

    @pytest.mark.parametrize("value", [True, "1.0", -math.inf])
    def test_clip_norm_that_is_no_number_rejected_at_construction(self, value):
        # +inf is the one non-finite clip norm: it turns clipping off
        with pytest.raises(ValueError, match=f"clip_norm must be finite, got {value!r}"):
            config(clip_norm=value)
        assert config(clip_norm=math.inf).clip_norm == math.inf

    @pytest.mark.parametrize("momentum", [-0.1, 1.0, 1e30])
    def test_momentum_outside_unit_interval_rejected(self, momentum):
        # a momentum of 1e30 overflowed the server buffer and ended in a
        # FloatingPointError a few rounds into the run
        with pytest.raises(ValueError, match="momentum must be finite and >= 0 and < 1"):
            config(momentum=momentum)

    def test_mechanism_resolved_and_validated_at_construction(self):
        assert config(mechanism=None).mechanism is IDENTITY_MECHANISM
        with pytest.raises(ValueError, match="strictly positive"):
            config(mechanism=BltParams([0.5], [0.0]))


class TestConfiguredSensitivity:
    def test_independent_noise_is_sqrt_k(self):
        cfg = config(mechanism=None, rounds=12, min_sep=3)  # k = 4
        sens = run_training(cfg, small_population()).sens_configured
        assert sens == pytest.approx(2.0, rel=1e-14)

    def test_blt_matches_library_value(self):
        # the noise is calibrated with the sens that ``eval`` prints, bit for bit
        cfg = config(mechanism=MECH, rounds=12, min_sep=3)
        expect = blt_mechanism_loss(MECH, ParticipationSchema(12, 3, 4)).sens
        assert run_training(cfg, small_population()).sens_configured == expect


def chain_mechanism(d):
    """A valid d-buffer BLT with spread decays; d = 0 is the identity."""
    return BltParams(np.linspace(0.97, 0.2, d), np.full(d, 0.9 / max(d, 1)))


class TestRealizedSensitivity:
    """rho_so_far comes from the pulse kernel's prefix form, per realized (b, k)."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("d", range(5))
    def test_prefix_form_matches_shifted_sum_oracle(self, d, seed, monkeypatch):
        # a random run whose realized (b, k) changes many times; the kernel's
        # calls are recorded as run_training makes them
        rng = np.random.default_rng(10 * d + seed)
        m, b = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        cfg = config(
            mechanism=chain_mechanism(d), noise_multiplier=0.6, clip_norm=0.8,
            rounds=int(rng.integers(60, 120)), clients_per_round=m, min_sep=b,
            seed=seed,
        )
        calls = []
        kernel = sim._blt_prefix_sensitivities

        def spy(theta, omega, b, k, lengths):
            sens = kernel(theta, omega, b, k, lengths)
            calls.append((b, k, lengths.copy(), sens[:, 0]))
            return sens

        monkeypatch.setattr(sim, "_blt_prefix_sensitivities", spy)
        r = run_training(cfg, small_population(n_clients=m * b + int(rng.integers(0, 4))))
        b_log, k_log = _realized_schema(r.cohorts, b)
        pairs = set(zip(b_log.tolist(), k_log.tolist()))
        assert len(pairs) >= 8
        # one kernel call per realized (b, k), over that pair's rounds
        assert sorted((bb, kk) for bb, kk, _, _ in calls) == sorted(pairs)
        got = np.full(cfg.rounds, np.nan)  # a round no call covered fails below
        for bb, kk, lengths, sens in calls:
            np.testing.assert_array_equal(b_log[lengths - 1], bb)
            np.testing.assert_array_equal(k_log[lengths - 1], kk)
            got[lengths - 1] = sens
        want = realized_sensitivities_shifted_sum(blt_coefs(cfg.mechanism, cfg.rounds),
                                                  b_log, k_log)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        # the whole run's value is the sensitivity eval prints at the realized schema
        realized = ParticipationSchema(cfg.rounds, r.realized_b, r.realized_k)
        assert got[-1] == pytest.approx(blt_mechanism_loss(cfg.mechanism, realized).sens,
                                        rel=2.3e-16, abs=0)
        s = got * cfg.clip_norm
        assert [row["rho_so_far"] for row in r.metrics] == (
            s * s / (2.0 * r.sigma_zeta * r.sigma_zeta)
        ).tolist()


class TestRunTraining:
    def test_zero_noise_mechanism_equals_plain(self):
        pop = small_population()
        ra = run_training(config(mechanism=MECH, noise_multiplier=0.0), pop)
        rb = run_training(config(mechanism=None, noise_multiplier=0.0), pop)
        np.testing.assert_array_equal(ra.final_model, rb.final_model)
        assert ra.metrics == rb.metrics

    def test_rerun_is_bitwise_deterministic(self):
        pop = small_population()
        cfg = config(mechanism=MECH, noise_multiplier=0.4)
        ra = run_training(cfg, pop)
        rb = run_training(cfg, pop)
        np.testing.assert_array_equal(ra.final_model, rb.final_model)
        assert ra.metrics == rb.metrics
        np.testing.assert_array_equal(ra.cohorts, rb.cohorts)

    def test_population_is_left_byte_equal(self):
        # the participation ledger belongs to the run, not to the population
        pop = small_population()
        arrays = {
            f.name: getattr(pop, f.name).tobytes()
            for f in dataclasses.fields(pop)
            if isinstance(getattr(pop, f.name), np.ndarray)
        }
        run_training(config(mechanism=MECH, noise_multiplier=0.4), pop)
        for name, before in arrays.items():
            assert getattr(pop, name).tobytes() == before, name

    def test_logs_have_expected_shape(self):
        pop = small_population()
        r = run_training(config(), pop)
        assert len(r.metrics) == 12
        # the cohort log stays one array: round t's cohort, ascending, in row t
        assert r.cohorts.shape == (12, 4) and r.cohorts.dtype == np.int64
        assert (np.diff(r.cohorts, axis=1) > 0).all()
        assert [m["round"] for m in r.metrics] == list(range(12))
        assert all(
            set(m) == {"round", "eval_loss", "eval_acc", "rho_so_far"} for m in r.metrics
        )

    def test_min_sep_respected_in_log(self):
        pop = small_population(n_clients=16)
        r = run_training(config(min_sep=4, rounds=16), pop)
        last = {}
        for t, cid in log_entries(r.cohorts):
            if cid in last:
                assert t - last[cid] >= 4
            last[cid] = t
        assert r.realized_b >= 4
        assert r.realized_k <= math.ceil(16 / r.realized_b)

    def test_realized_b_and_k_are_those_of_the_log(self):
        pop = small_population(n_clients=16)
        r = run_training(config(min_sep=3, rounds=30), pop)
        rounds_of = {}
        for t, cid in log_entries(r.cohorts):
            rounds_of.setdefault(cid, []).append(t)
        assert r.realized_k == max(len(ts) for ts in rounds_of.values())
        assert r.realized_b == min(b - a for ts in rounds_of.values() for a, b in zip(ts, ts[1:]))

    def test_rho_accounting_realized_schema(self):
        pop = small_population()
        r = run_training(config(mechanism=MECH, noise_multiplier=0.5), pop)
        rho = [m["rho_so_far"] for m in r.metrics]
        assert all(np.isfinite(rho))
        assert all(b >= a - 1e-12 for a, b in zip(rho, rho[1:]))  # non-decreasing
        # the last round's realized accounting is the whole run's
        assert r.rho_realized == rho[-1]

    def test_zero_noise_reports_infinite_rho(self):
        pop = small_population()
        r = run_training(config(noise_multiplier=0.0), pop)
        assert r.rho_realized == math.inf
        assert r.metrics[0]["rho_so_far"] == math.inf

    def test_unclipped_noiseless_run_has_zero_noise_scale(self):
        r = run_training(config(clip_norm=math.inf, noise_multiplier=0.0), small_population())
        assert r.sigma_zeta == 0.0
        assert r.rho_realized == math.inf

    def test_clean_linear_loss_decreases_smoothed(self):
        pop = small_population()
        r = run_training(
            config(rounds=200, min_sep=1, clients_per_round=8, server_lr=0.5), pop
        )
        losses = np.array([m["eval_loss"] for m in r.metrics])
        smooth = np.convolve(losses, np.ones(20) / 20, mode="valid")
        # decreases to a convergence floor: client heterogeneity plus cohort
        # sampling leaves a small wiggle there, so bound upticks by the range
        # and require the curve to end near the floor it reached
        span = smooth[0] - smooth.min()
        assert np.all(np.diff(smooth) <= 0.05 * span)
        assert smooth.min() < 0.2 * smooth[0]
        assert smooth[-1] <= smooth.min() + 0.2 * span

    def test_starvation_surfaces_from_run(self):
        pop = small_population(n_clients=3)
        with pytest.raises(ValueError, match="need 4 clients, not 3"):
            run_training(config(clients_per_round=2, min_sep=2), pop)


def assert_bitwise_equal(got, want, where=""):
    """Equal types and equal bits, through lists, tuples and dicts; NaN equals NaN."""
    assert type(got) is type(want), where
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert got.tobytes() == want.tobytes(), where
    elif isinstance(want, float):
        assert got.hex() == want.hex(), where
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_bitwise_equal(g, w, f"{where}[{i}]")
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_bitwise_equal(got[key], want[key], f"{where}[{key!r}]")
    else:
        assert got == want, where


class TestWholeRunOracle:
    """Every output equals the run with its noise streamed and ledger kept per round."""

    @pytest.mark.parametrize(
        "task, n_clients, overrides",
        [
            ("linear", 40, dict(mechanism=MECH, noise_multiplier=0.5)),
            ("logistic", 40, dict(mechanism=MECH, noise_multiplier=0.5, rounds=80)),
            ("linear", 40, dict(mechanism=None, noise_multiplier=0.7, rounds=40)),
            ("logistic", 40, dict(mechanism=MECH, noise_multiplier=0.0)),
            ("linear", 40, dict(clip_norm=math.inf, noise_multiplier=0.0)),
            ("logistic", 40, dict(mechanism=MECH, noise_multiplier=0.3, local_epochs=2,
                                  batch_size=7, rounds=30)),
            ("linear", 16, dict(mechanism=MECH, noise_multiplier=0.5, rounds=30)),
        ],
        ids=["linear", "logistic", "identity", "noiseless", "unclipped", "epochs-batch",
             "changing-schema"],
    )
    def test_every_field_equals_per_round_oracle(self, task, n_clients, overrides):
        pop = small_population(task=task, n_clients=n_clients)
        cfg = config(**overrides)
        got, want = run_training(cfg, pop), run_training_per_round(cfg, pop)
        for field in dataclasses.fields(want):
            assert_bitwise_equal(getattr(got, field.name), getattr(want, field.name), field.name)
        if task == "linear":  # the regression task's accuracies are all NaN
            assert all(math.isnan(row["eval_acc"]) for row in got.metrics)


class TestMetricsAfterTheLoop:
    """Every round's eval and rho equal their one-round recomputation."""

    @pytest.mark.parametrize(
        "task, n_clients, overrides",
        [
            ("linear", 40, dict(mechanism=MECH, noise_multiplier=0.5)),
            ("logistic", 40, dict(mechanism=MECH, noise_multiplier=0.5, rounds=80)),
            # realized (b, k) changes several times
            ("linear", 16, dict(mechanism=MECH, noise_multiplier=0.5, rounds=30)),
            ("logistic", 16, dict(mechanism=MECH, noise_multiplier=0.0, rounds=30)),
        ],
        ids=["linear", "logistic", "changing-schema", "zero-noise"],
    )
    def test_rows_equal_per_round_oracle(self, task, n_clients, overrides, monkeypatch):
        pop = small_population(task=task, n_clients=n_clients)
        cfg = config(**overrides)
        models = []
        orig = sim.server_round

        def spy(model, momentum_buf, delta_tilde, cfg):
            new = orig(model, momentum_buf, delta_tilde, cfg)
            models.append(new[0].copy())
            return new

        monkeypatch.setattr(sim, "server_round", spy)
        r = run_training(cfg, pop)
        want = metrics_per_round(
            models, log_entries(r.cohorts), blt_coefs(cfg.mechanism, cfg.rounds),
            cfg.clip_norm, r.sigma_zeta, pop,
        )
        assert len(r.metrics) == len(want) == cfg.rounds
        for got_row, want_row in zip(r.metrics, want):
            assert got_row.keys() == want_row.keys()
            assert got_row["round"] == want_row["round"]
            for key in ("eval_loss", "eval_acc", "rho_so_far"):
                np.testing.assert_allclose(got_row[key], want_row[key], rtol=1e-12, atol=0)
        assert r.rho_realized == r.metrics[-1]["rho_so_far"]
        if cfg.noise_multiplier == 0:
            assert all(row["rho_so_far"] == math.inf for row in r.metrics)
        else:
            assert all(math.isfinite(row["rho_so_far"]) for row in r.metrics)

    def test_changing_schema_run_realizes_several_pairs(self):
        # the run of ``test_rows_equal_per_round_oracle[changing-schema]``
        r = run_training(
            config(mechanism=MECH, noise_multiplier=0.5, rounds=30),
            small_population(n_clients=16),
        )
        rho = [row["rho_so_far"] for row in r.metrics]
        rounds_of, pairs = {}, set()
        for t in range(30):
            for cid in r.cohorts[t].tolist():
                rounds_of.setdefault(cid, []).append(t)
            gaps = [b - a for ts in rounds_of.values() for a, b in zip(ts, ts[1:])]
            pairs.add((min(gaps, default=None), max(map(len, rounds_of.values()))))
        assert len(pairs) >= 4
        assert all(b >= a for a, b in zip(rho, rho[1:]))


class TestAudit:
    def test_audit_rejects_violation(self):
        log = np.array([[3, 7], [1, 7]])
        with pytest.raises(AssertionError, match="client 7 at rounds 0 and 1 with b=2"):
            _realized_schema(log, 2)
        with pytest.raises(AssertionError, match="client 7 at rounds 0 and 1"):
            audit_min_sep(log_entries(log), 2)

    def test_audit_accepts_valid_log(self):
        _realized_schema(np.array([[7, 8], [1, 2], [7, 9]]), 2)

    def test_hand_log(self):
        # client 5 returns at round 2 after 2 rounds, client 1 at round 3 after 3;
        # no client has returned by round 1, so b is the number of rounds there
        log = np.array([[1, 5], [2, 3], [4, 5], [1, 6]])
        b_log, k_log = _realized_schema(log, 1)
        assert b_log.tolist() == [4, 4, 2, 2]
        assert k_log.tolist() == [1, 1, 2, 2]

    def test_working_memory_at_reference_size(self):
        # perfbench's simulate log: 2052 rounds of 10 from 4000 clients at
        # b = 342. A fresh array per step and a scatter back to log order
        # peaked at 1.55 MB; three reused log-sized buffers peak at 0.66 MB
        rounds, size = 2052, 10
        log = (np.arange(rounds)[:, None] * size + np.arange(size)) % 4000
        tracemalloc.start()
        try:
            b_log, k_log = _realized_schema(log, 342)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (b_log[-1], k_log[-1]) == (400, 6)
        assert peak <= 0.9e6

    @pytest.mark.parametrize("seed", range(20))
    def test_schema_equals_ledger_kept_round_by_round(self, seed):
        rng = np.random.default_rng(seed)
        n_clients, size = rng.integers(3, 12), rng.integers(1, 3)
        rounds, b = rng.integers(1, 40), rng.integers(1, 4)
        ledger, log = np.full(n_clients, -(10**9)), []
        for t in range(rounds):
            if np.sum(ledger <= t - b) < size:
                break
            log.append(select_cohort(ledger, t, size, b, rng))
            ledger[log[-1]] = t
        log = np.array(log)
        b_log, k_log = _realized_schema(log, b)
        want_b, want_k = ledger_per_round(log.tolist(), len(log))
        np.testing.assert_array_equal(b_log, want_b)
        np.testing.assert_array_equal(k_log, want_k)


class TestEvalModel:
    def test_eval_linear_zero_model(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([2.0, -2.0])
        loss, acc = eval_model(np.zeros(2), X, y, "linear")
        assert loss == pytest.approx(4.0)
        assert math.isnan(acc)

    def test_eval_logistic_perfect_separation(self):
        X = np.array([[5.0], [-5.0]])
        y = np.array([1.0, 0.0])
        loss, acc = eval_model(np.array([10.0]), X, y, "logistic")
        assert acc == 1.0
        assert loss < 1e-8

    @pytest.mark.parametrize("task", ["linear", "logistic"])
    def test_stacked_models_equal_one_model_calls(self, task):
        pop = small_population(task=task)
        models = np.random.default_rng(4).normal(0.0, 0.7, (9, 8))
        args = (pop.eval_features, pop.eval_labels, task)
        loss, acc = eval_model(models, *args)
        assert loss.shape == acc.shape == (9,)
        for row, model in enumerate(models):
            one_loss, one_acc = eval_model(model, *args)
            assert type(one_loss) is float and type(one_acc) is float
            assert loss[row] == pytest.approx(one_loss, rel=1e-13, abs=0)
            if task == "linear":
                assert math.isnan(acc[row]) and math.isnan(one_acc)
            else:
                assert acc[row] == pytest.approx(one_acc, rel=1e-13, abs=0)

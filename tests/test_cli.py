"""Command-line surface: argument plumbing, output formats, determinism.

Everything runs in-process through ``main(argv)`` (fast, keeps coverage);
one subprocess test confirms the installed entry point matches.
"""

import argparse
import copy
import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from oracles import log_entries, lt_toeplitz, toeplitz_mechanism_loss

import corrnoise.blt_core
import corrnoise.blt_optimizer
import corrnoise.cli
import corrnoise.ftrl_sim
import corrnoise.loss_metrics
import corrnoise.tree_baseline
from corrnoise.accountant import DEFAULT_DELTA, eps_of_zcdp, zcdp_of
from corrnoise.blt_core import (
    IDENTITY_MECHANISM,
    BltParams,
    blt_coefs,
    load_params,
    make_noise_generator,
    save_params,
    stream_mult_inverse,
)
from corrnoise.cli import SWEEP_HEADER, main
from corrnoise.ftrl_sim import SimResult, TrainConfig, make_population, run_training
from corrnoise.loss_metrics import blt_mechanism_loss, dense_error
from corrnoise.participation import (
    ParticipationSchema,
    matrix_sensitivity_lower_bound,
    max_participations,
)
from corrnoise.tree_baseline import eval_tree

MECH = BltParams(np.array([0.9, 0.5]), np.array([0.2, 0.3]))
CHUNK = corrnoise.blt_core._CHUNK
# a module-private name such as _positive_int, which no usage error may print
PRIVATE_NAME = r"\b_[a-z]"


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "mech.json"
    save_params(path, MECH, opt_n=64, opt_min_sep=16, opt_max_part=4, objective="max")
    return str(path)


@pytest.fixture
def weightless_file(tmp_path):
    # omega = 0 is not the identity; every command validates the same way
    path = tmp_path / "weightless.json"
    path.write_text(json.dumps({
        "d": 1, "theta": [0.5], "omega": [0.0], "opt_n": 64, "opt_min_sep": 16,
        "opt_max_part": 4, "objective": "max",
    }))
    return str(path)


# parameter files that load_params cannot read, by what is wrong with them
UNREADABLE_DOCS = {
    "missing-key": ('{"d": 1, "theta": [0.5], "omega": [0.2]}', "missing key 'opt_n'"),
    "d-mismatch": (
        json.dumps({"d": 3, "theta": [0.5], "omega": [0.2], "opt_n": 64,
                    "opt_min_sep": 16, "opt_max_part": 4, "objective": "max"}),
        "d = 3 but theta has length 1",
    ),
    "malformed-json": ('{"d": 1, "theta": [0.5', "Expecting"),
    "string-theta": (
        json.dumps({"d": 1, "theta": ["0.5"], "omega": [0.2], "opt_n": 64,
                    "opt_min_sep": 16, "opt_max_part": 4, "objective": "max"}),
        "theta must be a list of numbers",
    ),
    "boolean-omega": (
        json.dumps({"d": 1, "theta": [0.5], "omega": [True], "opt_n": 64,
                    "opt_min_sep": 16, "opt_max_part": 4, "objective": "max"}),
        "omega must be a list of numbers",
    ),
    "boolean-d": (
        json.dumps({"d": True, "theta": [0.5], "omega": [0.2], "opt_n": 64,
                    "opt_min_sep": 16, "opt_max_part": 4, "objective": "max"}),
        "d must be an integer >= 0, got True",
    ),
    "unknown-objective": (
        json.dumps({"d": 1, "theta": [0.5], "omega": [0.2], "opt_n": 64,
                    "opt_min_sep": 16, "opt_max_part": 4, "objective": 7}),
        "objective must be one of ('max', 'rms'), got 7",
    ),
}


@pytest.fixture(params=sorted(UNREADABLE_DOCS))
def unreadable_file(request, tmp_path):
    """(path, reason) of a parameter file that cannot be read."""
    text, reason = UNREADABLE_DOCS[request.param]
    path = tmp_path / f"{request.param}.json"
    path.write_text(text)
    return str(path), reason


def assert_usage_names_file(exc, capsys, path, reason="strictly positive"):
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "usage" in captured.err and path in captured.err
    assert reason in captured.err
    assert captured.out == ""


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in output")


def strict_loads(text):
    """json.loads that fails on the NaN / Infinity tokens RFC 8259 forbids."""
    return json.loads(text, parse_constant=_reject_constant)


class TestOptimize:
    def test_writes_self_consistent_params(self, tmp_path, capsys):
        out_path = tmp_path / "fit.json"
        code, out = run_cli(
            [
                "optimize",
                "--n", "64", "--min-sep", "16", "--max-part", "4",
                "--buffers", "2", "--restarts", "2", "--seed", "0",
                "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        params, meta = load_params(out_path)
        assert meta["opt_n"] == 64 and meta["objective"] == "max"
        bundle = blt_mechanism_loss(params, ParticipationSchema(64, 16, 4))
        # recorded loss field reproduces on re-evaluation of the saved file
        assert bundle.max_loss == pytest.approx(doc["max_loss"], rel=1e-12)
        assert doc["converged"] is True

    def test_rms_objective_dominates_its_metric(self, tmp_path, capsys):
        files = {}
        for obj in ("max", "rms"):
            path = tmp_path / f"{obj}.json"
            code, _ = run_cli(
                [
                    "optimize", "--n", "64", "--min-sep", "16", "--max-part", "4",
                    "--buffers", "2", "--restarts", "2", "--objective", obj,
                    "--out", str(path),
                ],
                capsys,
            )
            assert code == 0
            files[obj], _ = load_params(path)
        schema = ParticipationSchema(64, 16, 4)
        assert (
            blt_mechanism_loss(files["rms"], schema).rms_loss
            <= blt_mechanism_loss(files["max"], schema).rms_loss + 1e-9
        )

    def test_unwritable_out_prints_nothing(self, tmp_path, capsys):
        # the file is written before the report: either both or a usage error alone
        out_path = tmp_path / "missing" / "fit.json"
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--n", "64", "--min-sep", "16", "--buffers", "2",
                  "--restarts", "1", "--out", str(out_path)])
        assert_usage_names_file(exc, capsys, str(out_path), "No such file or directory")
        assert not out_path.exists()

    def test_invalid_flags_exit_nonzero_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--n", "64", "--objective", "median"])
        assert exc.value.code != 0
        assert "usage" in capsys.readouterr().err

    def test_negative_seed_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--n", "64", "--seed", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage" in captured.err and "--seed" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--buffers", "--restarts"])
    def test_zero_count_exits_with_usage(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--n", "64", flag, "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage" in captured.err and flag in captured.err
        assert captured.out == ""


class TestEval:
    def test_params_eval_matches_library(self, params_file, capsys):
        code, out = run_cli(
            ["eval", "--n", "64", "--min-sep", "16", "--max-part", "4",
             "--params", params_file],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        bundle = blt_mechanism_loss(MECH, ParticipationSchema(64, 16, 4))
        assert doc["max_loss"] == bundle.max_loss  # repr round-trip exact
        assert doc["sens_method"] == "toeplitz"

    def test_weightless_buffer_params_rejected(self, weightless_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--n", "64", "--min-sep", "16", "--params", weightless_file])
        assert_usage_names_file(exc, capsys, weightless_file)

    def test_unreadable_params_file_exits_with_usage(self, unreadable_file, capsys):
        path, reason = unreadable_file
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--n", "64", "--min-sep", "16", "--params", path])
        assert_usage_names_file(exc, capsys, path, reason)

    def test_tree_eval(self, capsys):
        code, out = run_cli(["eval", "--n", "64", "--min-sep", "16", "--tree"], capsys)
        assert code == 0
        assert json.loads(out)["sens_method"] == "lower_bound"

    def test_tree_eval_past_the_dense_guard(self, capsys):
        # one participation in a 2^20-leaf tree lies under 21 nodes
        n = 1 << 20
        code, out = run_cli(
            ["eval", "--tree", "--n", str(n), "--min-sep", str(n)], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 1 and doc["sens"] == math.sqrt(21)

    def test_matrix_eval(self, tmp_path, capsys):
        C = np.tril(np.ones((8, 8)))
        path = tmp_path / "C.csv"
        np.savetxt(path, C, delimiter=",")
        code, out = run_cli(
            ["eval", "--n", "8", "--min-sep", "4", "--matrix", str(path)], capsys
        )
        assert code == 0
        assert json.loads(out)["n"] == 8

    def test_matrix_eval_npy_matches_csv(self, tmp_path, capsys):
        C = np.tril(np.ones((8, 8))) * 0.5 + np.eye(8) * 0.5
        np.save(tmp_path / "C.npy", C)
        np.savetxt(tmp_path / "C.csv", C, delimiter=",", fmt="%.17g")
        argv = ["eval", "--n", "8", "--min-sep", "4", "--matrix"]
        _, out_npy = run_cli(argv + [str(tmp_path / "C.npy")], capsys)
        _, out_csv = run_cli(argv + [str(tmp_path / "C.csv")], capsys)
        assert out_npy == out_csv

    @pytest.mark.parametrize("source", ["params", "tree", "matrix"])
    def test_noise_multiplier_scales_only_the_printed_losses(
        self, source, params_file, tmp_path, capsys
    ):
        # the library's losses are per unit noise multiplier; eval scales
        # the two it prints, and nothing else moves
        if source == "matrix":
            path = tmp_path / "C.csv"
            np.savetxt(path, np.tril(np.ones((64, 64))) * 0.5 + np.eye(64) * 0.5, delimiter=",")
            flag = ["--matrix", str(path)]
        else:
            flag = {"params": ["--params", params_file], "tree": ["--tree"]}[source]
        argv = ["eval", "--n", "64", "--min-sep", "16", "--max-part", "4", *flag]
        plain, scaled = (
            strict_loads(run_cli(a, capsys)[1])
            for a in (argv, [*argv, "--noise-multiplier", "3.3"])
        )
        for key in ("n", "b", "k", "sens", "max_error", "rms_error", "sens_method"):
            assert scaled[key] == plain[key], key
        for doc, nm in ((plain, 1.0), (scaled, 3.3)):  # repr round-trip: bit for bit
            assert doc["max_loss"] == nm * doc["max_error"] * doc["sens"]
            assert doc["rms_loss"] == nm * doc["rms_error"] * doc["sens"]

    @pytest.mark.parametrize("suffix", ["csv", "npy"])
    def test_matrix_eval_matches_triangular_solve(self, suffix, tmp_path, capsys):
        n, b = 512, 64
        theta = np.array([0.9999999999921251, 0.9944453083640997, 0.8985923474607591])
        omega = np.array([0.0070314825502323835, 0.10613806907600574, 0.1898159060327625])
        C = lt_toeplitz(blt_coefs(BltParams(theta, omega), n))
        path = tmp_path / f"C.{suffix}"
        if suffix == "npy":
            np.save(path, C)
        else:
            np.savetxt(path, C, delimiter=",", fmt="%.17g")
        code, out = run_cli(
            ["eval", "--n", str(n), "--min-sep", str(b), "--matrix", str(path)], capsys
        )
        assert code == 0
        doc = strict_loads(out)
        schema = ParticipationSchema(n, b, max_participations(n, b))
        Cinv = scipy.linalg.solve_triangular(C, np.eye(n), lower=True)
        max_error, rms_error = dense_error(np.cumsum(Cinv, axis=0))
        sens = matrix_sensitivity_lower_bound(C, schema)
        assert doc["sens"] == sens
        for key, want in [("max_error", max_error), ("rms_error", rms_error),
                          ("max_loss", sens * max_error), ("rms_loss", sens * rms_error)]:
            assert doc[key] == pytest.approx(want, rel=1e-12, abs=0), key

    @pytest.mark.parametrize(
        "name, text, reason",
        [("nothere.npy", None, "No such file"),
         ("ragged.csv", "1,0\n1\n", "number of columns changed")],
        ids=["missing", "ragged-csv"],
    )
    def test_unreadable_matrix_exits_with_usage(self, name, text, reason, tmp_path, capsys):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--n", "2", "--matrix", str(path)])
        assert_usage_names_file(exc, capsys, str(path), reason)

    @pytest.mark.parametrize("n", [4, 16])
    def test_matrix_of_another_size_exits_with_usage(self, n, tmp_path, capsys):
        path = tmp_path / "C.csv"
        np.savetxt(path, np.tril(np.ones((8, 8))), delimiter=",")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--n", str(n), "--min-sep", "2", "--matrix", str(path)])
        # the shape is checked by mechanism_loss, which the error names
        assert_usage_names_file(
            exc, capsys, str(path), f"dense strategy must be ({n}, {n}), got (8, 8)"
        )

    def test_zero_diagonal_matrix_exits_with_usage(self, tmp_path, capsys):
        path = tmp_path / "C.csv"
        C = np.tril(np.ones((4, 4)))
        C[2, 2] = 0.0
        np.savetxt(path, C, delimiter=",")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--n", "4", "--min-sep", "2", "--matrix", str(path)])
        assert_usage_names_file(exc, capsys, str(path), "must have a nonzero diagonal")


class TestSweep:
    def test_deterministic_bytes_and_header(self, params_file, tmp_path, capsys):
        argv = [
            "sweep", "--n", "64", "--b-start", "8", "--b-stop", "32", "--b-step", "8",
            "--params", params_file, "--tree", "--identity",
        ]
        code1, out1 = run_cli(argv, capsys)
        code2, out2 = run_cli(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-reproducible
        lines = out1.strip().split("\n")
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 3 * 4  # three mechanisms, four b values
        # row order: mechanisms in argument order, b ascending within
        assert [l.split(",")[0] for l in lines[1:5]] == ["mech"] * 4

    def test_identity_closed_form_row(self, capsys):
        code, out = run_cli(
            ["sweep", "--n", "16", "--b-start", "4", "--b-stop", "4", "--b-step", "1",
             "--identity"],
            capsys,
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        sens, max_error, rms_error = float(row[4]), float(row[5]), float(row[6])
        assert sens == pytest.approx(2.0)  # sqrt(k) with k = 4
        assert max_error == pytest.approx(4.0)  # sqrt(n)
        assert rms_error == pytest.approx(np.sqrt(8.5))
        assert float(row[8]) == pytest.approx(sens * rms_error)

    def test_identity_rows_equal_one_d_reference(self, capsys):
        # identity runs as the zero-buffer BLT; the O(n^2) Toeplitz path
        # on e_0 is the reference and must agree bit for bit
        n = 96
        code, out = run_cli(
            ["sweep", "--n", str(n), "--b-start", "5", "--b-stop", "96", "--b-step", "13",
             "--identity", "--noise-multiplier", "1.7"],
            capsys,
        )
        assert code == 0
        e0 = np.zeros(n)
        e0[0] = 1.0
        for line in out.strip().split("\n")[1:]:
            row = line.split(",")
            b, k = int(row[2]), int(row[3])
            ref = toeplitz_mechanism_loss(e0, ParticipationSchema(n, b, k))
            assert row[4:] == [
                repr(ref.sens), repr(ref.max_error), repr(ref.rms_error),
                repr(1.7 * ref.max_error * ref.sens), repr(1.7 * ref.rms_error * ref.sens),
                ref.sens_method, "ok",
            ]

    def test_infeasible_cells_get_status_rows(self, params_file, capsys):
        code, out = run_cli(
            ["sweep", "--n", "64", "--b-start", "16", "--b-stop", "32", "--b-step", "16",
             "--max-part", "4", "--params", params_file],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")[1:]
        status = {l.split(",")[2]: l.split(",")[-1] for l in lines}
        assert status["16"] == "ok"  # (4-1)*16 = 48 < 64
        assert status["32"] == "infeasible"  # (4-1)*32 = 96 >= 64

    @pytest.mark.parametrize(
        "module, kernel, flag",
        [(corrnoise.tree_baseline, "_tree_errors", "--tree"),
         (corrnoise.loss_metrics, "_blt_errors", "--params"),
         (corrnoise.loss_metrics, "_blt_errors", "--identity")],
        ids=["tree", "params", "identity"],
    )
    def test_errors_once_per_invocation(
        self, module, kernel, flag, params_file, monkeypatch, capsys
    ):
        calls = []
        errors = getattr(module, kernel)

        def counting_errors(*args):
            calls.append(args[-1])  # the tree's horizon, or the BLT's n
            return errors(*args)

        monkeypatch.setattr(module, kernel, counting_errors)
        flags = [flag, params_file] if flag == "--params" else [flag]
        argv = ["sweep", "--n", "64", "--b-start", "8", "--b-stop", "32", "--b-step", "8",
                *flags]
        for expected in (1, 2):  # no mechanism's errors outlive a main call
            code, out = run_cli(argv, capsys)
            assert code == 0 and out.count(",ok\n") == 4
            assert calls == [64] * expected
        # every cell infeasible: no errors are computed
        code, out = run_cli(
            ["sweep", "--n", "64", "--b-start", "40", "--b-stop", "60", "--b-step", "10",
             "--max-part", "3", *flags],
            capsys,
        )
        assert code == 0 and out.count(",infeasible\n") == 3
        assert len(calls) == 2

    def test_rows_equal_single_cell_evaluators(self, params_file, capsys):
        n, nm = 100, 1.7
        code, out = run_cli(
            ["sweep", "--n", str(n), "--b-start", "5", "--b-stop", "100", "--b-step", "19",
             "--params", params_file, "--tree", "--noise-multiplier", str(nm)],
            capsys,
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            row = line.split(",")
            schema = ParticipationSchema(n, int(row[2]), int(row[3]))
            ref = eval_tree(schema) if row[0] == "tree" else blt_mechanism_loss(MECH, schema)
            assert row[4:] == [
                repr(ref.sens), repr(ref.max_error), repr(ref.rms_error),
                repr(nm * ref.max_error * ref.sens), repr(nm * ref.rms_error * ref.sens),
                ref.sens_method, "ok",
            ]

    def test_failing_decode_reported_in_every_feasible_cell(self, tmp_path, capsys):
        # theta = 1 fails strict validation on the first feasible cell; the
        # failure is not kept, so every later cell fails the same way
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "d": 1, "theta": [1.0], "omega": [1.0], "opt_n": 64, "opt_min_sep": 16,
            "opt_max_part": 4, "objective": "max",
        }))
        code, out = run_cli(
            ["sweep", "--n", "64", "--b-start", "16", "--b-stop", "48", "--b-step", "16",
             "--params", str(bad)],
            capsys,
        )
        assert code == 0
        # the message has a comma, so the status field is quoted
        rows = list(csv.reader(out.splitlines()))[1:]
        assert len(rows) == 3
        for row in rows:
            assert len(row) == 11
            assert row[4:] == [""] * 6 + ["error:theta must lie strictly inside (0, 1)"]

    def test_defect_in_a_cell_is_raised(self, monkeypatch):
        # only a ValueError (bad input) becomes an error: cell; a defect must
        # not turn into a CSV row with exit 0
        def broken(n):
            def loss(schema):
                raise TypeError("defect")
            return loss

        monkeypatch.setattr(corrnoise.cli, "tree_loss_fn", broken)
        with pytest.raises(TypeError, match="defect"):
            main(["sweep", "--n", "64", "--b-start", "16", "--b-stop", "16", "--tree"])

    def test_unreadable_params_file_exits_with_usage(
        self, params_file, unreadable_file, capsys
    ):
        path, reason = unreadable_file
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "64", "--b-start", "16", "--b-stop", "16",
                  "--params", params_file, path])
        assert_usage_names_file(exc, capsys, path, reason)

    def test_tree_past_the_dense_guard_is_evaluated(self, capsys):
        # horizon 16384 > 8192, which the dense decode refused
        n = 20000
        code, out = run_cli(
            ["sweep", "--n", str(n), "--b-start", "100", "--b-stop", "300",
             "--b-step", "100", "--tree"],
            capsys,
        )
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 3
        for line in rows:
            row = line.split(",")
            ref = eval_tree(ParticipationSchema(n, int(row[2]), int(row[3])))
            assert row[4:] == [
                repr(ref.sens), repr(ref.max_error), repr(ref.rms_error),
                repr(ref.max_loss), repr(ref.rms_loss), ref.sens_method, "ok",
            ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--n", "64", "--b-start", "0", "--b-stop", "8", "--identity"],
             "--b-start: must be >= 1, got 0"),
            (["sweep", "--n", "64", "--b-start", "8", "--b-stop", "16", "--b-step", "0",
              "--identity"], "--b-step: must be >= 1, got 0"),
            (["sweep", "--n", "64", "--b-start", "8", "--b-stop", "16", "--b-step", "-8",
              "--identity"], "--b-step: must be >= 1, got -8"),
            (["sweep", "--n", "64", "--b-start", "16", "--b-stop", "8", "--identity"],
             "--b-stop 8 is below --b-start 16"),
            (["sweep", "--n", "64", "--b-start", "8", "--b-stop", "16", "--max-part", "0",
              "--identity"], "--max-part: must be >= 1, got 0"),
            (["sweep", "--n", "0", "--b-start", "8", "--b-stop", "16", "--identity"],
             "--n: must be >= 1, got 0"),
            (["sweep", "--n", "abc", "--b-start", "8", "--b-stop", "16", "--identity"],
             "--n: must be an integer >= 1, got 'abc'"),
            (["sweep", "--n", "1.5", "--b-start", "8", "--b-stop", "16", "--identity"],
             "--n: must be an integer >= 1, got '1.5'"),
            (["eval", "--n", "64", "--min-sep", "0", "--tree"],
             "--min-sep: must be >= 1, got 0"),
        ],
        ids=["b-start-0", "b-step-0", "b-step-negative", "b-stop-below-start",
             "max-part-0", "n-0", "n-text", "n-fractional", "eval-min-sep-0"],
    )
    def test_bad_grid_or_schema_exits_with_usage(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage" in captured.err and captured.out == ""
        assert message in captured.err and not re.search(PRIVATE_NAME, captured.err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--n", "64", "--min-sep", "16", "--tree", "--noise-multiplier", "-1"],
            ["eval", "--n", "64", "--min-sep", "16", "--tree", "--noise-multiplier", "nan"],
            ["eval", "--n", "64", "--min-sep", "16", "--tree", "--noise-multiplier", "0"],
            ["eval", "--n", "64", "--min-sep", "16", "--tree", "--noise-multiplier", "inf"],
            ["sweep", "--n", "64", "--b-start", "8", "--b-stop", "16", "--tree",
             "--noise-multiplier", "-1"],
            ["sweep", "--n", "64", "--b-start", "8", "--b-stop", "16", "--tree",
             "--noise-multiplier", "nan"],
        ],
        ids=["eval-negative", "eval-nan", "eval-zero", "eval-inf", "sweep-negative",
             "sweep-nan"],
    )
    def test_bad_noise_multiplier_exits_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage" in captured.err and "--noise-multiplier" in captured.err
        assert captured.out == ""

    def test_no_mechanism_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "64", "--b-start", "8", "--b-stop", "8"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage" in captured.err and "no mechanisms given" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("command", ["optimize", "eval"])
def test_max_part_that_does_not_fit_exits_with_usage(command, capsys):
    # (k - 1) * b = 144 >= n = 64: no participation pattern fits
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "64", "--min-sep", "16", "--max-part", "10"]
             + (["--tree"] if command == "eval" else []))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "usage" in captured.err and "does not fit" in captured.err
    assert captured.out == ""


NO_FILE = "[Errno 2] No such file or directory: ''"


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["eval", "--n", "64"], "one of the arguments --params --matrix --tree is required"),
        (["eval", "--n", "64", "--params", ""], NO_FILE),
        (["eval", "--n", "64", "--matrix", ""], ""),
        (["optimize", "--n", "64", "--buffers", "1", "--restarts", "1", "--out", ""],
         NO_FILE),
        (["noisegen", "--params", "PATH", "--rounds", "1", "--out", ""], NO_FILE),
        (["sweep", "--n", "64", "--b-start", "16", "--b-stop", "16", "--tree", "--out", ""],
         NO_FILE),
    ],
    ids=["eval-no-mechanism", "eval-params", "eval-matrix", "optimize-out", "noisegen-out",
         "sweep-out"],
)
def test_no_mechanism_or_empty_path_exits_with_usage(argv, reason, params_file, capsys):
    # an empty path names no file: it is neither the tree nor stdout
    with pytest.raises(SystemExit) as exc:
        main([params_file if arg == "PATH" else arg for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "usage" in captured.err and f"corrnoise {argv[0]}: error: {reason}" in captured.err
    assert captured.out == ""


class TestAccountCmd:
    def test_json_matches_library(self, capsys):
        code, out = run_cli(
            ["account", "--sens", "2.0", "--sigma", "4.0", "--delta", "1e-7"], capsys
        )
        assert code == 0
        doc = strict_loads(out)
        rho = zcdp_of(2.0, 4.0)
        assert doc["rho"] == rho
        assert doc["epsilon"] == eps_of_zcdp(rho, 1e-7)
        assert doc["sens"] == 2.0
        assert "upper bound" in doc["method"]

    def test_default_delta_is_the_accountants(self):
        args = corrnoise.cli.build_parser().parse_args(["account", "--sens", "1", "--sigma", "1"])
        assert args.delta is DEFAULT_DELTA

    def test_unbounded_rho_prints_null(self, capsys):
        code, out = run_cli(["account", "--sens", "1", "--sigma", "0"], capsys)
        assert code == 0
        doc = strict_loads(out)
        assert doc["rho"] is None and doc["epsilon"] is None
        assert doc["sens"] == 1.0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--sens", "nan", "--sigma", "1"], "sensitivity"),
            (["--sens", "1", "--sigma", "nan"], "sigma"),
            (["--sens", "-1", "--sigma", "1"], "sensitivity"),
            (["--sens", "1", "--sigma", "1", "--delta", "2"], "delta"),
            (["--sens", "1", "--sigma", "1", "--delta", "nan"], "delta"),
            (["--sens", "inf", "--sigma", "inf"], "rho"),
            (["--sens", "inf", "--sigma", "1"], "sensitivity must be finite"),
        ],
        ids=["sens-nan", "sigma-nan", "sens-negative", "delta-above-1", "delta-nan",
             "inf-over-inf", "sens-inf"],
    )
    def test_bad_inputs_exit_with_usage(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["account", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage" in captured.err and message in captured.err
        assert captured.out == ""


class TestNoisegen:
    def test_deterministic_and_seed_sensitive(self, params_file, capsys):
        argv = ["noisegen", "--params", params_file, "--rounds", "4", "--dim", "3",
                "--noise-std", "1.0", "--seed", "11"]
        _, out1 = run_cli(argv, capsys)
        _, out2 = run_cli(argv, capsys)
        assert out1 == out2
        _, out3 = run_cli(argv[:-1] + ["12"], capsys)
        assert out3 != out1
        lines = out1.strip().split("\n")
        assert lines[0] == "round,z0,z1,z2"
        assert len(lines) == 5

    @pytest.mark.parametrize(
        "flag, value, rule",
        [("--noise-std", "nan", "must be finite and >= 0, got nan"),
         ("--noise-std", "inf", "must be finite and >= 0, got inf"),
         ("--noise-std", "-1", "must be finite and >= 0, got -1.0"),
         ("--noise-std", "y", "must be a finite number >= 0, got 'y'"),
         ("--dim", "0", "must be >= 1, got 0"),
         ("--rounds", "0", "must be >= 1, got 0"),
         ("--rounds", "-3", "must be >= 1, got -3"),
         ("--seed", "-1", "must be >= 0, got -1")],
        ids=["std-nan", "std-inf", "std-negative", "std-text", "dim-0", "rounds-0",
             "rounds-negative", "seed-negative"],
    )
    def test_bad_arguments_exit_with_usage(self, flag, value, rule, params_file, capsys):
        argv = {"--rounds": "2", "--dim": "2", "--noise-std": "1.0", flag: value}
        with pytest.raises(SystemExit) as exc:
            main(["noisegen", "--params", params_file, *sum(argv.items(), ())])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage" in captured.err and f"argument {flag}: {rule}\n" in captured.err
        assert not re.search(PRIVATE_NAME, captured.err)
        assert captured.out == ""

    def test_weightless_buffer_params_rejected(self, weightless_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["noisegen", "--params", weightless_file, "--rounds", "2"])
        assert_usage_names_file(exc, capsys, weightless_file)

    def test_unreadable_params_file_exits_with_usage(self, unreadable_file, capsys):
        path, reason = unreadable_file
        with pytest.raises(SystemExit) as exc:
            main(["noisegen", "--params", path, "--rounds", "2"])
        assert_usage_names_file(exc, capsys, path, reason)

    def test_rows_written_as_made_and_bytes_match_library(
        self, params_file, tmp_path, monkeypatch, capsys
    ):
        state = make_noise_generator(MECH, m=3, noise_std=1.5, seed=11)
        rows = [stream_mult_inverse(state)[0] for _ in range(4)]
        expect = "round,z0,z1,z2\n" + "".join(
            f"{t}," + ",".join(repr(float(v)) for v in row) + "\n"
            for t, row in enumerate(rows)
        )
        written = []

        def stream_and_count(state):
            # every earlier row (and the header) is already on stdout
            written.append(capsys.readouterr().out)
            assert "".join(written).count("\n") == state.round + 1
            return stream_mult_inverse(state)

        argv = ["noisegen", "--params", params_file, "--rounds", "4", "--dim", "3",
                "--noise-std", "1.5", "--seed", "11"]
        out_path = tmp_path / "noise.csv"
        assert main(argv + ["--out", str(out_path)]) == 0
        assert out_path.read_text() == expect
        monkeypatch.setattr(corrnoise.cli, "stream_mult_inverse", stream_and_count)
        assert main(argv) == 0
        written.append(capsys.readouterr().out)
        assert len(written) == 5
        assert "".join(written) == expect

    # column chunks are _CHUNK wide: one column, one short of a chunk, one
    # chunk, one past it, and two chunks and a part
    @pytest.mark.parametrize(
        "dim",
        [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3],
        ids=["one", "chunk-minus-1", "chunk", "chunk-plus-1", "two-chunks-and-3"],
    )
    @pytest.mark.parametrize("mechanism", ["identity", "b400"])
    def test_chunked_rows_equal_one_string_rows(self, dim, mechanism, tmp_path):
        if mechanism == "b400":
            path = str(GOLDEN / "files" / "b400.json")
        else:
            path = str(tmp_path / "identity.json")
            save_params(path, IDENTITY_MECHANISM, opt_n=8, opt_min_sep=1, opt_max_part=8,
                        objective="max")
        state = make_noise_generator(load_params(path)[0], m=dim, noise_std=0.7, seed=5)
        expect = "round," + ",".join(f"z{j}" for j in range(dim)) + "\n"
        for t in range(3):
            expect += f"{t}," + ",".join(map(repr, stream_mult_inverse(state)[0].tolist())) + "\n"
        out_path = tmp_path / "noise.csv"
        assert main(["noisegen", "--params", path, "--rounds", "3", "--dim", str(dim),
                     "--noise-std", "0.7", "--seed", "5", "--out", str(out_path)]) == 0
        assert out_path.read_text() == expect

    def test_memory_stays_near_the_noise_state_and_one_row(self, tmp_path):
        # 2^17 columns of the 4-buffer b400 mechanism: the state and a row
        # are 5 MB. Formatting whole rows held every row's floats and
        # strings at once and peaked at 19.5 MB; column chunks peak at 7.0
        argv = ["noisegen", "--params", str(GOLDEN / "files" / "b400.json"), "--rounds", "2",
                "--dim", str(1 << 17), "--out", str(tmp_path / "noise.csv")]
        args = corrnoise.cli.build_parser().parse_args(argv)
        tracemalloc.start()
        try:
            corrnoise.cli.cmd_noisegen(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9e6


def simulate_config(**training):
    base = {
        "rounds": 6,
        "clients_per_round": 3,
        "client_lr": 0.1,
        "server_lr": 0.3,
        "noise_multiplier": 0.2,
        "min_sep": 2,
        "seed": 2,
    }
    base.update(training)
    return {
        "population": {
            "n_clients": 12,
            "dim": 4,
            "samples_per_client": 16,
            "task": "linear",
            "eval_samples": 32,
            "seed": 1,
        },
        "training": base,
    }


class TestSimulate:
    def run(self, config, tmp_path, capsys):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(config))
        outdir = tmp_path / "out"
        code, out = run_cli(
            ["simulate", "--config", str(cfg_path), "--outdir", str(outdir)], capsys
        )
        assert code == 0
        return strict_loads(out), outdir

    def test_end_to_end_outputs(self, params_file, tmp_path, capsys):
        config = simulate_config(params_file=params_file)
        doc, outdir = self.run(config, tmp_path, capsys)
        assert doc["rounds"] == 6
        assert math.isfinite(doc["rho_realized"])
        metrics = (outdir / "metrics.csv").read_text().strip().split("\n")
        assert metrics[0] == "round,eval_loss,eval_acc,rho_so_far"
        assert len(metrics) == 7
        part = (outdir / "participation.csv").read_text().strip().split("\n")
        assert part[0] == "round,client_id"
        assert len(part) == 1 + 6 * 3

    def test_csv_files_hold_the_result(self, tmp_path, capsys, monkeypatch):
        # floats as repr, NaN included; the log entry by entry, round by round
        result = SimResult(
            metrics=[{"round": 0, "eval_loss": 0.5, "eval_acc": math.nan, "rho_so_far": 0.125}],
            cohorts=np.array([[3, 5], [1, 4]]),
            final_model=np.zeros(4),
            realized_b=1,
            realized_k=2,
            rho_realized=0.125,
            sens_configured=1.0,
            sigma_zeta=1.0,
        )
        monkeypatch.setattr(corrnoise.cli, "run_training", lambda config, population: result)
        _, outdir = self.run(simulate_config(), tmp_path, capsys)
        metrics = (outdir / "metrics.csv").read_text()
        assert metrics == "round,eval_loss,eval_acc,rho_so_far\n0,0.5,nan,0.125\n"
        part = (outdir / "participation.csv").read_text()
        assert part == "round,client_id\n0,3\n0,5\n1,1\n1,4\n"

    def test_csv_files_are_the_run_entry_by_entry(self, tmp_path, capsys):
        config = simulate_config(rounds=30, min_sep=3)
        _, outdir = self.run(config, tmp_path, capsys)
        result = run_training(
            TrainConfig(**config["training"]), make_population(**config["population"])
        )
        want = "round,client_id\n" + "".join(
            f"{t},{cid}\n" for t, cid in log_entries(result.cohorts)
        )
        assert (outdir / "participation.csv").read_text() == want
        want = "round,eval_loss,eval_acc,rho_so_far\n" + "".join(
            f"{m['round']},{m['eval_loss']!r},{m['eval_acc']!r},{m['rho_so_far']!r}\n"
            for m in result.metrics
        )
        assert (outdir / "metrics.csv").read_text() == want

    def test_noiseless_run_prints_null_rho(self, tmp_path, capsys):
        doc, _ = self.run(simulate_config(noise_multiplier=0.0), tmp_path, capsys)
        assert doc["rho_realized"] is None
        assert doc["sigma_zeta"] == 0.0

    def test_weightless_buffer_params_rejected(self, weightless_file, tmp_path, capsys):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(simulate_config(params_file=weightless_file)))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg_path), "--outdir", str(tmp_path / "out")])
        assert_usage_names_file(exc, capsys, weightless_file)
        assert not (tmp_path / "out").exists()

    def test_unreadable_params_file_exits_with_usage(
        self, unreadable_file, tmp_path, capsys
    ):
        path, reason = unreadable_file
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(simulate_config(params_file=path)))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg_path), "--outdir", str(tmp_path / "out")])
        assert_usage_names_file(exc, capsys, path, reason)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "training, reason",
        [({"clip_norm": -1}, "clip_norm must be > 0"),
         ({"seed": -1}, "seed must be an integer >= 0"),
         ({"learning_rate": 0.1}, "unexpected keyword argument 'learning_rate'"),
         ({"rounds": 10.5}, "rounds must be an integer >= 1"),
         ({"rounds": True}, "rounds must be an integer >= 1, got True"),
         ({"clients_per_round": 2.0}, "clients_per_round must be an integer >= 1"),
         ({"local_epochs": 1.5}, "local_epochs must be an integer >= 1"),
         ({"est_max_part": 2.5}, "est_max_part must be an integer >= 1"),
         ({"batch_size": 2.5}, "batch_size must be an integer >= 1"),
         ({"server_lr": math.nan}, "server_lr must be finite"),
         ({"server_lr": math.inf}, "server_lr must be finite"),
         ({"momentum": math.nan}, "momentum must be finite"),
         ({"client_lr": math.nan}, "client_lr must be finite"),
         ({"noise_multiplier": math.inf}, "noise_multiplier must be finite and >= 0")],
        ids=["negative-clip-norm", "negative-seed", "unknown-key", "fractional-rounds",
             "boolean-rounds", "float-cohort", "fractional-epochs", "fractional-est-max-part",
             "fractional-batch-size", "nan-server-lr", "inf-server-lr", "nan-momentum",
             "nan-client-lr", "inf-noise-multiplier"],
    )
    def test_bad_training_block_exits_with_usage(self, training, reason, tmp_path, capsys):
        self.assert_config_exits_with_usage(
            json.dumps(simulate_config(**training)), reason, tmp_path, capsys
        )

    @pytest.mark.parametrize(
        "name, value, reason",
        [("n_clients", 0, "an integer >= 1"), ("dim", 2.0, "an integer >= 1"),
         ("samples_per_client", 0, "an integer >= 1"), ("eval_samples", 0, "an integer >= 1"),
         ("heterogeneity", math.nan, "finite and >= 0"),
         ("heterogeneity", -0.5, "finite and >= 0")],
        ids=["no-clients", "float-dim", "no-client-samples", "no-eval-samples",
             "nan-heterogeneity", "negative-heterogeneity"],
    )
    def test_bad_population_block_exits_with_usage(self, name, value, reason, tmp_path, capsys):
        config = simulate_config()
        config["population"][name] = value
        self.assert_config_exits_with_usage(
            json.dumps(config), f"{name} must be {reason}", tmp_path, capsys
        )

    @pytest.mark.parametrize(
        "text, reason",
        [('{"population": {"n_clients": 12', "Expecting"),
         ('{"training": {}}', "missing block 'population'")],
        ids=["malformed-json", "missing-block"],
    )
    def test_unreadable_config_exits_with_usage(self, text, reason, tmp_path, capsys):
        self.assert_config_exits_with_usage(text, reason, tmp_path, capsys)

    @pytest.mark.parametrize(
        "clients_per_round, min_sep, rounds", [(3, 4, 10), (3, 4, 2), (5, 1, 6)]
    )
    def test_cohort_bound(self, clients_per_round, min_sep, rounds, tmp_path, capsys):
        # starvation is deterministic: every client that sat out the last
        # min_sep - 1 rounds is eligible, so the bound trains and one less
        # starves
        training = dict(clients_per_round=clients_per_round, min_sep=min_sep, rounds=rounds)
        bound = clients_per_round * min(rounds, min_sep)
        config = simulate_config(**training)
        config["population"]["n_clients"] = bound
        doc, _ = self.run(config, tmp_path, capsys)
        assert doc["rounds"] == rounds
        config["population"]["n_clients"] = bound - 1
        starved = tmp_path / "starved"
        starved.mkdir()
        self.assert_config_exits_with_usage(
            json.dumps(config), f"need {bound} clients", starved, capsys
        )

    def test_cap_that_does_not_fit_names_the_config(self, tmp_path, capsys, monkeypatch):
        # (k - 1) * min_sep = 16 >= rounds = 6: TrainConfig rejects the cap,
        # so the run builds no coefficients; it used to fail in run_training
        def no_work(*args):
            raise AssertionError("blt_coefs ran")

        monkeypatch.setattr(corrnoise.ftrl_sim, "blt_coefs", no_work)
        self.assert_config_exits_with_usage(
            json.dumps(simulate_config(est_max_part=9)),
            "est_max_part 9 does not fit 6 rounds at min_sep 2; at most 3", tmp_path, capsys
        )

    def test_run_larger_than_memory_names_rounds(self, tmp_path, capsys):
        # the noise block alone would be 32 TB; the run used to end in a
        # MemoryError traceback from blt_coefs. Any exception but the usage
        # exit would escape pytest.raises, and the check allocates nothing
        tracemalloc.start()
        try:
            self.assert_config_exits_with_usage(
                json.dumps(simulate_config(rounds=10**12)),
                "rounds 1000000000000 need", tmp_path, capsys
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_population_larger_than_memory_names_its_fields(self, tmp_path, capsys):
        # 1e10 clients of 1000 samples in 4 dims are 291 TiB; the run used to
        # end in a MemoryError traceback from make_population's np.empty
        config = simulate_config()
        config["population"].update(n_clients=10**10, samples_per_client=1000)
        tracemalloc.start()
        try:
            self.assert_config_exits_with_usage(
                json.dumps(config),
                "n_clients 10000000000, samples_per_client 1000 and dim 4 need",
                tmp_path,
                capsys,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize(
        "value", [True, "", False, 0, [], 1.5],
        ids=["true", "empty", "false", "zero", "list", "float"],
    )
    def test_params_file_that_is_no_path_exits_with_usage(self, value, tmp_path, capfd):
        # open() must never see it: true opened file descriptor 1 and closed
        # stdout, and "", false, 0 and [] trained silently with independent noise
        self.assert_config_exits_with_usage(
            json.dumps(simulate_config(params_file=value)),
            f"params_file must be a path or null, got {value!r}",
            tmp_path,
            capfd,
        )
        os.fstat(1)

    def test_null_params_file_is_independent_noise(self, tmp_path, capsys):
        runs = []
        for config in (simulate_config(), simulate_config(params_file=None)):
            doc, outdir = self.run(config, tmp_path, capsys)
            runs.append((doc, (outdir / "metrics.csv").read_bytes()))
        assert runs[0] == runs[1]

    @staticmethod
    def assert_config_exits_with_usage(text, reason, tmp_path, capsys):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg_path), "--outdir", str(tmp_path / "out")])
        assert_usage_names_file(exc, capsys, str(cfg_path), reason)
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["noisegen", "--params", "{params}", "--rounds", "1", "--dim", "10000000000000"],
         "m 10000000000000 need"),
        (["optimize", "--n", "1000000000000", "--min-sep", "400", "--max-part", "2",
          "--buffers", "1", "--restarts", "1"], "n 1000000000000 need"),
        (["eval", "--tree", "--n", "1000000000000", "--min-sep", "400", "--max-part", "2"],
         "n 1000000000000 need"),
    ],
    ids=["noisegen", "optimize", "eval-tree"],
)
def test_command_larger_than_memory_names_its_field(argv, reason, params_file, monkeypatch,
                                                    capsys):
    # the noise buffers would be 146 TiB, the fit's end check 7.28 TiB and the
    # tree's errors 4 TiB; each used to end in a MemoryError traceback, the fit
    # only after all its restarts. Any exception but the usage exit would
    # escape pytest.raises, and the check allocates nothing
    def no_loss(*args):
        raise AssertionError("a loss call ran")

    monkeypatch.setattr(corrnoise.blt_optimizer, "_loss_batch", no_loss)
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main([arg.format(params=params_file) for arg in argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"{argv[0]}: error: {reason} " in captured.err and captured.out == ""
    assert peak < 1e6


def test_console_script_installed():
    # the child sees the package this run imports, installed or not
    src = Path(corrnoise.cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "corrnoise.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert "optimize" in proc.stdout


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
# (language, body) of each fenced block in the README
README_BLOCKS = re.findall(r"^```([^\n]*)\n(.*?)^```", README, flags=re.M | re.S)


def readme_commands():
    """argv of every corrnoise command in the README's fenced blocks, in order."""
    blocks = "".join(body for _, body in README_BLOCKS)
    lines = [line.strip() for line in blocks.replace("\\\n", " ").splitlines()]
    return [
        shlex.split(line.replace("$n", "2000"))[1:]
        for line in lines
        if line.startswith("corrnoise ")
    ]


def test_readme_commands_parse():
    # every corrnoise command in the README's fenced blocks must parse, so that a
    # renamed or retyped flag cannot leave a documented recipe broken
    commands = readme_commands()
    subcommands = {argv[0] for argv in commands}
    assert subcommands == {"optimize", "eval", "sweep", "noisegen", "account", "simulate"}
    for argv in commands:  # argparse exits, printing the bad flag, on any it rejects
        corrnoise.cli.build_parser().parse_args(argv)


def files_under(root):
    """Sorted paths, relative to ``root``, of the files anywhere below it."""
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def exit_code(argv):
    """main's return value, or the code of the SystemExit it raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# each README command's stdout and the files the commands write, recorded
# once by running the README from an empty directory
GOLDEN = Path(__file__).resolve().parent / "golden" / "readme"


class TestRepeatedCalls:
    # main builds its parser once per process: a later call, after a usage
    # error too, must print and return exactly what the first one did, and
    # the first must match the record

    @pytest.fixture
    def readme_dir(self, tmp_path, monkeypatch):
        """A working directory holding the inputs the README commands read."""
        monkeypatch.chdir(tmp_path)
        np.save("C.npy", np.eye(2052))  # the identity strategy, at the README's n
        sim = next(body for lang, body in README_BLOCKS if lang == "json")
        Path("sim.json").write_text(sim)
        # the README's sed line: the same config without params_file
        doc = json.loads(sim)
        del doc["training"]["params_file"]
        Path("independent.json").write_text(json.dumps(doc))
        return tmp_path

    def test_second_call_repeats_the_first_and_builds_no_parser(
        self, readme_dir, monkeypatch, capsys
    ):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        commands = readme_commands()
        stdouts = [f"{i:02d}-{argv[0]}.out" for i, argv in enumerate(commands, 1)]
        assert sorted(os.listdir(GOLDEN / "stdout")) == stdouts
        inputs = {"C.npy", "sim.json", "independent.json"}
        for argv, name in zip(commands, stdouts):
            first = exit_code(argv), capsys.readouterr().out
            assert first[0] == 0, argv
            assert first[1] == (GOLDEN / "stdout" / name).read_bytes().decode(), argv
            assert exit_code(["eval", "--tree", "--n", "0"]) == 2
            assert "usage" in capsys.readouterr().err
            built.clear()
            second = exit_code(argv), capsys.readouterr().out
            assert second == first, argv
            assert built == [], argv
        written = [name for name in files_under(readme_dir) if name not in inputs]
        files = GOLDEN / "files"
        assert written == files_under(files)
        for name in written:
            assert (readme_dir / name).read_bytes() == (files / name).read_bytes(), name

    def test_main_runs_the_command_the_module_holds(self, monkeypatch, capsys):
        # a command swapped in after the parser was built is the one main runs
        main(["account", "--sens", "1.0", "--sigma", "1.0"])
        capsys.readouterr()
        seen = []
        monkeypatch.setattr(corrnoise.cli, "cmd_sweep", lambda args: seen.append(args) or 7)
        assert main(["sweep", "--n", "8", "--b-start", "1", "--b-stop", "2", "--tree"]) == 7
        assert [(args.n, args.b_start, args.b_stop, args.tree) for args in seen] == [
            (8, 1, 2, True)
        ]
        assert capsys.readouterr().out == ""


class TestOneUsageExit:
    # main turns a ValueError or OSError into a usage error, exit 2; the
    # commands never call the parser themselves
    @pytest.mark.parametrize("exc", [ValueError("bad value"), FileNotFoundError("no file")])
    def test_bad_input_exits_with_usage(self, exc, monkeypatch, capsys):
        def command(args):
            raise exc

        monkeypatch.setattr(corrnoise.cli, "cmd_account", command)
        with pytest.raises(SystemExit) as caught:
            main(["account", "--sens", "1.0", "--sigma", "1.0"])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: corrnoise account")
        assert err.endswith(f"corrnoise account: error: {exc}\n")

    @pytest.mark.parametrize("exc", [TypeError, RuntimeError])
    def test_defects_are_raised(self, exc, monkeypatch, capsys):
        def command(args):
            raise exc("not bad input")

        monkeypatch.setattr(corrnoise.cli, "cmd_account", command)
        with pytest.raises(exc, match="not bad input"):
            main(["account", "--sens", "1.0", "--sigma", "1.0"])
        assert "usage" not in capsys.readouterr().err

    def test_closed_pipe_exits_1_with_stdout_sent_to_devnull(self, monkeypatch, capsys, tmp_path):
        # main points stdout's descriptor at devnull; here that is a file of
        # this test's own, never the test process's descriptor 1
        def command(args):
            raise BrokenPipeError("closed")

        monkeypatch.setattr(corrnoise.cli, "cmd_account", command)
        with open(tmp_path / "stdout", "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            assert main(["account", "--sens", "1.0", "--sigma", "1.0"]) == 1
            out.write("after the closed pipe")
        assert (tmp_path / "stdout").read_text() == ""
        assert capsys.readouterr().err == ""

    def test_closed_pipe_is_no_usage_error(self, params_file):
        # noisegen | head: the reader leaves after 100 bytes, and the next
        # write meets a closed pipe; the run ends 1 and says nothing
        src = Path(corrnoise.cli.__file__).resolve().parent.parent
        command = [sys.executable, "-m", "corrnoise.cli", "noisegen", "--params", params_file,
                   "--rounds", "20000", "--dim", "50"]
        proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert head.startswith("round,z0,z1,")
        assert len(head) == 100
        assert err == ""


# one value of every JSON kind, and the edges of the numbers
FUZZ_VALUES = [None, True, False, -1, 0, 1.5, 1e30, "", "x", [], {}, math.nan, math.inf]
# the README's sim.json with the optional fields it leaves out written at their defaults
FUZZ_SIM = json.loads(next(body for lang, body in README_BLOCKS if lang == "json"))
FUZZ_SIM["population"].update(heterogeneity=0.5, eval_samples=512)
FUZZ_SIM["training"].update(
    momentum=0.9, clip_norm=1.0, est_max_part=8, local_epochs=1, batch_size=16
)
# the commands that read a parameter file, with PATH where its name goes
PARAMS_COMMANDS = {
    "eval": ["eval", "--params", "PATH", "--n", "64", "--min-sep", "16", "--max-part", "4"],
    "sweep": ["sweep", "--n", "64", "--b-start", "16", "--b-stop", "16", "--params", "PATH"],
    "noisegen": ["noisegen", "--params", "PATH", "--rounds", "2", "--dim", "2"],
}


def fuzz_failures(argv, path, doc, field, capfd):
    """Each FUZZ_VALUES case in ``field`` of the JSON document at ``path``
    that main neither runs (exit 0) nor rejects with usage naming the file
    and the field, as (value, exit code or exception, stderr's tail).

    ``field`` is a key of ``doc`` or (block, key). A traceback or a closed
    stdout is a failure too.
    """
    block, key = (None, field) if isinstance(field, str) else field
    failures = []
    for value in FUZZ_VALUES:
        edited = copy.deepcopy(doc)
        (edited[block] if block else edited)[key] = value
        Path(path).write_text(json.dumps(edited))  # NaN and Infinity as json writes them
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = repr(exc)
        os.fstat(1)
        err = capfd.readouterr().err
        # a params_file that names no file is reported by the name it gives
        named = [f"'{value}'"] if key == "params_file" and value == "x" else [path, key]
        if not (code == 0 or (code == 2 and all(name in err for name in named))):
            failures.append((value, code, err[-200:]))
    return failures


class TestInputFuzz:
    @pytest.mark.parametrize(
        "field",
        [(block, key) for block in FUZZ_SIM for key in FUZZ_SIM[block]],
        ids=lambda field: ".".join(field),
    )
    def test_simulate_config_field(self, field, tmp_path, monkeypatch, capfd):
        monkeypatch.chdir(tmp_path)
        save_params("sim_mech.json", MECH, opt_n=64, opt_min_sep=8, opt_max_part=8,
                    objective="max")
        argv = ["simulate", "--config", "sim.json", "--outdir", "out"]
        assert fuzz_failures(argv, "sim.json", FUZZ_SIM, field, capfd) == []

    @pytest.mark.parametrize("command", sorted(PARAMS_COMMANDS))
    @pytest.mark.parametrize(
        "field", ["d", "theta", "omega", "opt_n", "opt_min_sep", "opt_max_part", "objective"]
    )
    def test_params_file_field(self, command, field, params_file, capfd):
        doc = json.loads(Path(params_file).read_text())
        argv = [params_file if arg == "PATH" else arg for arg in PARAMS_COMMANDS[command]]
        assert fuzz_failures(argv, params_file, doc, field, capfd) == []


# JSON's integer 10^400, which no float holds. It stays out of FUZZ_VALUES:
# as a count it passes the integer rule, and local_epochs = 10^400 would
# run for ever
PAST_FLOAT = 10**400
SIM_REALS = [
    ("training", "client_lr"),
    ("training", "server_lr"),
    ("training", "momentum"),
    ("training", "clip_norm"),
    ("training", "noise_multiplier"),
    ("population", "heterogeneity"),
]


def assert_usage_names_field(argv, path, field, capfd):
    """main(argv) exits 2 with usage naming ``path`` and ``field``, and no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capfd.readouterr()
    assert exc.value.code == 2
    assert "usage" in captured.err and path in captured.err and field in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


class TestNumberPastFloat:
    @pytest.mark.parametrize("field", SIM_REALS, ids=lambda field: ".".join(field))
    def test_simulate_real_field(self, field, tmp_path, monkeypatch, capfd):
        monkeypatch.chdir(tmp_path)
        save_params("sim_mech.json", MECH, opt_n=64, opt_min_sep=8, opt_max_part=8,
                    objective="max")
        doc = copy.deepcopy(FUZZ_SIM)
        doc[field[0]][field[1]] = PAST_FLOAT
        Path("sim.json").write_text(json.dumps(doc))
        argv = ["simulate", "--config", "sim.json", "--outdir", "out"]
        assert_usage_names_field(argv, "sim.json", field[1], capfd)

    @pytest.mark.parametrize("command", sorted(PARAMS_COMMANDS) + ["simulate"])
    @pytest.mark.parametrize("field", ["theta", "omega"])
    def test_params_file_entry(self, command, field, params_file, tmp_path, capfd):
        doc = json.loads(Path(params_file).read_text())
        doc[field][0] = PAST_FLOAT
        Path(params_file).write_text(json.dumps(doc))
        if command == "simulate":
            config = copy.deepcopy(FUZZ_SIM)
            config["training"]["params_file"] = params_file
            (tmp_path / "sim.json").write_text(json.dumps(config))
            argv = ["simulate", "--config", str(tmp_path / "sim.json"),
                    "--outdir", str(tmp_path / "out")]
        else:
            argv = [params_file if arg == "PATH" else arg for arg in PARAMS_COMMANDS[command]]
        assert_usage_names_field(argv, params_file, field, capfd)

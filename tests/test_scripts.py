"""Smoke tests for scripts/: each runs at a toy size, exits 0 and prints its header."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import corrnoise

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(corrnoise.__file__).resolve().parent.parent)


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.parametrize(
    "script, args, header",
    [
        (
            "reproduce_loss_table.py",
            ["--n", "64", "--min-sep", "16", "--max-part", "4", "--restarts", "1"],
            "mechanism MaxLoss RmsLoss fit s",
        ),
        (
            "robustness_sweep.py",
            ["--n", "128", "--opt-b", "32", "--b-start", "16", "--b-stop", "64",
             "--b-step", "16", "--buffers", "2"],
            "fit at b=32: max_loss=",
        ),
    ],
    ids=["reproduce_loss_table", "robustness_sweep"],
)
def test_script_runs_at_toy_size(script, args, header):
    proc = _run(script, *args)
    assert proc.returncode == 0, proc.stderr
    lines = [" ".join(line.split()) for line in proc.stdout.splitlines()]
    assert any(line.startswith(header) for line in lines), proc.stdout


@pytest.mark.parametrize(
    "script", ["reproduce_loss_table.py", "robustness_sweep.py", "run_simulation.py"]
)
def test_negative_seed_is_a_usage_error(script):
    proc = _run(script, "--seed", "-1")
    assert proc.returncode == 2, proc.stderr
    assert "must be >= 0" in proc.stderr
    assert "Traceback" not in proc.stderr

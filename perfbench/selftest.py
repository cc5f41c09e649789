"""Self-test of the benchmark at toy sizes (about a minute on 2 cores).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload's output check accepts a correct output
and rejects a deliberately corrupted one, and that both the untraced and
the traced run emit exactly the metric names listed in BENCHMARK.json.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ["CORRNOISE_THREADS"] = "1"

import workloads  # noqa: E402
from run import tail  # noqa: E402


def check_checks():
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(1, toy=True)
        out = wl.op()
        errors = wl.check(out)
        assert errors == [], f"{name}: correct output rejected: {errors}"
        bad = wl.corrupt(out)
        assert wl.check(bad), f"{name}: corrupted output accepted"
        print(f"ok  {name}: check accepts its output and rejects a corrupted one")


def check_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"] for m in spec[key]}
        for name in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", "2", "--seconds", "0.01", "--trace", str(trace), "--toy"],
                capture_output=True, text=True, timeout=600, cwd=ROOT,
            )
            assert proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, f"{name}: {result}"
            got = set(result["metrics"])
            assert got == want, f"{name} trace={trace}: missing {want - got}, extra {got - want}"
            print(f"ok  {name} trace={trace}: all {len(want)} {key} metrics emitted")


def check_tail():
    assert tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")
    value, label = tail([float(i) for i in range(1, 101)])
    assert (value, label) == (90.0, "p90 of 100"), (value, label)
    print("ok  tail percentile leaves 10 samples beyond it")


if __name__ == "__main__":
    check_tail()
    check_checks()
    check_metric_names()
    print("selftest passed")

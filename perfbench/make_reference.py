"""Regenerate the committed references the sweep and simulate checks compare with.

Run from the repository root, on the commit whose outputs are the
reference (about a minute and a half on 2 cores):

    python3 perfbench/make_reference.py

It writes ``perfbench/data/sweep_reference.csv`` (the whole README grid,
b = 100..1000 in steps of 50, every mechanism) and
``perfbench/data/simulate_reference.json`` (one run per simulate seed).
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ["CORRNOISE_THREADS"] = "1"

import corrnoise as cn  # noqa: E402

import workloads as wl  # noqa: E402


def main():
    with open(wl.SWEEP_REFERENCE, "w") as fh:
        fh.write(wl.sweep_reference_text())
    runs = {}
    for sim_seed in range(wl.SIM_SEEDS):
        population, config = wl.simulate_inputs(sim_seed)
        runs[str(sim_seed)] = wl.simulate_summary(cn.run_training(config, population))
    with open(wl.SIMULATE_REFERENCE, "w") as fh:
        json.dump({"runs": runs}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Robustness of a fixed mechanism to the deployed min-separation.

Parameters are fit once for an anticipated min-separation, then the
deployment value is swept across a wide range with the participation
cap held fixed; the loss curve should move smoothly (no cliff when the
anticipated value is missed). A second check grows the horizon n beyond
the optimization target and verifies sensitivity only increases.

Usage:
    python3 scripts/robustness_sweep.py [--opt-b 400] [--n 2000]
"""

import argparse

import numpy as np

from corrnoise import (
    OptimizerConfig,
    ParticipationSchema,
    blt_coefs,
    blt_mechanism_loss_fn,
    optimize_blt,
    toeplitz_sensitivity,
)
from corrnoise.cli import _nonnegative_int


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--opt-b", type=int, default=400)
    ap.add_argument("--max-part", type=int, default=2)
    ap.add_argument("--b-start", type=int, default=100)
    ap.add_argument("--b-stop", type=int, default=1000)
    ap.add_argument("--b-step", type=int, default=10)
    ap.add_argument("--buffers", type=int, default=4)
    ap.add_argument("--seed", type=_nonnegative_int, default=0)
    args = ap.parse_args()

    res = optimize_blt(
        OptimizerConfig(
            schema=ParticipationSchema(args.n, args.opt_b, args.max_part),
            d=args.buffers,
            seed=args.seed,
        )
    )
    params = res.params
    print(f"fit at b={args.opt_b}: max_loss={res.loss:.4f}")

    # keep only separations the pattern constraint admits: (k-1)*b < n
    b_cap = args.n - 1 if args.max_part <= 1 else (args.n - 1) // (args.max_part - 1)
    b_values = [
        b for b in range(args.b_start, args.b_stop + 1, args.b_step) if b <= b_cap
    ]
    # the errors do not depend on b: one evaluator computes them once
    loss_fn = blt_mechanism_loss_fn(params, args.n)
    losses = np.array(
        [loss_fn(ParticipationSchema(args.n, b, args.max_part)).max_loss for b in b_values]
    )
    jumps = np.abs(np.diff(losses)) / losses[:-1]
    print(
        f"b sweep [{args.b_start}, {args.b_stop}] step {args.b_step}: "
        f"loss range [{losses.min():.4f}, {losses.max():.4f}], "
        f"worst step-to-step jump {100 * jumps.max():.2f}%"
    )

    # deployments run past the horizon the mechanism was fit for; the
    # sensitivity of the extended column must keep growing smoothly
    horizons = list(range(args.n, 2 * args.n + 1, max(100, args.n // 10)))
    sens = [
        toeplitz_sensitivity(
            blt_coefs(params, n), ParticipationSchema(n, args.opt_b, args.max_part)
        )
        for n in horizons
    ]
    mono = all(s2 >= s1 for s1, s2 in zip(sens, sens[1:]))
    print(f"sensitivity over n={horizons[0]}..{horizons[-1]}: monotone={mono}")
    for n, s in zip(horizons, sens):
        print(f"  n={n:<6} sens={s:.6f}")


if __name__ == "__main__":
    main()

"""Reproduce the mechanism-comparison loss table.

Fits buffered-decay mechanisms of increasing buffer count to the
reference schema (n=2052, min-sep 342, at most 6 participations),
evaluates the tree baseline at the same schema, and prints MaxLoss /
RmsLoss for each row. Expected runtime: about 12 s on a 2-core
machine (Python 3.11, numpy 2.4).

Usage:
    python3 scripts/reproduce_loss_table.py [--restarts 8] [--seed 0]
"""

import argparse
import time

from corrnoise import (
    OptimizerConfig,
    ParticipationSchema,
    blt_mechanism_loss,
    eval_tree,
    optimize_blt,
)
from corrnoise.cli import _nonnegative_int


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2052)
    ap.add_argument("--min-sep", type=int, default=342)
    ap.add_argument("--max-part", type=int, default=6)
    ap.add_argument("--restarts", type=int, default=8)
    ap.add_argument("--seed", type=_nonnegative_int, default=0)
    args = ap.parse_args()

    schema = ParticipationSchema(args.n, args.min_sep, args.max_part)
    rows = []

    tree = eval_tree(schema)
    rows.append(("tree (full decoder)", tree.max_loss, tree.rms_loss, 0.0))

    jobs = [(d, "max") for d in (1, 2, 3, 4)] + [(3, "rms")]
    for d, objective in jobs:
        t0 = time.perf_counter()
        res = optimize_blt(
            OptimizerConfig(
                schema=schema,
                d=d,
                objective=objective,
                restarts=args.restarts,
                seed=args.seed,
            )
        )
        bundle = blt_mechanism_loss(res.params, schema)
        rows.append(
            (
                f"buffered d={d} ({objective}-optimized)",
                bundle.max_loss,
                bundle.rms_loss,
                time.perf_counter() - t0,
            )
        )

    print(f"\nschema: n={schema.n} min-sep={schema.b} max-part={schema.k}")
    print(f"{'mechanism':<32} {'MaxLoss':>10} {'RmsLoss':>10} {'fit s':>8}")
    for name, ml, rl, dt in rows:
        print(f"{name:<32} {ml:>10.4f} {rl:>10.4f} {dt:>8.1f}")


if __name__ == "__main__":
    main()
